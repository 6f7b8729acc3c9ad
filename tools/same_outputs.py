"""Check that two snsm source trees print the same for a fixed list of commands.

    python tools/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/snsm``. Every command runs as
``python -m snsm.cli ARGS`` in a fresh interpreter, with
``PYTHONPATH=TREE/src`` and the tree as working directory, once per tree.
The script prints one line per command and names what differs: stdout,
stderr or the exit code, next to the new tree's exit code. Exit status 1
when any command differs, 2 on a usage error.

The list holds the command lines of one pass of each benchmark workload
(``perfbench/workloads.py``, seed 3) and commands that reach the other paths
of the entry points: MLP2 runs (Adam-family, SM and GaLore rows over its two
parameter tensors), the Thm-2 Monte-Carlo check, a three-beta sweep, a
four-beta sweep in unsorted order (its betas run in uneven shares across
processes, and the rows must come back in beta order), a sweep whose noise
level is not 1 (every other sweep draws at level 1, which the oracle does
not multiply by), a sweep with an empty beta list, a sweep whose AdaGrad
rows diverge at both betas (seeds leave the lockstep batch) and whose other
rows' metrics lie so near the float limit that their stderr is taken over
scaled metrics, a diverging run, AdamSN on a length whose subsets end in a
shorter block, sparse noise under GaLore, a seed beyond one entropy word,
the ``norm`` rule's state count in ``train`` and ``mem``, the ``equip`` rule
on MLP2 (W2 falls back to coordinate-wise subsets), a subset size without
the ``equip`` rule, a one-element tensor's count, the Thm-3 bound, a Thm-2
and a Thm-3 bound whose terms overflow a float (each exits 1 naming the
term), a Thm-3 bound with negative noise levels (exit 1) and the rate table.
The help of the program and of every command, usage errors (a missing
``--manifest``, an unknown command, and a flag no command has, whose usage
line is the program's and lists every command), an empty manifest, a file
that is not a manifest (``manifest line 1: ...``), a shape that is not one
and a rejected ``--delta1`` put the help text, the usage lines and the
usage exit code under the check too. The ``n-seeds`` commands ask for too
few seeds; against a tree whose error did not name ``--n-seeds``, they
differ on stderr by design.
The ``wide-8x12`` commands step a parameter wider than tall, which the
optimizer steps transposed: its step arrays are not C-contiguous, so the
in-place subset division, the subspace directions and weight decay with
clipping each run on that layout. The ``draw-ahead`` commands draw enough
normals per step that, on two or more CPUs, the run draws the next step's
noise on a helper thread: Adam, AdamSN, an SGD run in which one seed leaves
the batch while a draw for both is under way, and the rows that keep a
subspace frame, AdamSNSM (SVD and SRHT frames) and GaLore, which draw ahead
while OpenBLAS is held off the helper's CPU. ``grad-norm-sum-overflow`` is
an SGD run whose every ||grad f||^2 is finite but whose sum overflows a
float; against a tree that reported its mean as ``inf`` with numpy's
overflow warning, it differs on stderr by design. The ``svd`` commands build
"svd" frames where ``linalg`` runs LAPACK dgesdd's path-5 steps itself and
where it hands the gradient to ``np.linalg.svd``: a tall 96x64 gradient
inside path 5, a 64x16 one past it, 32x32 gradients below and above
dgesdd's scaling bounds, and a frame stacked over three seeds of which one
diverges and leaves the stack.
The ``train-subset-rule`` commands give a partition rule a subset size that
does not divide d, an unknown rule, and a size the rule does not read; each
exits 1. ``adamsn-2x3x4`` partitions a tensor of three axes in blocks of
about sqrt(d)/2. The ``sweep-subset-size`` commands give the sweep a subset
size that does not divide d and one below 1; the sweep reports train's
messages for both, so against a tree whose sweep checked its subset sizes
with its own wording they differ on stderr by design.
``noise-empty`` reads gradient samples from an empty file (exit 1);
against a tree that let numpy's ``loadtxt: input contained no data``
warning through to stderr before the error line, it differs on stderr by
design.

Every sweep that runs prints one verdict line per beta and comparison on
stderr after its table, e.g. ``# beta=1 AdaGradSN(8) vs AdaGrad:
a_better``. Against a tree older than those lines, ``beta_sweep/sweep``,
``sweep-3-betas``, ``sweep-4-betas``, ``sweep-alpha-0.5`` and
``sweep-rows-diverge`` differ by them on stderr alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

COMMANDS = [
    *((f"{name}/{label}", argv) for name in workloads.NAMES
      for label, argv in workloads.calls(name, 3)),
    ("mlp2/csv", ["train", "--objective", "mlp2", "--d", "6", "--hidden", "5",
                  "--T", "60", "--preset", "AdamSN", "--lr", "0.01",
                  "--sigma", "0.1", "--n-seeds", "3", "--seed-base", "2"]),
    ("mlp2/json", ["train", "--objective", "mlp2", "--d", "6", "--hidden", "5",
                   "--T", "60", "--preset", "SGDm", "--lr", "0.05",
                   "--sigma", "0.1", "--n-seeds", "3", "--seed-base", "4",
                   "--format", "json"]),
    ("mlp2/adamsnsm", ["train", "--objective", "mlp2", "--d", "6", "--hidden", "5",
                       "--T", "60", "--preset", "AdamSNSM", "--lr", "0.01",
                       "--refresh-gap", "20", "--sigma", "0.1", "--n-seeds", "3",
                       "--seed-base", "2"]),
    ("mlp2/galore", ["train", "--objective", "mlp2", "--d", "6", "--hidden", "5",
                     "--T", "60", "--preset", "GaLore", "--lr", "0.01",
                     "--refresh-gap", "20", "--sigma", "0.1", "--n-seeds", "3",
                     "--seed-base", "4", "--format", "json"]),
    ("bound-verify", ["bound", "--thm", "2", "--verify", "--T", "2000",
                      "--n-seeds", "10"]),
    ("sweep-3-betas", ["sweep", "--betas", "0,0.5,1", "--d", "64", "--T", "200",
                       "--n-seeds", "3", "--subset-sizes", "8,16"]),
    ("sweep-4-betas", ["sweep", "--betas", "1,0.25,0,0.5", "--d", "64", "--T", "100",
                       "--n-seeds", "3", "--subset-sizes", "8", "--format", "json"]),
    ("sweep-alpha-0.5", ["sweep", "--betas", "0,1", "--d", "64", "--T", "100",
                         "--n-seeds", "3", "--subset-sizes", "8", "--alpha", "0.5"]),
    ("sweep-no-beta", ["sweep", "--betas", ""]),
    ("sweep-rows-diverge", ["sweep", "--betas", "0,1", "--d", "64", "--T", "50",
                            "--n-seeds", "4", "--subset-sizes", "8", "--lr", "3e153"]),
    ("sgd-diverges", ["train", "--preset", "SGD", "--lr", "10", "--d", "10",
                      "--T", "400", "--sigma", "0.1"]),
    ("galore-beta-0.5", ["train", "--preset", "GaLore", "--d", "256",
                         "--param-shape", "16x16", "--noise-beta", "0.5",
                         "--rank", "4", "--refresh-gap", "20", "--T", "100",
                         "--lr", "0.01", "--n-seeds", "2"]),
    ("seed-base-2**32", ["train", "--preset", "Adam", "--d", "16", "--T", "30",
                         "--sigma", "0.5", "--n-seeds", "2",
                         "--seed-base", "4294967296"]),
    ("adamsn-ragged", ["train", "--preset", "AdamSN", "--d", "50", "--T", "30",
                       "--sigma", "0.1", "--n-seeds", "2"]),
    ("adagradnorm", ["train", "--preset", "AdaGradNorm", "--d", "16", "--T", "30",
                     "--lr", "0.1", "--sigma", "0.1", "--n-seeds", "2"]),
    ("mem-norm-rule", ["mem", "--manifest", workloads.MEM_MANIFEST,
                       "--preset", "AdamSN", "--subset-rule", "norm"]),
    ("mlp2/equip", ["train", "--objective", "mlp2", "--preset", "AdamSN",
                    "--subset-rule", "equip", "--subset-size", "5"]),
    ("mem-subset-size", ["mem", "--manifest", workloads.MEM_MANIFEST,
                         "--preset", "AdamSN", "--subset-size", "7"]),
    ("mlp2/hidden-1", ["train", "--objective", "mlp2", "--d", "4", "--hidden", "1",
                       "--T", "30", "--preset", "Adam", "--lr", "0.01",
                       "--sigma", "0.1"]),
    ("bound-thm3", ["bound", "--thm", "3", "--eta", "0.05", "--T", "1000",
                    "--sigma-subsets", "0.5,1,2", "--b0", "0.1"]),
    ("bound-overflow", ["bound", "--thm", "2", "--sigma", "1e308"]),
    ("bound3-overflow", ["bound", "--thm", "3", "--sigma-subsets", "1e200,1e200",
                         "--b0", "1"]),
    ("bound3-negative-sigma", ["bound", "--thm", "3", "--sigma-subsets=-0.001,-0.001",
                               "--b0", "1"]),
    ("rates", ["rates", "--beta", "0.5"]),
    ("help", ["-h"]),
    *((f"help/{cmd}", [cmd, "-h"])
      for cmd in ("train", "mem", "bound", "sweep", "rates", "noise")),
    ("mem-no-manifest", ["mem", "--preset", "Adam"]),
    ("nonsense", ["nonsense"]),
    ("mem-unrecognized", ["mem", "--manifest", workloads.MEM_MANIFEST,
                          "--preset", "Adam", "--bogus", "1"]),
    ("mem-empty-manifest", ["mem", "--manifest", os.devnull, "--preset", "Adam"]),
    ("delta1-negative", ["train", "--T", "3", "--delta1", "-1"]),
    # a file that is not a manifest, and a shape that is not one
    ("mem-bad-manifest", ["mem", "--manifest", "pyproject.toml", "--preset", "Adam"]),
    ("train-bad-shape", ["train", "--param-shape", "10xabc", "--d", "100"]),
    # too few seeds: the error names --n-seeds
    ("train-n-seeds-0", ["train", "--d", "16", "--T", "3", "--n-seeds", "0"]),
    ("sweep-n-seeds-1", ["sweep", "--d", "16", "--T", "3", "--n-seeds", "1"]),
    ("bound-verify-n-seeds-0", ["bound", "--thm", "2", "--verify", "--T", "3",
                                "--n-seeds", "0"]),
    # each step draws 2 x 65536 normals: every preset draws the next step's
    # noise on a helper thread
    *((f"draw-ahead/{label}", ["train", "--d", "65536", "--param-shape", "256x256",
                               "--T", "8", "--n-seeds", "2", *extra])
      for label, extra in (
          ("adam", ["--sigma", "1e-3", "--preset", "Adam"]),
          ("adamsn", ["--sigma", "1e-3", "--preset", "AdamSN"]),
          # the iterates grow 999x a step: seed 3 overflows at t = 5, where the
          # draw made ahead for seeds 2 and 3 is discarded, and seed 2 at t = 6
          ("one-seed-diverges", ["--sigma", "5.265e139", "--preset", "SGD",
                                 "--lr", "1000", "--delta1", "0", "--seed-base", "2"]),
          ("adamsnsm", ["--sigma", "1e-3", "--preset", "AdamSNSM"]),
          # refreshed at t = 3 and 6, beside the helper's draws
          ("adamsnsm-srht", ["--sigma", "1e-3", "--preset", "AdamSNSM",
                             "--frame", "srht", "--refresh-gap", "3"]),
          ("galore", ["--sigma", "1e-3", "--preset", "GaLore", "--refresh-gap", "3"]))),
    # from t = 2 every ||grad f||^2 is about 1.77e308: their sum overflows
    ("grad-norm-sum-overflow", ["train", "--d", "65536", "--param-shape", "256x256",
                                "--T", "8", "--n-seeds", "2", "--preset", "SGD",
                                "--lr", "1", "--delta1", "0", "--sigma", "5.2e151"]),
    *((f"wide-8x12/{label}", ["train", "--d", "96", "--param-shape", "8x12",
                              "--T", "30", "--sigma", "0.3", "--n-seeds", "2",
                              *extra])
      for label, extra in (
          ("adamsnsm", ["--preset", "AdamSNSM", "--rank", "3", "--refresh-gap", "7"]),
          ("galore", ["--preset", "GaLore", "--rank", "3", "--refresh-gap", "7"]),
          ("adamsn-wd-clip", ["--preset", "AdamSN", "--weight-decay", "0.01",
                              "--clip-norm", "1.0"]))),
    # "svd" frames at the edges of dgesdd's path 5, whose steps linalg runs
    # itself: a tall gradient inside it and one past it
    ("svd-tall-96x64", ["train", "--d", "6144", "--param-shape", "96x64", "--T", "30",
                        "--sigma", "0.3", "--n-seeds", "2", "--preset", "AdamSNSM",
                        "--rank", "8", "--refresh-gap", "10"]),
    ("svd-tall-64x16", ["train", "--d", "1024", "--param-shape", "64x16", "--T", "30",
                        "--sigma", "0.3", "--n-seeds", "2", "--preset", "GaLore",
                        "--rank", "4", "--refresh-gap", "10"]),
    # a 32x32 gradient below dgesdd's scaling floor (2**-459), and one above
    # its ceiling (2**459): both go to np.linalg.svd
    *((f"svd-{label}", ["train", "--preset", "AdamSNSM", "--d", "1024",
                        "--param-shape", "32x32", "--delta1", "1e-300",
                        "--sigma", sigma, "--T", "3"])
      for label, sigma in (("tiny-grad", "0"), ("huge-noise", "1e150"))),
    # W1 (64x48) of three seeds refreshed every step: seed 1 diverges at
    # t = 43, and the frame is stacked over the other two from then on
    ("svd-3-seeds-one-diverges", ["train", "--objective", "mlp2", "--d", "48",
                                  "--hidden", "64", "--n-seeds", "3", "--T", "60",
                                  "--lr", "60", "--sigma", "1", "--refresh-gap", "1",
                                  "--rank", "4", "--preset", "SGD-SM"]),
    # the partition rules' errors, in the sweep and in train, and the
    # heuristic2d rule on a tensor of three axes
    *((f"sweep-subset-size-{size}", ["sweep", "--d", "16", "--T", "3",
                                     "--subset-sizes", size])
      for size in ("3", "0")),
    *((f"train-subset-rule/{label}", ["train", "--d", "16", "--T", "3",
                                      "--preset", "AdamSN", *extra])
      for label, extra in (
          ("equip-3", ["--subset-rule", "equip", "--subset-size", "3"]),
          ("bogus", ["--subset-rule", "bogus"]),
          ("norm-4", ["--subset-rule", "norm", "--subset-size", "4"]))),
    ("adamsn-2x3x4", ["train", "--d", "24", "--param-shape", "2x3x4", "--preset",
                      "AdamSN", "--T", "5", "--sigma", "0.1"]),
    ("noise-empty", ["noise", "--samples", os.devnull]),
]


def run(tree: Path, argv: list) -> tuple:
    """(stdout, stderr, exit code) of ``snsm ARGV`` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "snsm.cli", *argv], cwd=tree,
                          env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_outputs.py OLD_TREE NEW_TREE",
              file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in args)
    differ = 0
    for label, cmd in COMMANDS:
        before, after = run(old, cmd), run(new, cmd)
        diff = [part for part, a, b in zip(("stdout", "stderr", "exit code"),
                                           before, after) if a != b]
        differ += bool(diff)
        print(f"{'DIFFERS' if diff else 'same':7} exit {after[2]} {label}: "
              f"snsm {' '.join(cmd)}" + (f"  [{', '.join(diff)}]" if diff else ""))
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
