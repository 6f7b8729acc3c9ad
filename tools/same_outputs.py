"""Check that two snsm source trees print the same for a fixed list of commands.

    python tools/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/snsm``. Every command runs as
``python -m snsm.cli ARGS`` in a fresh interpreter, with
``PYTHONPATH=TREE/src`` and the tree as working directory, once per tree.
The script prints one line per command and names what differs: stdout,
stderr or the exit code, next to the new tree's exit code. Exit status 1
when any command differs, 2 on a usage error.

The list holds the command lines of one pass of each benchmark workload
(``perfbench/workloads.py``, seed 3) and commands that reach the other
paths of the entry points: MLP2 runs (Adam-family, SM and GaLore rows over
its two parameter tensors), the Thm-2 Monte-Carlo check, a three-beta
sweep, a four-beta sweep in unsorted order (its betas run in uneven shares
across processes, and the rows must come back in beta order), a sweep
with an empty beta list, a diverging run, sparse noise under GaLore, a seed beyond one
entropy word, the ``norm`` rule's state count in ``train`` and ``mem``, the
``equip`` rule on MLP2 (W2 falls back to coordinate-wise subsets), a subset
size without the ``equip`` rule, a one-element tensor's count, the Thm-3
bound and the rate table.
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
    ("sweep-no-beta", ["sweep", "--betas", ""]),
    ("sgd-diverges", ["train", "--preset", "SGD", "--lr", "10", "--d", "10",
                      "--T", "400", "--sigma", "0.1"]),
    ("galore-beta-0.5", ["train", "--preset", "GaLore", "--d", "256",
                         "--param-shape", "16x16", "--noise-beta", "0.5",
                         "--rank", "4", "--refresh-gap", "20", "--T", "100",
                         "--lr", "0.01", "--n-seeds", "2"]),
    ("seed-base-2**32", ["train", "--preset", "Adam", "--d", "16", "--T", "30",
                         "--sigma", "0.5", "--n-seeds", "2",
                         "--seed-base", "4294967296"]),
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
    ("rates", ["rates", "--beta", "0.5"]),
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
