"""In-process A/B of two snsm source trees on a benchmark workload's calls.

    python tools/ab_inprocess.py OLD_TREE NEW_TREE [--workload beta_sweep]
                                 [--pairs 20] [--fresh]

Each tree is a checkout holding ``src/snsm``. For ``beta_sweep`` and
``matrix_train`` both are loaded into one interpreter, as the packages
``snsm_old`` and ``snsm_new``. Each pair runs the workload once per tree on
the pair's own seeds; odd pairs run the new tree first.

``beta_sweep`` times one ``harness.sweep_beta`` call per tree at the
configuration of the benchmark's ``beta_sweep`` workload
(``perfbench/workloads.py``). A tree whose sweep runs its betas in forked
processes is timed with the forks and the wait for them included, as the
CLI pays for them. It then times a sweep of each beta alone, which runs
that beta's one ``harness.run_rows`` call in this process, so the beta
that sets the sweep's wall time shows even where a forked child runs it.
Per pair it prints each side's sweep time minus its slowest beta alone: the
cost of the fork, the copy-on-write faults and the two processes contending,
which no change to the lockstep loop reaches. The script asserts that both
trees return the same sweep rows, then prints, per call, each side's median
time, the median and quartiles of the per-pair ratios new/old and the pairs
the new tree won, and the median of each side's fork gap.

``matrix_train`` times each ``snsm train`` call of one ``matrix_train``
pass (``workloads.calls``, seed = pair) through ``cli.main``, the two trees
interleaved call by call, and asserts that both print the same stdout and
stderr. Before each call it runs the workload's calibration loop, untimed,
so that each call starts right after multi-threaded BLAS work, as in a
benchmark pass (``perfbench/worker.py`` runs it after each call). It prints
the same figures per call and for the pass, the sum of its calls. With
``--fresh`` it runs each pass in a fresh interpreter per
side and pair instead, as ``mem_manifest`` does (below), with the
benchmark's calibration loop where ``perfbench/worker.py`` runs it (twice
before the first call, once after each), so that the heap, and the peak
RSS read after each call, follow a benchmark pass.

``mem_manifest`` runs the ``snsm mem`` calls of one ``mem_manifest`` pass
through ``cli.main`` in a fresh interpreter per side and pair, from the
tree's own directory with ``PYTHONPATH=TREE/src``, because the first call
in a process pays costs (building the argument parser, numpy's first
reductions) that a warm interpreter hides. It times the import of
``snsm.cli``, each call and the pass, the sum of its calls, asserts that
both trees print the same stdout and stderr, and prints the same figures.
It also reads the interpreter's peak RSS (``ru_maxrss``) after each call,
as ``perfbench/worker.py`` reads it after a pass, and prints per call each
side's median and the median of the per-pair differences new - old: the
call whose peak moves is the call that sets a change in a pass's peak.

``svd_frame`` times one ``linalg.make_frame(FrameKind.SVD, 512, 64,
reference_grad=G)`` per tree and pair, the frame of matrix_train's 512x512
parameter at its rank, on a standard normal G drawn from the pair's seed.
OpenBLAS runs at the thread count that a draw-ahead run holds it at (the
usable CPUs less one), as during matrix_train's frame calls. The script
asserts that both trees build the same rows, bit for bit, and prints the
same figures.

Exit status 1 when the outputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import calibrate  # noqa: E402
import workloads  # noqa: E402

BETAS = workloads.SWEEP_BETAS
D = workloads.SWEEP_D
SUBSET = workloads.SWEEP_SUBSET
T = workloads.SWEEP_T
N_SEEDS = workloads.SWEEP_SEEDS
_ARGV = workloads.calls("beta_sweep", 0)[0][1]
LR = float(_ARGV[_ARGV.index("--lr") + 1])  # no constant: a literal in the command line


def load_tree(tree: Path, name: str, module: str):
    """``tree/src/snsm`` imported as the package ``name``; its ``module``."""
    pkg = tree / "src" / "snsm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no snsm package under {tree}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.{module}")


def timed_sweep(harness, pair: int, betas=BETAS):
    seeds = range(pair * N_SEEDS, (pair + 1) * N_SEEDS)
    t0 = time.perf_counter()
    rows = harness.sweep_beta(betas, d=D, T=T, seeds=seeds, subset_sizes=[SUBSET],
                              lr=LR)
    return time.perf_counter() - t0, [astuple(r) for r in rows]


SVD_M, SVD_K = 512, 64  # matrix_train's parameter rows and frame rank


def timed_svd_frame(linalg, G):
    """(seconds, rows as bytes) of one "svd" frame of G."""
    t0 = time.perf_counter()
    rows = linalg.make_frame(linalg.FrameKind.SVD, SVD_M, SVD_K, reference_grad=G).rows
    return time.perf_counter() - t0, rows.tobytes()


@contextlib.contextmanager
def held_openblas(parallel):
    """OpenBLAS at the thread count a draw-ahead run holds it at, if any."""
    calls = parallel._openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls[:2]  # a tree from before the park returns (get, set)
    before = get()
    set_(max(1, min(before, parallel._usable_cpus() - 1)))
    try:
        yield
    finally:
        set_(before)


def timed_call(cli, argv: list):
    """(seconds, (stdout, stderr)) of ``snsm ARGV`` run through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    if rc:
        raise SystemExit(f"snsm {' '.join(argv)} exited {rc}")
    return seconds, (out.getvalue(), err.getvalue())


# one pass in a fresh interpreter; prints its times, peak RSS after each
# call (MB) and outputs. With a calibration loop, it runs the loop where
# perfbench/worker.py does: twice before the first call and once after each.
_FRESH_PASS = """\
import json, resource, sys, time
sys.path.insert(0, {tools!r})
import ab_inprocess as ab
t0 = time.perf_counter()
from snsm import cli
times, outputs = {{"import snsm.cli": time.perf_counter() - t0, "pass": 0.0}}, []
rss = {{}}
loop = lambda: None
if {calibrate!r}:
    import calibrate
    loop = calibrate.LOOPS[{workload!r}]
    loop()
    loop()
for label, argv in ab.workloads.calls({workload!r}, {pair}):
    times[label], output = ab.timed_call(cli, argv)
    times["pass"] += times[label]
    rss[label] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs.append(output)
    loop()
print(json.dumps(dict(times=times, rss=rss, outputs=outputs)))
"""


def fresh_pass(tree: Path, workload: str, pair: int) -> dict:
    """``{"times", "rss", "outputs"}`` of one pass of ``workload`` run from
    ``tree`` in a new interpreter; a matrix_train pass runs the calibration
    loop as a benchmark pass does, which sets the heap its peak RSS reads."""
    code = _FRESH_PASS.format(tools=str(Path(__file__).resolve().parent),
                              workload=workload, pair=pair,
                              calibrate=workload == "matrix_train")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    if proc.returncode:
        raise SystemExit(f"{workload} pass from {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _report(label: str, times: dict) -> None:
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    wins = sum(r < 1.0 for r in ratios)
    spread = ""
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        spread = f" (quartiles {q1:.3f}-{q3:.3f})"
    print(f"{label}: old median {statistics.median(times['old']):.4f} s, "
          f"new median {statistics.median(times['new']):.4f} s, "
          f"median ratio new/old {statistics.median(ratios):.3f}{spread}, "
          f"new wins {wins}/{len(ratios)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old_tree", type=Path)
    p.add_argument("new_tree", type=Path)
    p.add_argument("--workload", choices=("beta_sweep", "matrix_train", "mem_manifest",
                                          "svd_frame"),
                   default="beta_sweep")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--fresh", action="store_true",
                   help="matrix_train: one fresh interpreter per pass and side, "
                        "with the peak RSS after each call")
    args = p.parse_args(argv)
    fresh = args.workload == "mem_manifest" or (args.fresh and
                                                 args.workload == "matrix_train")
    if fresh:
        sides = {"old": args.old_tree.resolve(), "new": args.new_tree.resolve()}
    else:
        module = {"beta_sweep": "harness", "svd_frame": "linalg"}.get(args.workload, "cli")
        sides = {"old": load_tree(args.old_tree, "snsm_old", module),
                 "new": load_tree(args.new_tree, "snsm_new", module)}
    with (held_openblas(sys.modules["snsm_old.parallel"])
          if args.workload == "svd_frame" else contextlib.nullcontext()):
        return _pairs(args, sides, fresh)


def _pairs(args, sides: dict, fresh: bool) -> int:
    """Run and report ``args.pairs`` pairs of ``args.workload``."""
    times = {}  # label -> side -> seconds per pair
    rss = {}  # fresh passes: label -> side -> peak RSS (MB) after the call, per pair
    gaps = {"old": [], "new": []}  # beta_sweep: sweep - slowest beta alone, per pair
    for pair in range(args.pairs):
        order = ("new", "old") if pair % 2 else ("old", "new")
        if fresh:
            passes = {side: fresh_pass(sides[side], args.workload, pair)
                      for side in order}
            if passes["old"]["outputs"] != passes["new"]["outputs"]:
                print(f"pair {pair}: {args.workload} outputs differ", file=sys.stderr)
                return 1
            for side, result in passes.items():
                for label, seconds in result["times"].items():
                    times.setdefault(label, {"old": [], "new": []})[side].append(seconds)
                for label, mb in result["rss"].items():
                    rss.setdefault(label, {"old": [], "new": []})[side].append(mb)
            continue
        if args.workload == "beta_sweep":
            jobs = [("sweep", lambda side: timed_sweep(sides[side], pair))]
            # one beta runs in this process: its run_rows call alone
            jobs += [(f"beta={beta} alone",
                      lambda side, beta=beta: timed_sweep(sides[side], pair, (beta,)))
                     for beta in BETAS]
        elif args.workload == "svd_frame":
            G = np.random.default_rng(pair).standard_normal((SVD_M, SVD_M))
            jobs = [("make_frame svd", lambda side: timed_svd_frame(sides[side], G))]
        else:
            jobs = [(label, lambda side, argv=argv: timed_call(sides[side], argv))
                    for label, argv in workloads.calls("matrix_train", pair)]
        total = {"old": 0.0, "new": 0.0}
        for label, job in jobs:
            outputs = {}
            for side in order:
                if args.workload == "matrix_train":
                    calibrate.LOOPS["matrix_train"]()
                seconds, outputs[side] = job(side)
                times.setdefault(label, {"old": [], "new": []})[side].append(seconds)
                total[side] += seconds
            if outputs["old"] != outputs["new"]:
                print(f"pair {pair}: {label} outputs differ", file=sys.stderr)
                return 1
        if args.workload == "matrix_train":
            for side in total:
                times.setdefault("pass", {"old": [], "new": []})[side].append(total[side])
        elif args.workload == "beta_sweep":
            for side in ("old", "new"):
                gap = times["sweep"][side][-1] - max(
                    times[f"beta={beta} alone"][side][-1] for beta in BETAS)
                gaps[side].append(gap)
            print(f"pair {pair}: sweep - slowest beta alone: "
                  f"old {gaps['old'][-1] * 1e3:.2f} ms, "
                  f"new {gaps['new'][-1] * 1e3:.2f} ms")
    for label, per_side in times.items():
        _report(label, per_side)
    for label, per_side in rss.items():
        diffs = [new - old for old, new in zip(per_side["old"], per_side["new"])]
        print(f"{label}: peak RSS after the call: old median "
              f"{statistics.median(per_side['old']):.2f} MB, new median "
              f"{statistics.median(per_side['new']):.2f} MB, median new - old "
              f"{statistics.median(diffs):+.2f} MB")
    if args.workload == "beta_sweep":
        print(f"fork gap (sweep - slowest beta alone): "
              f"old median {statistics.median(gaps['old']) * 1e3:.2f} ms, "
              f"new median {statistics.median(gaps['new']) * 1e3:.2f} ms")
    print("outputs identical in every pair")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
