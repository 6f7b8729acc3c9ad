"""In-process A/B of two snsm source trees on the beta_sweep configuration.

    python tools/ab_inprocess.py OLD_TREE NEW_TREE [--pairs 20]

Each tree is a checkout holding ``src/snsm``. Both are loaded into one
interpreter, as the packages ``snsm_old`` and ``snsm_new``, and each pair
times one ``harness.sweep_beta`` call per tree at the configuration of the
benchmark's ``beta_sweep`` workload (``perfbench/workloads.py``), on the
pair's own seeds; odd pairs run the new tree first. A tree whose sweep runs
its betas in forked processes is timed with the forks and the wait for
them included, as the CLI pays for them. The script asserts that
both trees return the same sweep rows, then prints each side's median time,
the median of the per-pair ratios new/old and the pairs the new tree won.
Exit status 1 when the rows differ.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from dataclasses import astuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

BETAS = workloads.SWEEP_BETAS
D = workloads.SWEEP_D
SUBSET = workloads.SWEEP_SUBSET
T = workloads.SWEEP_T
N_SEEDS = workloads.SWEEP_SEEDS
_ARGV = workloads.calls("beta_sweep", 0)[0][1]
LR = float(_ARGV[_ARGV.index("--lr") + 1])  # no constant: a literal in the command line


def load_tree(tree: Path, name: str):
    """``tree/src/snsm`` imported as the package ``name``; its harness module."""
    pkg = tree / "src" / "snsm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no snsm package under {tree}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def timed_sweep(harness, seed_base: int):
    seeds = range(seed_base, seed_base + N_SEEDS)
    t0 = time.perf_counter()
    rows = harness.sweep_beta(BETAS, d=D, T=T, seeds=seeds, subset_sizes=[SUBSET],
                              lr=LR)
    return time.perf_counter() - t0, [astuple(r) for r in rows]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old_tree", type=Path)
    p.add_argument("new_tree", type=Path)
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)
    sides = {"old": load_tree(args.old_tree, "snsm_old"),
             "new": load_tree(args.new_tree, "snsm_new")}
    times = {"old": [], "new": []}
    for pair in range(args.pairs):
        order = ("new", "old") if pair % 2 else ("old", "new")
        rows = {}
        for side in order:
            seconds, rows[side] = timed_sweep(sides[side], pair * N_SEEDS)
            times[side].append(seconds)
        if rows["old"] != rows["new"]:
            print(f"pair {pair}: sweep rows differ", file=sys.stderr)
            return 1
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"old median {statistics.median(times['old']):.4f} s, "
          f"new median {statistics.median(times['new']):.4f} s")
    print(f"median ratio new/old {statistics.median(ratios):.3f}, "
          f"new wins {wins}/{args.pairs}; rows identical in every pair")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
