"""Benchmark of the snsm entry points users run.

    python3 perfbench/run.py --workload beta_sweep --seed 0 --seconds 20 --trace 0

Workloads (their reasons are in BENCHMARK.json): ``beta_sweep`` runs
``snsm sweep``, ``matrix_train`` runs ``snsm train`` for five presets on one
512x512 parameter, ``mem_manifest`` runs ``snsm mem`` on the LLaMA-60M
manifest for four presets. The loop is closed: one caller, one process at a
time. Each pass runs in a fresh interpreter (``worker.py``) so that set-up
time and peak RSS are its own; a new pass starts while a typical pass still
ends within ``--seconds``, and at least three (four traced) run.

``--trace 0`` reports the end-to-end metrics, as medians over passes:
``wall_ref``, the time of the entry-point calls in units of the workload's
calibration loop (``calibrate.py``), which the host's swings in speed move
far less than the wall time in seconds (also printed, in the detail line);
``setup_s``; and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; spans go to ``.perfbench_out/spans``.

Output: a run-header line, a detail line with the raw samples, and as the
last line ``{"correct", "attempted", "failed", "metrics"}``. Exit status:
0 correct, 1 an op or check failed, 2 the checkout lacks the program,
3 a pass crashed or overran, 4 a checker failed its self-test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must exit within 180 s
CLOSURE_TOL = 0.02  # traced self times must sum to the traced wall time within 2%


def _die(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q / 100.0 * len(ordered) + 0.5) - 1))]


def _layer_metrics(untraced, traced) -> dict:
    """Per-layer metrics: per pass, the low median over traced passes."""
    out = {}
    for key in traced[0]["layers"]:
        if key != "step_ms":
            out[key] = statistics.median_low(p["layers"][key] for p in traced)
    step_ms = [ms for p in traced for ms in p["layers"]["step_ms"]]
    out["optim.Optimizer.step.ms_p50"] = _percentile(step_ms, 50) if step_ms else 0.0
    out["optim.Optimizer.step.ms_p99"] = _percentile(step_ms, 99) if step_ms else 0.0
    out["optim.Optimizer.step.ms_samples"] = len(step_ms)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_ref"] for p in traced)
        / statistics.median(p["wall_ref"] for p in untraced) - 1.0)
    out["trace.attributed_frac"] = statistics.median(
        p["layers"]["trace.attributed_s"] / p["wall_s"] for p in traced)
    del out["trace.attributed_s"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        return _die(2, "--seed must be >= 0")
    t_launch = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    manifest = ROOT / workloads.MEM_MANIFEST
    if not (ROOT / "src" / "snsm" / "__init__.py").is_file() or not manifest.is_file():
        return _die(2, f"no snsm sources or {workloads.MEM_MANIFEST} under {ROOT}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    selftest = workloads.self_test(workloads.read_manifest(manifest))
    broken = {k: v for k, v in selftest.items() if v[0] != v[1]}
    if broken:
        return _die(4, f"checker self-test failed (counted, expected): {broken}")

    spans_dir = ROOT / ".perfbench_out" / "spans"
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob(f"{args.workload}-*.npz"):
            old.unlink()

    passes, pass_s = [], []
    min_passes = 4 if args.trace else 3
    t0 = time.perf_counter()
    # a pass starts only if a typical pass still ends within --seconds
    while (len(passes) < min_passes or time.perf_counter() - t0
           + statistics.median(pass_s) <= args.seconds):
        run_id = len(passes)
        t_pass = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--run-id", str(run_id)]
        if args.trace and run_id % 2 == 1:
            cmd += ["--spans", str(spans_dir / f"{args.workload}-seed{args.seed}-{run_id}.npz")]
        budget = DEADLINE_S - (time.perf_counter() - t_launch)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            return _die(3, f"pass {run_id} overran the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            return _die(3, f"pass {run_id} crashed:\n{proc.stderr[-4000:]}")
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        pass_s.append(time.perf_counter() - t_pass)

    untraced = [q for q in passes if not q["traced"]]
    traced = [q for q in passes if q["traced"]]
    attempted = sum(q["ops"] for q in passes)
    failed = sum(q["failed_ops"] for q in passes)
    steps = workloads.steps_per_pass(args.workload)
    detail = {
        "passes": len(passes), "traced_passes": len(traced),
        "ops_per_pass": workloads.ops_per_pass(args.workload),
        "steps_per_pass": steps,
        "wall_s": statistics.median(q["wall_s"] for q in untraced),
        "steps_per_s": (statistics.median(steps / q["wall_s"] for q in untraced)
                        if steps else None),
        "samples": {k: [q[k] for q in untraced]
                    for k in ("wall_s", "wall_ref", "peak_rss_mb")},
        "setup_s_samples": [q["setup_s"] for q in passes],
        "failures": [f for q in passes for f in q["failures"]],
    }
    closure_ok = True
    if args.trace:
        computed = _layer_metrics(untraced, traced)
        off = [abs(q["layers"]["trace.attributed_s"] / q["wall_s"] - 1.0) for q in traced]
        closure_ok = max(off) <= CLOSURE_TOL
        detail["closure"] = dict(tolerance=CLOSURE_TOL, max_offset=max(off), ok=closure_ok)
    else:
        computed = {
            "setup_s": statistics.median(q["setup_s"] for q in passes),
            "wall_ref": statistics.median(q["wall_ref"] for q in untraced),
            "peak_rss_mb": statistics.median(q["peak_rss_mb"] for q in untraced),
        }
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        return _die(3, f"metrics not computed: {missing}")

    header = dict(passes[0]["header"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  checker_selftest={k: v[0] for k, v in selftest.items()})
    print(json.dumps({"header": header}))
    print(json.dumps({"detail": detail}))
    correct = failed == 0 and closure_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
