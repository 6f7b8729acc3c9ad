"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

Prints one JSON line: set-up time, wall time of the entry-point calls, that
wall time in units of the workload's calibration loop (``calibrate.py``,
timed before and after every call), peak RSS, op counts from the checkers,
the run header and, when traced, the per-layer summary of the spans (which
it also writes to ``--spans``).
Set-up runs from ``import snsm`` through building the command lines; the
objective and the manifest are built by the CLI inside the timed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _call(main, argv):
    """Run ``snsm`` in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a crashed `snsm` process
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-id", type=int, required=True)
    p.add_argument("--spans", default=None, help="trace, and write spans here")
    args = p.parse_args()
    entries = (workloads.read_manifest(ROOT / workloads.MEM_MANIFEST)
               if args.workload == "mem_manifest" else None)
    check = workloads.checker(args.workload, entries)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    from snsm import cli
    calls = workloads.calls(args.workload, args.seed)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.spans:
        import spans
        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)

    import calibrate  # after set-up, so that set-up pays for importing NumPy
    loop = calibrate.LOOPS[args.workload]
    loop()  # warm-up: first-call costs are not the machine's speed
    ref_s = [calibrate.timed(loop)]
    wall_s = wall_ref = 0.0
    failed = []
    ops = 0
    for label, argv in calls:
        rc, out, err, seconds = _call(cli.main, argv)
        ref_s.append(calibrate.timed(loop))
        wall_s += seconds
        wall_ref += seconds / (0.5 * (ref_s[-2] + ref_s[-1]))
        oks = check(label, rc, out, err)
        ops += len(oks)
        if not all(oks):
            failed.append(dict(call=label, exit_code=rc, failed_ops=oks.count(False),
                               stderr=err[-2000:]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import header
    result = dict(setup_s=setup_s, wall_s=wall_s, wall_ref=wall_ref,
                  peak_rss_mb=peak_rss_mb, ops=ops,
                  failed_ops=sum(f["failed_ops"] for f in failed), failures=failed,
                  traced=tracer is not None, header=header.run_header(ROOT))
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
