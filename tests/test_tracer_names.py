"""The benchmark's tracer wraps snsm functions by name; a rename, or a call
that routes around a wrapped namespace, must fail here, not in a traced
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer(0)
spans.install(tracer)
from snsm import kernels, optim, partition, subsetnorm, subspace
for owner, name in ((optim, "sm_init"), (optim, "galore_init"),
                    (optim, "_build_partition"), (optim, "sm_direction"),
                    (subspace, "make_frame"), (subspace, "project"),
                    (subspace, "lift"), (subsetnorm, "sn_accumulate"),
                    (subsetnorm, "sn_denominators"),
                    (partition, "subset_sqnorms"),
                    (kernels, "segment_sqnorms")):
    assert getattr(owner, name).__wrapped__ is not None, name
"""

STEPS = """
import numpy as np
rng = np.random.default_rng(0)
for preset, shape in (("AdamSNSM", (8, 6)), ("GaLore", (6, 8)),
                      ("AdaGradNorm", (12,))):
    spec = optim.make_preset(preset, rank=2, refresh_gap=2)
    opt = optim.Optimizer(spec, [shape])
    x = np.zeros(shape)
    for t in range(1, 5):
        x = opt.step([x], [rng.standard_normal(shape)], t)[0]
calls = {{}}
for i in tracer.name_id:
    calls[tracer.names[i]] = calls.get(tracer.names[i], 0) + 1
missing = [name for name in {spans!r} if not calls.get(name)]
if not any(name.startswith("linalg.make_frame.") for name in calls):
    missing.append("linalg.make_frame.*")
assert not missing, (missing, sorted(calls))
"""

SPANS = ("subspace.init", "subspace.sm_direction", "subspace.galore_direction",
         "subspace.sm_maybe_refresh", "subspace.galore_maybe_refresh",
         "subsetnorm.sn_init", "subsetnorm.sn_accumulate",
         "subsetnorm.sn_denominators", "partition.subset_sqnorms")


def _run(code):
    # a subprocess, because install() rewrites the snsm module namespaces
    code = code.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
                       spans=SPANS)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


def test_tracer_installs_on_current_names():
    proc = _run(INSTALL)
    assert proc.returncode == 0, proc.stderr


def test_traced_steps_record_every_layer():
    proc = _run(INSTALL + STEPS)
    assert proc.returncode == 0, proc.stderr
