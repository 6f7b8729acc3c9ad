"""The benchmark's tracer wraps snsm functions by name; a rename must fail here,
not in a traced benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
spans.install(spans.Tracer(0))
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


def test_tracer_installs_on_current_names():
    # a subprocess, because install() rewrites the snsm module namespaces
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
