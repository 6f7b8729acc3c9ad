"""Run header: what a number depends on, so results compare across commits."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _git_commit(root: Path) -> str:
    """HEAD of ``root/.git`` read directly; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # the loaded OpenBLAS reports its own thread count (what threadpoolctl reads)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return dict(name=info.get("name"), version=info.get("version"), threads=threads)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def run_header(root: Path) -> dict:
    import snsm
    from snsm import kernels
    return dict(
        snsm_version=snsm.__version__, git_commit=_git_commit(root),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(), numpy=np.__version__,
        blas=_blas(), kernels_backend=kernels.BACKEND,
        cpu=_cpu_model(), caches=_caches())
