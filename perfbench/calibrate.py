"""Calibration loops: fixed work that gauges how fast the machine runs now.

The benchmark shares a few vCPUs of a busy host, whose speed for the same
code swings by up to about 2x over tens of seconds. ``worker.py`` times one
of these loops before and after every entry-point call and reports the call
in units of the loop (``wall_ref``), which cancels most of that swing. The
loops belong to the benchmark and import nothing from ``snsm``, so a change
to the program moves ``wall_ref`` and a change of machine speed mostly does
not. Each workload gets a loop of its own kind of work, because host load
slows interpreter-bound, BLAS-bound and LAPACK-bound code by different
amounts. Each loop keeps its arrays small (well under 10 MB) so that it does
not set the process's peak RSS, and takes about 0.1 s.
"""

from __future__ import annotations

import math
import time

import numpy as np


def interp_loop() -> float:
    """Interpreter-bound, as in ``beta_sweep``: per step a fresh seeded generator
    and a few 1024-vector ops, then pure-Python scalar work. Under host load
    this mix slows like the sweep; a loop of vector ops alone slows less."""
    lam = np.linspace(0.1, 1.0, 1024)
    x = np.ones(1024)
    acc = 0.0
    for t in range(2000):
        rng = np.random.default_rng(np.random.SeedSequence([0, t]))
        g = lam * x + 0.1 * rng.standard_normal(1024)
        acc += float(g @ g)
        x = x - 0.01 * g / math.sqrt(acc)
    table = {}
    for i in range(360000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    return acc


def blas_loop() -> float:
    """BLAS- and LAPACK-bound on 512x512, as in ``matrix_train``: SVD frames, rank-64 projections."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    u = np.linalg.svd(a, full_matrices=False)[0][:, :64]
    for _ in range(5):
        g = rng.standard_normal((512, 512))
        a = 0.9 * a + 0.1 * (u @ (u.T @ g))
    return float(a[0, 0])


def tall_svd_loop() -> float:
    """LAPACK-bound, as in ``mem_manifest``: thin SVD of a tall matrix."""
    a = np.random.default_rng(0).standard_normal((2048, 256))
    return float(np.linalg.svd(a, full_matrices=False)[1][0])


LOOPS = {"beta_sweep": interp_loop, "matrix_train": blas_loop,
         "mem_manifest": tall_svd_loop}


def timed(loop) -> float:
    """Seconds one run of ``loop`` takes."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0
