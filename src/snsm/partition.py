"""Partitions of coordinate indices into the groups that share one step size.

A partition is described by its shape alone: ``d`` coordinates in subsets of
``k``. Rows-style partitions take consecutive blocks of ``k`` (the last one
may be shorter); a ``columns`` partition views the flat coordinates
row-major as a ``k x (d/k)`` matrix and takes each column as one subset.
No per-coordinate label array is kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class Partition:
    """Total assignment of d coordinates to c disjoint, non-empty subsets."""

    d: int
    k: int  # subset size (the last block of a ragged partition may be smaller)
    columns: bool = False

    def __post_init__(self):
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "columns", bool(self.columns))
        if self.d < 1:
            raise ValueError("a partition needs d >= 1 coordinates")
        if not 1 <= self.k <= self.d:
            raise ValueError(f"subset size k={self.k} out of range [1, d={self.d}]")
        if self.columns and self.d % self.k != 0:
            raise ValueError(f"column height k={self.k} does not divide d={self.d}")

    @property
    def c(self) -> int:
        """Number of subsets."""
        return -(-self.d // self.k)


def equipartition(d: int, k: int) -> Partition:
    """Consecutive blocks of size k; requires k | d."""
    if k < 1:
        raise ValueError("subset size k must be >= 1")
    if d % k != 0:
        raise ValueError(f"subset size k={k} does not divide d={d}")
    return Partition(d, k)


def ragged_equipartition(d: int, k: int) -> Partition:
    """Consecutive blocks of size k; the last block may be smaller."""
    if k < 1:
        raise ValueError("subset size k must be >= 1")
    return Partition(d, min(k, d))


def sqrt_heuristic(d: int) -> Partition:
    """Subset size ~ sqrt(d)/2 for arbitrary 1D parameters (ragged)."""
    k = max(1, round(math.sqrt(d) / 2))
    return ragged_equipartition(d, k)


def heuristic_2d(m: int, n: int) -> Partition:
    """Group an m x n parameter (row-major) along its smaller dimension.

    For m >= n each row is a subset (state size m); otherwise each column is
    one (state size n).  Ties go to rows.
    """
    if m < 1 or n < 1:
        raise ValueError("shape dimensions must be positive")
    if m >= n:
        return Partition(m * n, n)
    return Partition(m * n, m, columns=True)


def singleton(d: int) -> Partition:
    """One subset for everything — the AdaGrad-Norm grouping (c=1)."""
    return Partition(d, d)


def coordinatewise(d: int) -> Partition:
    """Every coordinate its own subset — the AdaGrad-Coordinate grouping (c=d)."""
    return Partition(d, 1)


def subset_sqnorms(p: Partition, g: np.ndarray) -> np.ndarray:
    """Per-subset squared gradient norms: out[..., i] = sum_{j in subset i} g[..., j]^2.

    ``g`` is ``(d,)`` or ``(S, d)``, one row per replica.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[-1] != p.d:
        raise ValueError(f"gradient length {g.shape[-1]} != partition d={p.d}")
    return kernels.segment_sqnorms(g, p.k, p.columns)


def subset_divide(p: Partition, a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Divide each coordinate of ``a`` (``(..., d)``) by its subset's entry
    of ``values`` (``(..., c)``), in place; returns ``a``.

    The division runs on a ``(c, k)`` view of the coordinates (rows) or a
    ``(k, c)`` view (columns), so no d-long array of per-coordinate values is
    built; the shorter last block of a ragged partition is divided on its own.
    Each view splits only the last axis, so it is a view of ``a`` whatever
    its strides.
    """
    if p.k == 1:
        a /= values
        return a
    lead = a.shape[:-1]
    if p.columns:
        view = a.reshape(lead + (p.k, p.c))
        view /= values[..., None, :]
        return a
    full = p.d - p.d % p.k
    view = a[..., :full].reshape(lead + (-1, p.k))
    view /= values[..., :full // p.k, None]
    if full < p.d:
        a[..., full:] /= values[..., -1:]
    return a
