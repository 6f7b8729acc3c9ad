"""Partitions of coordinate indices into the groups that share one step size.

A partition is described by its shape alone: ``d`` coordinates in subsets of
``k``. Rows-style partitions take consecutive blocks of ``k`` (the last one
may be shorter); a ``columns`` partition views the flat coordinates
row-major as a ``k x (d/k)`` matrix and takes each column as one subset.
No per-coordinate label array is kept.

A rule, one of ``RULES``, names how a parameter's shape is partitioned:
:func:`check_rule` checks it when a spec is built, :func:`build` applies it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels

RULES = ("heuristic2d", "equip", "norm", "coord")


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


def check_rule(rule: str, subset_size: int | None) -> None:
    """Reject an unknown rule, and a subset size the rule does not read:
    ``equip`` needs one >= 1, the other rules take none."""
    if rule not in RULES:
        raise ValueError(f"unknown partition rule {rule!r}; "
                         f"choose from {', '.join(RULES)}")
    if rule == "equip" and subset_size is None:
        raise ValueError("equip rule requires subset_size")
    if rule != "equip" and subset_size is not None:
        raise ValueError(f"the {rule} partition rule takes no subset_size, "
                         f"got {subset_size}")
    if subset_size is not None and subset_size < 1:
        raise ValueError(f"subset size must be >= 1, got {subset_size}")


def build(rule: str, subset_size: int | None, shape: tuple) -> Partition:
    """The partition of ``shape`` under a rule that passed :func:`check_rule`.

    ``heuristic2d`` makes each row of an m x n matrix a subset when m >= n,
    else each column, and cuts any other shape into blocks of about
    sqrt(d)/2, the last one possibly shorter; ``equip`` cuts blocks of
    ``subset_size``, which must divide d; ``norm`` is one subset
    (AdaGrad-Norm) and ``coord`` one per coordinate (AdaGrad).
    """
    d = math.prod(shape)
    if rule == "heuristic2d":
        if len(shape) == 2:
            m, n = shape
            return Partition(d, min(m, n), columns=m < n)
        return Partition(d, max(1, round(math.sqrt(d) / 2)))
    if rule == "equip":
        if d % subset_size != 0:
            raise ValueError(f"subset size k={subset_size} does not divide d={d}")
        return Partition(d, subset_size)
    if rule == "norm":
        return Partition(d, d)
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
