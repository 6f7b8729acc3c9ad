"""Subset-norm step sizes: the two accumulation rules and the state that runs them.

A rule's type says how per-subset squared gradient norms accumulate:
:class:`AdaGradSubsetNorm` sums them (b^2 += ||g_subset||^2, starting from
b0^2), :class:`EMASubsetNorm` keeps their exponential moving average
(v <- beta2 v + (1-beta2) ||g_subset||^2), divided by 1 - beta2^t when
read, as Adam's bias correction does. Every coordinate of a subset
divides by the same denominator. The accumulators of S replicas that step in
lockstep are one ``(S, c)`` array.

A rule checks its values when it is built, so every denominator is > 0:
at least b0 under AdaGrad and at least eps under the EMA rule; its
partition rule is checked and applied by :mod:`snsm.partition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import Partition, check_rule
from .subspace import check_beta, check_eps


@dataclass(frozen=True)
class EMASubsetNorm:
    partition_rule: str = "heuristic2d"  # heuristic2d | equip | norm | coord
    subset_size: int | None = None  # for the equip rule
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_rule(self.partition_rule, self.subset_size)
        check_beta("beta2", self.beta2)
        check_eps(self.eps)


@dataclass(frozen=True)
class AdaGradSubsetNorm:
    partition_rule: str = "heuristic2d"
    subset_size: int | None = None
    b0: float = 1e-6

    def __post_init__(self):
        check_rule(self.partition_rule, self.subset_size)
        if not self.b0 > 0:
            raise ValueError("AdaGrad subset norm requires b0 > 0")
        # the accumulator starts at b0**2, the first denominator's square
        if not 0 < self.b0 * self.b0 < math.inf:
            raise ValueError(f"AdaGrad subset norm requires a finite b0 with "
                             f"b0**2 > 0, got {self.b0}")


@dataclass
class SubsetNormState:
    rule: EMASubsetNorm | AdaGradSubsetNorm
    acc: np.ndarray  # (c,) or (S, c) accumulated squared norms
    step: int = 0


def sn_init(rule: EMASubsetNorm | AdaGradSubsetNorm, partition: Partition,
            replicas: tuple = ()) -> SubsetNormState:
    """Accumulators of shape ``replicas + (c,)``."""
    shape = tuple(replicas) + (partition.c,)
    if isinstance(rule, AdaGradSubsetNorm):
        acc = np.full(shape, rule.b0 ** 2)
    else:
        acc = np.zeros(shape)
    return SubsetNormState(rule=rule, acc=acc)


def sn_accumulate(state: SubsetNormState, sqnorms: np.ndarray) -> SubsetNormState:
    """Fold one step's per-subset squared norms into ``state.acc`` in place."""
    sqnorms = np.asarray(sqnorms, dtype=np.float64)
    if sqnorms.shape != state.acc.shape:
        raise ValueError("sqnorms length must equal the subset count")
    if sqnorms.min() < 0:
        raise ValueError("negative squared norm: upstream corruption")
    rule = state.rule
    if isinstance(rule, AdaGradSubsetNorm):
        state.acc += sqnorms
    else:
        state.acc *= rule.beta2
        state.acc += (1.0 - rule.beta2) * sqnorms
    state.step += 1
    return state


def sn_denominators(state: SubsetNormState) -> np.ndarray:
    """The denominator of each subset, a new array; the EMA rule's is
    bias-corrected, square-rooted and floored by eps in that one array."""
    rule = state.rule
    if isinstance(rule, AdaGradSubsetNorm):
        return np.sqrt(state.acc)
    if state.step > 0:
        v = state.acc / (1.0 - rule.beta2 ** state.step)
    else:
        v = state.acc.copy()
    np.sqrt(v, out=v)
    v += rule.eps
    return v
