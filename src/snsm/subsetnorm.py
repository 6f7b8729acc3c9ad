"""Subset-norm step sizes: the two accumulation rules and the state that runs them.

A rule's type says how per-subset squared gradient norms accumulate:
:class:`AdaGradSubsetNorm` sums them (b^2 += ||g_subset||^2, starting from
b0^2), :class:`EMASubsetNorm` keeps their exponential moving average
(v <- beta2 v + (1-beta2) ||g_subset||^2). Every coordinate of a subset
divides by the same denominator. The accumulators of S replicas that step in
lockstep are one ``(S, c)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Partition


@dataclass(frozen=True)
class EMASubsetNorm:
    partition_rule: str = "heuristic2d"  # heuristic2d | equip | norm | coord
    subset_size: int | None = None  # for the equip rule
    beta2: float = 0.999
    eps: float = 1e-8
    bias_correction: bool = True

    def __post_init__(self):
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")


@dataclass(frozen=True)
class AdaGradSubsetNorm:
    partition_rule: str = "heuristic2d"
    subset_size: int | None = None
    b0: float = 1e-6

    def __post_init__(self):
        if not self.b0 > 0:
            raise ValueError("AdaGrad subset norm requires b0 > 0")


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
    rule = state.rule
    if isinstance(rule, AdaGradSubsetNorm):
        denoms = np.sqrt(state.acc)
    else:
        v = state.acc
        if rule.bias_correction and state.step > 0:
            v = v / (1.0 - rule.beta2 ** state.step)
        denoms = np.sqrt(v) + rule.eps
    if denoms.min() <= 0:
        raise ZeroDivisionError(
            "zero subset-norm denominator (eps=0, or b0**2 underflowed?)"
        )
    return denoms
