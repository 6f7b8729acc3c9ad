"""Subset-norm second-moment state: shared step-size denominators per group."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .partition import Partition


class AccumMode(str, Enum):
    CUMULATIVE = "cumulative"  # b^2 += ||g_subset||^2 (AdaGrad style)
    EMA = "ema"  # v^2 <- beta2 v^2 + (1-beta2) ||g_subset||^2


@dataclass
class SubsetNormState:
    partition: Partition
    mode: AccumMode
    acc: np.ndarray  # (c,) accumulated squared norms
    beta2: float = 0.999
    bias_correction: bool = True
    step: int = 0


def sn_init(
    partition: Partition,
    mode: AccumMode | str = AccumMode.CUMULATIVE,
    b0: float | np.ndarray = 1e-6,
    beta2: float = 0.999,
    bias_correction: bool = True,
) -> SubsetNormState:
    mode = AccumMode(mode)
    if mode is AccumMode.CUMULATIVE:
        b0 = np.broadcast_to(np.asarray(b0, dtype=np.float64), (partition.c,)).copy()
        if np.any(b0 <= 0):
            raise ValueError("cumulative mode requires b0 > 0 per subset")
        acc = b0 ** 2
    else:
        if not 0.0 < beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        acc = np.zeros(partition.c)
    return SubsetNormState(partition=partition, mode=mode, acc=acc,
                           beta2=beta2, bias_correction=bias_correction)


def sn_accumulate(state: SubsetNormState, sqnorms: np.ndarray) -> SubsetNormState:
    """Fold one step's per-subset squared norms into ``state.acc`` in place."""
    sqnorms = np.asarray(sqnorms, dtype=np.float64)
    if sqnorms.shape != state.acc.shape:
        raise ValueError("sqnorms length must equal the subset count")
    if sqnorms.min() < 0:
        raise ValueError("negative squared norm: upstream corruption")
    if state.mode is AccumMode.CUMULATIVE:
        state.acc += sqnorms
    else:
        state.acc *= state.beta2
        state.acc += (1.0 - state.beta2) * sqnorms
    state.step += 1
    return state


def sn_denominators(state: SubsetNormState, eps: float = 0.0) -> np.ndarray:
    if state.mode is AccumMode.CUMULATIVE:
        denoms = np.sqrt(state.acc)
    else:
        v = state.acc
        if state.bias_correction and state.step > 0:
            v = v / (1.0 - state.beta2 ** state.step)
        denoms = np.sqrt(v) + eps
    if denoms.min() <= 0:
        raise ZeroDivisionError(
            "zero subset-norm denominator (b0=0 with eps=0?)"
        )
    return denoms
