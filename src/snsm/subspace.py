"""Subspace-momentum state machine and the GaLore-style comparison baseline.

Momentum lives in U = rowspan(P); the orthogonal residual takes a plain SGD
step, so the overall direction is full rank, and the step costs one project
and one lift.  On a refresh the frame is recomputed and the momentum buffer
is fully reset to zero.  The GaLore baseline instead keeps both compressed
Adam statistics across switches and never leaves U.

Each state holds its rule (:class:`SubspaceMomentum` or
:class:`GaloreMomentum`) next to the arrays the step reads.
``sm_init``/``galore_init`` take the gradient a gradient-based frame kind
(svd, approx_svd, top_k_rows) is built from; the optimizer passes the first
step's gradient, so such a frame follows the gradient from step 1 on.
A reference gradient of shape ``(S, m, n)`` makes the state hold S replicas
that step in lockstep: the frame is stacked and the buffers are ``(S, k, n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Frame, FrameKind, lift, make_frame, project


def check_beta(name: str, beta: float) -> None:
    """Reject an EMA factor outside [0, 1): at 1 the average never moves
    (and a bias correction divides by zero), above it grows without bound."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {beta}")


def check_eps(eps: float) -> None:
    """Reject a denominator floor that is not finite and > 0: at 0 an empty
    accumulator divides by zero."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _check_rule(rule: SubspaceMomentum | GaloreMomentum) -> None:
    """Make ``frame_kind`` a :class:`FrameKind` and check the values every
    subspace rule shares."""
    try:
        kind = FrameKind(rule.frame_kind)
    except ValueError:
        raise ValueError(f"{rule.frame_kind!r} is not a valid FrameKind; "
                         f"choose from {', '.join(FrameKind)}") from None
    object.__setattr__(rule, "frame_kind", kind)
    # 0 already means a fixed subspace; a negative gap is not a second spelling
    if rule.refresh_gap < 0:
        raise ValueError(f"refresh_gap must be >= 0, got {rule.refresh_gap}")
    check_beta("beta1", rule.beta1)


@dataclass(frozen=True)
class SubspaceMomentum:
    frame_kind: FrameKind = FrameKind.SVD
    rank: int = 4
    refresh_gap: int = 200  # 0 = fixed subspace, never refresh
    beta1: float = 0.9

    def __post_init__(self):
        _check_rule(self)


@dataclass(frozen=True)
class GaloreMomentum:
    """Joint compression baseline; subsumes the adaptive component."""

    frame_kind: FrameKind = FrameKind.SVD
    rank: int = 4
    refresh_gap: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        _check_rule(self)
        check_beta("beta2", self.beta2)
        check_eps(self.eps)


@dataclass
class SubspaceMomentumState:
    rule: SubspaceMomentum
    frame: Frame
    m_buf: np.ndarray  # ([S,] rank, n) momentum in projected coordinates
    seed: int  # base of the per-refresh frame seeds


@dataclass
class GaloreState:
    """Joint low-rank Adam statistics confined to U (comparison baseline)."""

    rule: GaloreMomentum
    frame: Frame
    m_buf: np.ndarray  # ([S,] rank, n)
    v_buf: np.ndarray  # ([S,] rank, n)
    seed: int
    step: int = 0


def _first_frame(rule: SubspaceMomentum | GaloreMomentum, m: int, n: int,
                 seed: int, reference_grad) -> tuple[Frame, np.ndarray]:
    """The rule's first frame and a zero ``([S,] rank, n)`` buffer."""
    frame = make_frame(rule.frame_kind, m, rule.rank, seed=seed,
                       reference_grad=reference_grad)
    return frame, np.zeros(np.shape(reference_grad)[:-2] + (frame.rank, n))


def sm_init(rule: SubspaceMomentum, m: int, n: int, seed: int = 0,
            reference_grad: np.ndarray | None = None) -> SubspaceMomentumState:
    frame, m_buf = _first_frame(rule, m, n, seed, reference_grad)
    return SubspaceMomentumState(rule=rule, frame=frame, m_buf=m_buf, seed=seed)


def galore_init(rule: GaloreMomentum, m: int, n: int, seed: int = 0,
                reference_grad: np.ndarray | None = None) -> GaloreState:
    frame, m_buf = _first_frame(rule, m, n, seed, reference_grad)
    return GaloreState(rule=rule, frame=frame, m_buf=m_buf,
                       v_buf=np.zeros(m_buf.shape), seed=seed)


def _refresh(state: SubspaceMomentumState | GaloreState, G: np.ndarray,
             t: int) -> bool:
    """Rebuild the frame at t = gap, 2 gap, ... from a seed of (seed, t)."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    gap = state.rule.refresh_gap
    if gap <= 0 or t % gap != 0:
        return False
    seed = int(np.random.SeedSequence([state.seed, t]).generate_state(1)[0])
    state.frame = make_frame(state.rule.frame_kind, state.frame.ambient_dim,
                             state.frame.rank, seed=seed, reference_grad=G)
    return True


def sm_direction(state: SubspaceMomentumState, G: np.ndarray) -> np.ndarray:
    """One momentum update (in place); returns lift(m') + (G - lift(c)).

    By linearity of the lift this is G + lift(m' - c), one lift per step;
    m' - c is formed in the projection's array and G is added into the
    lift's, so ``G`` is never written.
    """
    G = np.asarray(G, dtype=np.float64)
    rule = state.rule
    c = project(state.frame, G)
    state.m_buf *= rule.beta1
    state.m_buf += (1.0 - rule.beta1) * c
    out = lift(state.frame, np.subtract(state.m_buf, c, out=c))
    out += G
    return out


def sm_maybe_refresh(state: SubspaceMomentumState, G: np.ndarray, t: int) -> bool:
    """Refresh the frame at t = gap, 2 gap, ... and zero the momentum buffer."""
    if not _refresh(state, G, t):
        return False
    state.m_buf = np.zeros(state.m_buf.shape)
    return True


def galore_direction(state: GaloreState, G: np.ndarray) -> np.ndarray:
    G = np.asarray(G, dtype=np.float64)
    rule = state.rule
    c = project(state.frame, G)
    state.m_buf *= rule.beta1
    state.m_buf += (1.0 - rule.beta1) * c
    state.v_buf *= rule.beta2
    state.v_buf += (1.0 - rule.beta2) * c * c
    state.step += 1
    denom = state.v_buf / (1.0 - rule.beta2 ** state.step)  # v_hat
    np.sqrt(denom, out=denom)
    denom += rule.eps
    m_hat = state.m_buf / (1.0 - rule.beta1 ** state.step)
    m_hat /= denom
    return lift(state.frame, m_hat)


def galore_maybe_refresh(state: GaloreState, G: np.ndarray, t: int) -> bool:
    """Switch the subspace but keep the accumulated statistics."""
    return _refresh(state, G, t)
