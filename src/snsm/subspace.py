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

from dataclasses import dataclass

import numpy as np

from .linalg import Frame, FrameKind, lift, make_frame, project


def _check_refresh_gap(gap: int) -> None:
    # 0 already means a fixed subspace; a negative gap is not a second spelling
    if gap < 0:
        raise ValueError(f"refresh_gap must be >= 0, got {gap}")


def check_beta(name: str, beta: float) -> None:
    """Reject an EMA factor outside [0, 1): at 1 the average never moves
    (and a bias correction divides by zero), above it grows without bound."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {beta}")


@dataclass(frozen=True)
class SubspaceMomentum:
    frame_kind: FrameKind = FrameKind.SVD
    rank: int = 4
    refresh_gap: int = 200  # 0 = fixed subspace, never refresh
    beta1: float = 0.9
    dampening: bool = True

    def __post_init__(self):
        _check_refresh_gap(self.refresh_gap)
        check_beta("beta1", self.beta1)


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
        _check_refresh_gap(self.refresh_gap)
        check_beta("beta1", self.beta1)
        check_beta("beta2", self.beta2)


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


def _buffer_shape(frame: Frame, n: int, reference_grad) -> tuple:
    replicas = () if reference_grad is None else np.shape(reference_grad)[:-2]
    return replicas + (frame.rank, n)


def sm_init(rule: SubspaceMomentum, m: int, n: int, seed: int = 0,
            reference_grad: np.ndarray | None = None) -> SubspaceMomentumState:
    frame = make_frame(rule.frame_kind, m, rule.rank, seed=seed,
                       reference_grad=reference_grad)
    shape = _buffer_shape(frame, n, reference_grad)
    return SubspaceMomentumState(rule=rule, frame=frame, m_buf=np.zeros(shape),
                                 seed=seed)


def galore_init(rule: GaloreMomentum, m: int, n: int, seed: int = 0,
                reference_grad: np.ndarray | None = None) -> GaloreState:
    frame = make_frame(rule.frame_kind, m, rule.rank, seed=seed,
                       reference_grad=reference_grad)
    shape = _buffer_shape(frame, n, reference_grad)
    return GaloreState(rule=rule, frame=frame, m_buf=np.zeros(shape),
                       v_buf=np.zeros(shape), seed=seed)


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

    By linearity of the lift this is G + lift(m' - c), one lift per step.
    """
    G = np.asarray(G, dtype=np.float64)
    rule = state.rule
    c = project(state.frame, G)
    scale = (1.0 - rule.beta1) if rule.dampening else 1.0
    state.m_buf = rule.beta1 * state.m_buf + scale * c
    return G + lift(state.frame, state.m_buf - c)


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
    state.m_buf = rule.beta1 * state.m_buf + (1.0 - rule.beta1) * c
    state.v_buf = rule.beta2 * state.v_buf + (1.0 - rule.beta2) * c * c
    state.step += 1
    m_hat = state.m_buf / (1.0 - rule.beta1 ** state.step)
    v_hat = state.v_buf / (1.0 - rule.beta2 ** state.step)
    return lift(state.frame, m_hat / (np.sqrt(v_hat) + rule.eps))


def galore_maybe_refresh(state: GaloreState, G: np.ndarray, t: int) -> bool:
    """Switch the subspace but keep the accumulated statistics."""
    return _refresh(state, G, t)
