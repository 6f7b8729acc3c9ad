"""Subspace-momentum state machine and the GaLore-style comparison baseline.

Momentum lives in U = rowspan(P); the orthogonal residual takes a plain SGD
step, so the overall direction is full rank, and the step costs one project
and one lift.  On a refresh the frame is recomputed and the momentum buffer
is fully reset to zero.  The GaLore baseline instead keeps both compressed
Adam statistics across switches and never leaves U.

``sm_init``/``galore_init`` take the gradient a gradient-based frame kind
(svd, approx_svd, top_k_rows) is built from; the optimizer passes the first
step's gradient, so such a frame follows the gradient from step 1 on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Frame,
    FrameKind,
    GRADIENT_KINDS,
    lift,
    make_frame,
    project,
)


def _refresh_seed(base_seed: int, t: int) -> int:
    return int(np.random.SeedSequence([base_seed, t]).generate_state(1)[0])


def _build_frame(kind: FrameKind, m: int, rank: int, seed: int,
                 reference_grad: np.ndarray | None) -> Frame:
    if kind in GRADIENT_KINDS:
        return make_frame(kind, m, rank, seed=seed, reference_grad=reference_grad)
    return make_frame(kind, m, rank, seed=seed)


@dataclass
class SubspaceMomentumState:
    frame: Frame
    m_buf: np.ndarray  # (rank, n) momentum in projected coordinates
    beta1: float
    refresh_gap: int  # 0 = fixed subspace, never refresh
    frame_kind: FrameKind
    base_seed: int
    dampening: bool = True
    steps_since_refresh: int = 0


def sm_init(
    frame_kind: FrameKind | str,
    m: int,
    n: int,
    rank: int,
    beta1: float = 0.9,
    refresh_gap: int = 0,
    seed: int = 0,
    reference_grad: np.ndarray | None = None,
    dampening: bool = True,
) -> SubspaceMomentumState:
    frame_kind = FrameKind(frame_kind)
    frame = _build_frame(frame_kind, m, rank, seed, reference_grad)
    return SubspaceMomentumState(
        frame=frame, m_buf=np.zeros((frame.rank, n)), beta1=beta1,
        refresh_gap=refresh_gap, frame_kind=frame_kind, base_seed=seed,
        dampening=dampening,
    )


def sm_direction(state: SubspaceMomentumState, G: np.ndarray) -> np.ndarray:
    """One momentum update (in place); returns lift(m') + (G - lift(c)).

    By linearity of the lift this is G + lift(m' - c), one lift per step.
    """
    G = np.asarray(G, dtype=np.float64)
    c = project(state.frame, G)
    scale = (1.0 - state.beta1) if state.dampening else 1.0
    state.m_buf = state.beta1 * state.m_buf + scale * c
    if state.frame.rank == 0:
        return G.copy()
    return G + lift(state.frame, state.m_buf - c)


def sm_maybe_refresh(state: SubspaceMomentumState, G: np.ndarray, t: int) -> bool:
    """Refresh the frame at t = G, 2G, ... and zero the momentum buffer."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    if state.refresh_gap <= 0 or t % state.refresh_gap != 0:
        state.steps_since_refresh += 1
        return False
    m = state.frame.ambient_dim
    seed = _refresh_seed(state.base_seed, t)
    state.frame = _build_frame(state.frame_kind, m, state.frame.rank, seed, G)
    state.m_buf = np.zeros((state.frame.rank, state.m_buf.shape[1]))
    state.steps_since_refresh = 0
    return True


@dataclass
class GaloreState:
    """Joint low-rank Adam statistics confined to U (comparison baseline)."""

    frame: Frame
    m_buf: np.ndarray  # (rank, n)
    v_buf: np.ndarray  # (rank, n)
    beta1: float
    beta2: float
    eps: float
    refresh_gap: int
    frame_kind: FrameKind
    base_seed: int
    bias_correction: bool = True
    step: int = 0


def galore_init(
    frame_kind: FrameKind | str,
    m: int,
    n: int,
    rank: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    refresh_gap: int = 0,
    seed: int = 0,
    reference_grad: np.ndarray | None = None,
    bias_correction: bool = True,
) -> GaloreState:
    frame_kind = FrameKind(frame_kind)
    frame = _build_frame(frame_kind, m, rank, seed, reference_grad)
    return GaloreState(
        frame=frame, m_buf=np.zeros((frame.rank, n)), v_buf=np.zeros((frame.rank, n)),
        beta1=beta1, beta2=beta2, eps=eps, refresh_gap=refresh_gap,
        frame_kind=frame_kind, base_seed=seed, bias_correction=bias_correction,
    )


def galore_direction(state: GaloreState, G: np.ndarray) -> np.ndarray:
    G = np.asarray(G, dtype=np.float64)
    c = project(state.frame, G)
    state.m_buf = state.beta1 * state.m_buf + (1.0 - state.beta1) * c
    state.v_buf = state.beta2 * state.v_buf + (1.0 - state.beta2) * c * c
    state.step += 1
    m_hat, v_hat = state.m_buf, state.v_buf
    if state.bias_correction:
        m_hat = m_hat / (1.0 - state.beta1 ** state.step)
        v_hat = v_hat / (1.0 - state.beta2 ** state.step)
    if state.frame.rank == 0:
        return np.zeros_like(G)
    return lift(state.frame, m_hat / (np.sqrt(v_hat) + state.eps))


def galore_maybe_refresh(state: GaloreState, G: np.ndarray, t: int) -> bool:
    """Switch the subspace but keep the accumulated statistics."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    if state.refresh_gap <= 0 or t % state.refresh_gap != 0:
        return False
    seed = _refresh_seed(state.base_seed, t)
    state.frame = _build_frame(state.frame_kind, state.frame.ambient_dim,
                               state.frame.rank, seed, G)
    return True
