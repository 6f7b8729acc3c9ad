"""Projection frames and the dense/randomized factorizations that build them.

A :class:`Frame` is a linear map ``P: R^m -> R^k`` whose adjoint is ``P.T``.
The rows of ``P`` are orthonormal, so ``P* P`` is the orthogonal projector
onto the row span and is idempotent and self-adjoint.  Row-selection kinds
keep an index list instead of a dense matrix and apply exactly (no floating
error); SRHT over a power-of-two dimension keeps a sign vector plus sampled
Hadamard row indices and applies through its k sampled Hadamard rows, rebuilt
per call, and over any other dimension keeps only its re-orthonormalized dense
rows.  A rank-0 frame holds an empty ``(0, m)`` ``rows`` matrix, so it
projects to nothing and lifts to zeros through the dense path.
:func:`frame_storage_elements` gives the element count of every array a
frame holds from (kind, m, k) alone.

Frames may be stacked: every array a frame holds then has a leading replica
axis (``rows`` is ``(S, k, m)``, ``indices`` ``(S, k)``, ``signs``
``(S, m)``), ``project``/``lift`` act on ``(S, m, n)``/``(S, k, n)`` with
stacked ``matmul`` and ``take_along_axis``, and ``rank``/``ambient_dim`` stay
per replica.  :func:`make_frame` stacks a frame when its reference gradient
has a leading axis: gradient-based kinds factor each replica's gradient, and
the kinds drawn from the seed give every replica the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


class FrameKind(str, Enum):
    SVD = "svd"
    APPROX_SVD = "approx_svd"
    GAUSSIAN_ORTHO = "gaussian_ortho"
    SRHT = "srht"
    ROW_SUBSET = "row_subset"
    TOP_K_ROWS = "top_k_rows"
    IDENTITY = "identity"
    ZERO = "zero"


#: kinds built from a reference gradient (the rest ignore it and draw from the seed)
GRADIENT_KINDS = frozenset({FrameKind.SVD, FrameKind.APPROX_SVD, FrameKind.TOP_K_ROWS})


class NumericError(RuntimeError):
    """Dense factorization failed to converge."""


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    ambient_dim: int
    rank: int
    rows: np.ndarray | None = None  # ([S,] rank, ambient) explicit representation
    indices: np.ndarray | None = None  # ([S,] rank) selector kinds and SRHT row sample
    signs: np.ndarray | None = None  # ([S,] ambient) SRHT: +-1 per ambient coordinate


_ARRAYS = ("rows", "indices", "signs")


def take_replicas(f: Frame, keep) -> Frame:
    """The stacked frame of the replicas ``keep`` (indices into the leading axis)."""
    return replace(f, **{name: getattr(f, name)[keep] for name in _ARRAYS
                         if getattr(f, name) is not None})


def _stack(f: Frame, replicas: tuple) -> Frame:
    """``f`` repeated over the leading ``replicas`` axes (a copy per replica)."""
    if not replicas:
        return f
    return replace(f, **{name: np.array(np.broadcast_to(a, replicas + a.shape))
                         for name in _ARRAYS
                         if (a := getattr(f, name)) is not None})


def _padded_dim(m: int) -> int:
    """Next power of two >= m (the SRHT transform length)."""
    return 1 << (m - 1).bit_length() if m > 1 else 1


def frame_storage_elements(kind: FrameKind | str, m: int, k: int) -> int:
    """Elements of every array a rank-k frame of this kind over R^m holds."""
    kind = FrameKind(kind)
    if kind is FrameKind.ZERO or k == 0:
        return 0
    if kind is FrameKind.IDENTITY:
        return m  # index list arange(m)
    if kind in (FrameKind.ROW_SUBSET, FrameKind.TOP_K_ROWS):
        return k  # index list
    if kind is FrameKind.SRHT and _padded_dim(m) == m:
        return k + m  # row sample + sign vector
    return k * m  # dense rows


def _as_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim not in (2, 3):
        raise ValueError(f"expected a 2D array or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def topk_svd(A: np.ndarray, k: int) -> Frame:
    """Frame spanned by the top-k left singular vectors of A (of each matrix of a stack)."""
    A = _as_matrix(A)
    m, n = A.shape[-2:]
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m}x{n} matrix")
    try:
        U, _, _ = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return Frame(kind=FrameKind.SVD, ambient_dim=m, rank=k,
                 rows=np.ascontiguousarray(U[..., :k].mT))


_OVERSAMPLE = 8  # extra sketch columns beyond k
_POWER_ITERS = 1  # subspace iterations that sharpen the sketch


def randomized_range_svd(A: np.ndarray, k: int, seed: int = 0) -> Frame:
    """Halko-style randomized range finder for the top-k left singular space.

    Every matrix of a stack is sketched with the same Gaussian test matrix.
    """
    A = _as_matrix(A)
    m, n = A.shape[-2:]
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m}x{n}")
    oversample = min(_OVERSAMPLE, min(m, n) - k)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k + oversample))
    Y = A @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(_POWER_ITERS):
        Z, _ = np.linalg.qr(A.mT @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.mT @ A
    try:
        Ub, _, _ = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of sketch did not converge: {exc}") from exc
    rows = (Q @ Ub[..., :k]).mT
    return Frame(kind=FrameKind.APPROX_SVD, ambient_dim=m, rank=k,
                 rows=np.ascontiguousarray(rows))


def _srht_frame(m: int, k: int, seed: int) -> Frame:
    m_pad = _padded_dim(m)
    rng = np.random.default_rng(seed)
    signs = rng.choice(np.array([-1.0, 1.0]), size=m)
    idx = np.sort(rng.choice(m_pad, size=k, replace=False)).astype(np.int64)
    if m == m_pad:
        return Frame(kind=FrameKind.SRHT, ambient_dim=m, rank=k, indices=idx, signs=signs)
    # Truncating the padded coordinates breaks exact row orthonormality, so
    # materialize the truncated rows and re-orthonormalize.
    q, _ = np.linalg.qr(_srht_rows(idx, signs, m_pad).T)
    return Frame(kind=FrameKind.SRHT, ambient_dim=m, rank=k, rows=np.ascontiguousarray(q.T))


def _srht_rows(indices: np.ndarray, signs: np.ndarray, m_pad: int) -> np.ndarray:
    """Rows ``indices`` of H D / sqrt(m_pad) over the first m = ``len(signs)`` columns.

    H is the m_pad x m_pad Sylvester Hadamard matrix, whose (i, j) entry is
    (-1)**popcount(i & j), and D = diag(``signs``). Stacked ``([S,] k)``
    indices and ``([S,] m)`` signs give ``([S,] k, m)`` rows.
    """
    odd = np.bitwise_count(indices[..., None] & np.arange(signs.shape[-1])) & 1
    scaled = signs[..., None, :] / np.sqrt(m_pad)
    return np.where(odd, -scaled, scaled)


def make_frame(
    kind: FrameKind,
    m: int,
    k: int,
    seed: int = 0,
    reference_grad: np.ndarray | None = None,
) -> Frame:
    """Build a rank-k frame over ambient dimension m.

    A reference gradient of shape ``(S, m, n)`` gives a frame stacked over
    its S replicas; ``(m, n)`` or none gives a single frame.
    """
    kind = FrameKind(kind)
    if not 0 <= k <= m:
        raise ValueError(f"rank k={k} out of range for ambient dimension m={m}")
    replicas = () if reference_grad is None else np.shape(reference_grad)[:-2]
    if kind is FrameKind.ZERO or k == 0:
        return Frame(kind=FrameKind.ZERO, ambient_dim=m, rank=0,
                     rows=np.zeros(replicas + (0, m)))
    if kind is FrameKind.IDENTITY:
        if k != m:
            raise ValueError("identity frame requires k == m")
        return _stack(Frame(kind=kind, ambient_dim=m, rank=m,
                            indices=np.arange(m, dtype=np.int64)), replicas)
    if kind in GRADIENT_KINDS:
        if reference_grad is None:
            raise ValueError(f"{kind.value} frame requires reference_grad")
        G = _as_matrix(reference_grad)
        if G.shape[-2] != m:
            raise ValueError(f"reference_grad has {G.shape[-2]} rows, expected {m}")
        if kind is FrameKind.SVD:
            return topk_svd(G, k)
        if kind is FrameKind.APPROX_SVD:
            return randomized_range_svd(G, k, seed=seed)
        order = np.argsort(-np.linalg.norm(G, axis=-1), axis=-1, kind="stable")
        idx = np.sort(order[..., :k], axis=-1).astype(np.int64)
        return Frame(kind=kind, ambient_dim=m, rank=k, indices=idx)
    rng = np.random.default_rng(seed)
    if kind is FrameKind.ROW_SUBSET:
        idx = np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64)
        f = Frame(kind=kind, ambient_dim=m, rank=k, indices=idx)
    elif kind is FrameKind.GAUSSIAN_ORTHO:
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        f = Frame(kind=kind, ambient_dim=m, rank=k, rows=np.ascontiguousarray(q.T))
    elif kind is FrameKind.SRHT:
        f = _srht_frame(m, k, seed)
    else:  # pragma: no cover
        raise ValueError(f"unknown frame kind {kind!r}")
    return _stack(f, replicas)


def _along_rows(indices: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``indices`` (``([S,] k)``) as take/put-along-axis indices for axis -2 of ``like``."""
    return np.broadcast_to(indices[..., None], indices.shape + like.shape[-1:])


def _matrix(f: Frame) -> np.ndarray | None:
    """P as a ``([S,] k, m)`` matrix, or None for the row-selection kinds.

    A power-of-two SRHT frame holds no rows; its k sampled rows of H D are
    rebuilt on each call, so the frame keeps only k + m numbers.
    """
    if f.rows is None and f.kind is FrameKind.SRHT:
        return _srht_rows(f.indices, f.signs, f.ambient_dim)
    return f.rows


def project(f: Frame, G: np.ndarray) -> np.ndarray:
    """Apply P: ([S,] m, n) -> ([S,] k, n)."""
    G = np.asarray(G, dtype=np.float64)
    if G.shape[-2] != f.ambient_dim:
        raise ValueError(f"shape mismatch: G has {G.shape[-2]} rows, frame ambient {f.ambient_dim}")
    if (P := _matrix(f)) is not None:
        return P @ G
    return np.take_along_axis(G, _along_rows(f.indices, G), axis=-2)


def lift(f: Frame, C: np.ndarray) -> np.ndarray:
    """Apply the adjoint P*: ([S,] k, n) -> ([S,] m, n)."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[-2] != f.rank:
        raise ValueError(f"shape mismatch: C has {C.shape[-2]} rows, frame rank {f.rank}")
    if (P := _matrix(f)) is not None:
        return P.mT @ C
    out = np.zeros(C.shape[:-2] + (f.ambient_dim,) + C.shape[-1:])
    np.put_along_axis(out, _along_rows(f.indices, C), C, axis=-2)
    return out


def reconstruct(f: Frame, G: np.ndarray) -> np.ndarray:
    """P* P G — the component of G in the frame's subspace."""
    return lift(f, project(f, G))
