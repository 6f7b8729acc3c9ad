"""Projection frames and the dense/randomized factorizations that build them.

A :class:`Frame` is a linear map ``P: R^m -> R^k`` whose adjoint is ``P.T``.
For every kind except ``GAUSSIAN_RAW`` the rows of ``P`` are orthonormal, so
``P* P`` is the orthogonal projector onto the row span and is idempotent and
self-adjoint.  Row-selection kinds keep an index list instead of a dense
matrix and apply exactly (no floating error); SRHT over a power-of-two
dimension keeps a sign vector plus sampled Hadamard row indices and applies
through the fast transform, and over any other dimension keeps only its
re-orthonormalized dense rows.  A rank-0 frame holds an empty ``(0, m)``
``rows`` matrix, so it projects to nothing and lifts to zeros through the
dense path.  :func:`frame_storage_elements` gives the element count of every
array a frame holds from (kind, m, k) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels


class FrameKind(str, Enum):
    SVD = "svd"
    APPROX_SVD = "approx_svd"
    GAUSSIAN_ORTHO = "gaussian_ortho"
    GAUSSIAN_RAW = "gaussian_raw"
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
    rows: np.ndarray | None = None  # (rank, ambient) explicit representation
    indices: np.ndarray | None = None  # selector kinds and SRHT row sample
    signs: np.ndarray | None = None  # SRHT: +-1 per ambient coordinate
    padded_dim: int = 0  # SRHT: next power of two >= ambient_dim
    seed: int = 0
    non_projector: bool = False

    def storage_elements(self) -> int:
        """Persistent elements needed to store the frame (Table-style accounting)."""
        return frame_storage_elements(self.kind, self.ambient_dim, self.rank)


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
    if A.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def topk_svd(A: np.ndarray, k: int) -> Frame:
    """Frame spanned by the top-k left singular vectors of A."""
    A = _as_matrix(A)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m}x{n} matrix")
    try:
        U, _, _ = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return Frame(kind=FrameKind.SVD, ambient_dim=m, rank=k, rows=np.ascontiguousarray(U[:, :k].T))


def randomized_range_svd(
    A: np.ndarray, k: int, oversample: int = 8, power_iters: int = 1, seed: int = 0
) -> Frame:
    """Halko-style randomized range finder for the top-k left singular space."""
    A = _as_matrix(A)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m}x{n}")
    oversample = min(oversample, min(m, n) - k)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k + oversample))
    Y = A @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A
    try:
        Ub, _, _ = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"SVD of sketch did not converge: {exc}") from exc
    rows = (Q @ Ub[:, :k]).T
    return Frame(
        kind=FrameKind.APPROX_SVD, ambient_dim=m, rank=k,
        rows=np.ascontiguousarray(rows), seed=seed,
    )


def _srht_frame(m: int, k: int, seed: int) -> Frame:
    m_pad = _padded_dim(m)
    rng = np.random.default_rng(seed)
    signs = rng.choice(np.array([-1.0, 1.0]), size=m)
    idx = np.sort(rng.choice(m_pad, size=k, replace=False)).astype(np.int64)
    if m == m_pad:
        return Frame(
            kind=FrameKind.SRHT, ambient_dim=m, rank=k,
            indices=idx, signs=signs, padded_dim=m_pad, seed=seed,
        )
    # Truncating the padded coordinates breaks exact row orthonormality, so
    # materialize the truncated rows and re-orthonormalize.
    rows = _hadamard_rows(idx, m_pad)[:, :m] * signs[None, :] / np.sqrt(m_pad)
    q, _ = np.linalg.qr(rows.T)
    return Frame(
        kind=FrameKind.SRHT, ambient_dim=m, rank=k,
        rows=np.ascontiguousarray(q.T), padded_dim=m_pad, seed=seed,
    )


def _hadamard_rows(row_ids: np.ndarray, n: int) -> np.ndarray:
    cols = np.arange(n, dtype=np.uint64)
    bits = row_ids[:, None].astype(np.uint64) & cols[None, :]
    pop = np.zeros_like(bits)
    while bits.any():
        pop += bits & 1
        bits >>= np.uint64(1)
    return np.where(pop % 2 == 0, 1.0, -1.0)


def make_frame(
    kind: FrameKind,
    m: int,
    k: int,
    seed: int = 0,
    reference_grad: np.ndarray | None = None,
    oversample: int = 8,
    power_iters: int = 1,
) -> Frame:
    """Build a rank-k frame over ambient dimension m."""
    kind = FrameKind(kind)
    if not 0 <= k <= m:
        raise ValueError(f"rank k={k} out of range for ambient dimension m={m}")
    if kind is FrameKind.ZERO or k == 0:
        return Frame(kind=FrameKind.ZERO, ambient_dim=m, rank=0,
                     rows=np.zeros((0, m)), seed=seed)
    if kind is FrameKind.IDENTITY:
        if k != m:
            raise ValueError("identity frame requires k == m")
        return Frame(
            kind=kind, ambient_dim=m, rank=m,
            indices=np.arange(m, dtype=np.int64), seed=seed,
        )
    if kind in GRADIENT_KINDS:
        if reference_grad is None:
            raise ValueError(f"{kind.value} frame requires reference_grad")
        G = _as_matrix(reference_grad)
        if G.shape[0] != m:
            raise ValueError(f"reference_grad has {G.shape[0]} rows, expected {m}")
        if kind is FrameKind.SVD:
            return topk_svd(G, k)
        if kind is FrameKind.APPROX_SVD:
            return randomized_range_svd(G, k, oversample=oversample,
                                        power_iters=power_iters, seed=seed)
        order = np.argsort(-np.linalg.norm(G, axis=1), kind="stable")
        idx = np.sort(order[:k]).astype(np.int64)
        return Frame(kind=kind, ambient_dim=m, rank=k, indices=idx, seed=seed)
    rng = np.random.default_rng(seed)
    if kind is FrameKind.ROW_SUBSET:
        idx = np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64)
        return Frame(kind=kind, ambient_dim=m, rank=k, indices=idx, seed=seed)
    if kind is FrameKind.GAUSSIAN_ORTHO:
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        return Frame(kind=kind, ambient_dim=m, rank=k,
                     rows=np.ascontiguousarray(q.T), seed=seed)
    if kind is FrameKind.GAUSSIAN_RAW:
        rows = rng.standard_normal((k, m)) / np.sqrt(k)
        return Frame(kind=kind, ambient_dim=m, rank=k, rows=rows,
                     seed=seed, non_projector=True)
    if kind is FrameKind.SRHT:
        return _srht_frame(m, k, seed)
    raise ValueError(f"unknown frame kind {kind!r}")  # pragma: no cover


def project(f: Frame, G: np.ndarray) -> np.ndarray:
    """Apply P: (m x n) -> (k x n)."""
    G = np.asarray(G, dtype=np.float64)
    if G.shape[0] != f.ambient_dim:
        raise ValueError(f"shape mismatch: G has {G.shape[0]} rows, frame ambient {f.ambient_dim}")
    if f.rows is not None:
        return f.rows @ G
    if f.kind is FrameKind.SRHT:
        pad = np.zeros((f.padded_dim,) + G.shape[1:])
        pad[: f.ambient_dim] = G * f.signs.reshape((-1,) + (1,) * (G.ndim - 1))
        return kernels.fwht(pad)[f.indices] / np.sqrt(f.padded_dim)
    return G[f.indices]


def lift(f: Frame, C: np.ndarray) -> np.ndarray:
    """Apply the adjoint P*: (k x n) -> (m x n)."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[0] != f.rank:
        raise ValueError(f"shape mismatch: C has {C.shape[0]} rows, frame rank {f.rank}")
    if f.rows is not None:
        return f.rows.T @ C
    if f.kind is FrameKind.SRHT:
        pad = np.zeros((f.padded_dim,) + C.shape[1:])
        pad[f.indices] = C
        out = kernels.fwht(pad)[: f.ambient_dim] / np.sqrt(f.padded_dim)
        return out * f.signs.reshape((-1,) + (1,) * (C.ndim - 1))
    out = np.zeros((f.ambient_dim,) + C.shape[1:])
    out[f.indices] = C
    return out


def reconstruct(f: Frame, G: np.ndarray) -> np.ndarray:
    """P* P G — the component of G in the frame's subspace."""
    return lift(f, project(f, G))
