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

import functools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import openblas


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


def check_rank(kind: FrameKind, m: int, k: int, n: int | None = None) -> None:
    """Reject a rank-k frame over R^m (and, given n, over an m x n gradient)."""
    if not 0 <= k <= m:
        raise ValueError(f"rank k={k} out of range for ambient dimension m={m}")
    if k == 0:
        return
    if kind is FrameKind.IDENTITY and k != m:
        raise ValueError("identity frame requires k == m")
    if n is not None and kind in (FrameKind.SVD, FrameKind.APPROX_SVD) and k > n:
        raise ValueError(f"rank k={k} out of range for {m}x{n} matrix")


def _as_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim not in (2, 3):
        raise ValueError(f"expected a 2D array or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def _topk_svd(A: np.ndarray, k: int) -> Frame:
    """Frame spanned by the top-k left singular vectors of a checked float64
    matrix (of each matrix of a stack).

    The rows are the first k columns of U from ``np.linalg.svd(A,
    full_matrices=False)``, bit for bit. numpy runs LAPACK ``dgesdd`` with
    JOBZ='S'; where dgesdd takes its path 5 (``n <= m < int(11n/6)``,
    unscaled) and the loaded OpenBLAS exports its steps,
    :func:`_path5_rows` runs those steps itself and skips the one that only
    builds V^T. Every other matrix goes to ``np.linalg.svd``.
    """
    m, n = A.shape[-2:]
    steps = (openblas.svd_steps()
             if _PATH5_MIN_N <= n <= m < int(n * 11.0 / 6.0) else None)
    try:
        if steps is None:
            U, _, _ = np.linalg.svd(A, full_matrices=False)
            rows = np.ascontiguousarray(U[..., :k].mT)
        else:
            rows = np.empty(A.shape[:-2] + (k, m))
            for i in np.ndindex(A.shape[:-2]):
                rows[i] = _path5_rows(A[i], k, steps)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return Frame(kind=FrameKind.SVD, ambient_dim=m, rank=k, rows=rows)


# Short side below which np.linalg.svd is the faster of the two: the
# ctypes calls of _path5_rows cost more than the V^T they save. Median per
# call, path 5 over np.linalg.svd, n x n at 1 and 2 OpenBLAS threads on a
# 2-vCPU VM: 8x8 1.38-1.48x, 16x16 1.13x, 24x24 1.01-1.05x, 32x32
# 0.99-1.00x, 40x40 0.92x, 48x48 0.84-0.91x, 96x96 0.86-0.88x.
_PATH5_MIN_N = 32

# dgesdd scales a matrix whose largest |entry| lies outside [_SMLNUM,
# _BIGNUM] before it factors it: sqrt(dlamch('S')) / dlamch('P') = 2**-459
# and its inverse 2**459. Such a matrix goes to np.linalg.svd.
_SMLNUM = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_BIGNUM = 1.0 / _SMLNUM


@functools.cache
def _lwork(m: int, n: int) -> int:
    """The workspace, in doubles, that dgesdd's path 5 gives its steps on an
    m x n matrix: the larger of the optimal DGEBRD and DORMBR('Q') workspaces
    (their workspace queries) and DBDSDC's 3n^2 + 4n. Any workspace at least
    a routine's optimum gives it the same blocking, so the same bits."""
    dgebrd, _, dormbr = openblas.svd_steps()
    ints = np.array([m, n, -1, 0], dtype=np.int64)  # m, n, lwork = query, info
    out = np.zeros(1)
    p, w = ints.ctypes.data, out.ctypes.data
    dgebrd(p, p + 8, w, p, w, w, w, w, w, p + 16, p + 24)
    best = out[0]
    dormbr(b"Q", b"L", b"N", p, p + 8, p + 8, w, p, w, w, p, w, p + 16, p + 24, 1, 1, 1)
    return int(max(best, out[0], 3 * n * n + 4 * n))


def _path5_rows(A: np.ndarray, k: int, steps) -> np.ndarray:
    """The top-k left singular vectors of one m x n matrix, as the (k, m)
    rows that ``np.linalg.svd`` gives, for ``n <= m < int(11n/6)``.

    These are dgesdd's path-5 steps for JOBZ='S', run on a Fortran-order
    copy of A: DGEBRD reduces it to upper bidiagonal form, DBDSDC('U', 'I')
    factors the bidiagonal, and DORMBR('Q', 'L', 'N') applies the left
    reflectors to all n columns of U (fewer columns would change the
    blocking of its GEMMs, and so the bits). DORMBR('P') would build V^T,
    which no frame reads. A matrix that dgesdd would scale goes to
    ``np.linalg.svd``. A DBDSDC that does not converge raises numpy's
    ``LinAlgError``.
    """
    anrm = max(A.max(), -A.min())  # dgesdd's DLANGE('M')
    if anrm and not _SMLNUM <= anrm <= _BIGNUM:
        return np.linalg.svd(A, full_matrices=False)[0][:, :k].T
    dgebrd, dbdsdc, dormbr = steps
    m, n = A.shape
    lwork = _lwork(m, n)
    # one buffer, for one address: A in Fortran order (DGEBRD overwrites it
    # with its reflectors), U (m x n in Fortran order, so row j of ``u`` is
    # column j), DBDSDC's right vectors (unused), d, e, tauq, taup, workspace
    f = np.empty(2 * m * n + n * n + 4 * n + lwork)
    f[:m * n].reshape(n, m)[...] = A.T
    u = f[m * n:2 * m * n].reshape(n, m)
    u[...] = 0.0
    pa = f.ctypes.data
    pu, pv = pa + 8 * m * n, pa + 16 * m * n
    d, e, tauq, taup, work = (pv + 8 * (n * n + j * n) for j in range(5))
    ints = np.empty(4 + 8 * n, dtype=np.int64)  # m, n, lwork, info, then iwork
    ints[:4] = m, n, lwork, 0
    pm = ints.ctypes.data
    pn, plw, info, iwork = pm + 8, pm + 16, pm + 24, pm + 32
    dgebrd(pm, pn, pa, pm, d, e, tauq, taup, work, plw, info)
    if not ints[3]:  # its Q and IQ, unread with COMPQ='I', get work and iwork
        dbdsdc(b"U", b"I", pn, d, e, pu, pm, pv, pn, work, iwork, work, iwork, info, 1, 1)
    if not ints[3]:
        dormbr(b"Q", b"L", b"N", pm, pn, pn, pa, pm, tauq, pu, pm, work, plw, info, 1, 1, 1)
    if ints[3]:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u[:k]


_OVERSAMPLE = 8  # extra sketch columns beyond k
_POWER_ITERS = 1  # subspace iterations that sharpen the sketch


def _range_svd(A: np.ndarray, k: int, seed: int) -> Frame:
    """Halko-style randomized range finder for the top-k left singular space
    of a checked float64 matrix or stack.

    Every matrix of a stack is sketched with the same Gaussian test matrix.
    """
    m, n = A.shape[-2:]
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
    replicas = np.shape(reference_grad)[:-2]  # () without a reference gradient
    check_rank(kind, m, k, *np.shape(reference_grad)[-1:])
    if kind is FrameKind.ZERO or k == 0:
        return Frame(kind=FrameKind.ZERO, ambient_dim=m, rank=0,
                     rows=np.zeros(replicas + (0, m)))
    if kind is FrameKind.IDENTITY:
        return _stack(Frame(kind=kind, ambient_dim=m, rank=m,
                            indices=np.arange(m, dtype=np.int64)), replicas)
    if kind in GRADIENT_KINDS:
        if reference_grad is None:
            raise ValueError(f"{kind.value} frame requires reference_grad")
        G = _as_matrix(reference_grad)  # the one check of this gradient
        if G.shape[-2] != m:
            raise ValueError(f"reference_grad has {G.shape[-2]} rows, expected {m}")
        if kind is FrameKind.SVD:
            return _topk_svd(G, k)
        if kind is FrameKind.APPROX_SVD:
            return _range_svd(G, k, seed)
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
