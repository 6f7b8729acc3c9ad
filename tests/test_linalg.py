"""Frames: top-k SVD, randomized range finder, sketching, projector algebra."""

import ctypes
import dataclasses
import math

import numpy as np
import pytest

from snsm import linalg, openblas
from snsm.linalg import (
    GRADIENT_KINDS,
    Frame,
    FrameKind,
    frame_storage_elements,
    lift,
    make_frame,
    project,
    take_replicas,
)

PROJECTOR_KINDS = [
    FrameKind.SVD,
    FrameKind.APPROX_SVD,
    FrameKind.GAUSSIAN_ORTHO,
    FrameKind.SRHT,
    FrameKind.ROW_SUBSET,
    FrameKind.TOP_K_ROWS,
]


def _frame(kind, m, k, seed, rng):
    ref = rng.standard_normal((m, k + 8))
    return make_frame(kind, m, k, seed=seed, reference_grad=ref)


def _svd_frame(G, k):
    return make_frame(FrameKind.SVD, G.shape[-2], k, reference_grad=G)


def _range_frame(G, k, seed):
    return make_frame(FrameKind.APPROX_SVD, G.shape[-2], k, seed=seed, reference_grad=G)


# ---------------------------------------------------------------------------
# slow one-sided Jacobi SVD oracle, used only by tests

def jacobi_left_singular_vectors(A, sweeps=60, tol=1e-14):
    """One-sided Jacobi on A^T: orthogonalizes the columns of A^T in place,
    yielding right singular vectors of A^T = left singular vectors of A."""
    W = np.array(A.T, dtype=np.float64)  # (n, m): columns span A's row space
    m = W.shape[1]
    V = np.eye(m)
    for _ in range(sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = W[:, p] @ W[:, q]
                app = W[:, p] @ W[:, p]
                aqq = W[:, q] @ W[:, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * np.sqrt(app * aqq + 1e-300):
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                Wp = c * W[:, p] - s * W[:, q]
                Wq = s * W[:, p] + c * W[:, q]
                W[:, p], W[:, q] = Wp, Wq
                Vp = c * V[:, p] - s * V[:, q]
                Vq = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = Vp, Vq
        if off < tol:
            break
    norms = np.linalg.norm(W, axis=0)
    order = np.argsort(-norms)
    return V[:, order], norms[order]


def test_topk_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 9))
    k = 4
    f = _svd_frame(A, k)
    U, svals = jacobi_left_singular_vectors(A)
    # compare the spanned subspaces, not the (sign-ambiguous) vectors
    P_ours = f.rows.T @ f.rows
    Uk = U[:, :k]
    P_oracle = Uk @ Uk.T
    assert np.linalg.norm(P_ours - P_oracle) < 1e-8
    # residual equals the tail singular values
    resid = np.linalg.norm(A - P_ours @ A, "fro")
    assert np.isclose(resid, np.sqrt(np.sum(svals[k:] ** 2)), atol=1e-8)


def test_topk_svd_identity_input():
    f = _svd_frame(np.eye(3), 2)
    P = f.rows.T @ f.rows
    assert np.isclose(np.trace(P), 2.0)
    eig = np.sort(np.linalg.eigvalsh(P))
    np.testing.assert_allclose(eig, [0, 1, 1], atol=1e-12)


def test_topk_svd_diagonal_residual():
    A = np.diag([3.0, 2.0, 1.0])
    f = _svd_frame(A, 1)
    resid = np.linalg.norm(A - lift(f, project(f, A)), "fro") ** 2
    assert np.isclose(resid, 5.0, atol=1e-12)
    assert np.isclose(abs(f.rows[0, 0]), 1.0, atol=1e-12)


def test_topk_svd_full_rank_contains_columns():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 5))
    f = _svd_frame(A, 5)
    assert np.linalg.norm(A - lift(f, project(f, A)), "fro") <= 1e-8


def test_topk_svd_k_out_of_range():
    with pytest.raises(ValueError):
        _svd_frame(np.eye(3), 4)


# ---------------------------------------------------------------------------
# "svd" frames: dgesdd's path-5 steps run by linalg against np.linalg.svd

def _numpy_rows(G, k):
    """The rows of an "svd" frame as np.linalg.svd gives them."""
    return np.ascontiguousarray(np.linalg.svd(G, full_matrices=False)[0][..., :k].mT)


@pytest.fixture
def path5_calls(monkeypatch):
    """The matrices factored by linalg's own dgesdd steps: one entry per
    DGEBRD call that is not a workspace query."""
    steps = openblas.svd_steps()
    if steps is None:
        pytest.skip("numpy is not linked to an OpenBLAS that exports dgesdd's steps")
    dgebrd, dbdsdc, dormbr = steps
    calls = []

    def counted(*args):
        if ctypes.c_int64.from_address(args[9]).value != -1:  # LWORK
            calls.append(ctypes.c_int64.from_address(args[0]).value)  # M
        dgebrd(*args)

    monkeypatch.setattr(openblas, "svd_steps", lambda: (counted, dbdsdc, dormbr))
    return calls


def _assert_numpy_rows(G, k, frame):
    before = G.copy()
    rows = frame(G, k).rows
    assert np.array_equal(G, before)  # the input is never written
    assert np.array_equal(rows, _numpy_rows(G, k))
    assert rows.flags.c_contiguous
    # no LAPACK buffer kept alive behind the rows
    assert rows.base is None or rows.base.size == rows.size


# (m, n, taken by path 5): n <= m < int(11n/6); 64x16 is tall past it
@pytest.mark.parametrize("m,n,path5", [(40, 40, True), (12, 8, True), (300, 200, True),
                                       (2, 2, True), (64, 16, False), (29, 16, False),
                                       (28, 16, True)])
def test_svd_frame_rows_equal_numpy_svd(monkeypatch, path5_calls, m, n, path5):
    monkeypatch.setattr(linalg, "_PATH5_MIN_N", 2)  # small shapes take path 5 too
    G = np.random.default_rng(m * n).standard_normal((m, n))
    for k in sorted({1, n // 2, n}):
        _assert_numpy_rows(G, k, _svd_frame)
    assert path5_calls == ([m] * len({1, n // 2, n}) if path5 else [])


def test_wide_matrix_goes_to_numpy_svd(monkeypatch, path5_calls):
    monkeypatch.setattr(linalg, "_PATH5_MIN_N", 2)
    G = np.random.default_rng(3).standard_normal((8, 12))
    for k in (1, 4, 8):
        _assert_numpy_rows(G, k, _svd_frame)
    assert path5_calls == []


def test_path5_starts_at_its_measured_short_side(path5_calls):
    rng = np.random.default_rng(2)
    n = linalg._PATH5_MIN_N
    _assert_numpy_rows(rng.standard_normal((n - 1, n - 1)), 3, _svd_frame)
    assert path5_calls == []
    _assert_numpy_rows(rng.standard_normal((n, n)), 3, _svd_frame)
    assert path5_calls == [n]


def test_stacked_svd_frame_equals_numpy_svd(monkeypatch, path5_calls):
    monkeypatch.setattr(linalg, "_PATH5_MIN_N", 2)
    G = np.random.default_rng(11).standard_normal((3, 40, 24))
    G[1] *= 1e-140  # below dgesdd's scaling floor: np.linalg.svd factors it
    for k in (1, 12, 24):
        _assert_numpy_rows(G, k, _svd_frame)
    assert path5_calls == [40, 40] * 3


def test_transposed_view_svd_frame_equals_numpy_svd(monkeypatch, path5_calls):
    monkeypatch.setattr(linalg, "_PATH5_MIN_N", 2)
    G = np.random.default_rng(12).standard_normal((24, 40)).T
    assert G.flags.f_contiguous and not G.flags.c_contiguous
    for k in (1, 12, 24):
        _assert_numpy_rows(G, k, _svd_frame)
    assert path5_calls == [40] * 3


def test_scaling_bounds_are_dgesdd_s():
    lib = next((lib for lib in openblas._libraries() if hasattr(lib, "scipy_dlamch_64_")),
               None)
    if lib is None:
        pytest.skip("numpy is not linked to an OpenBLAS that exports dlamch")
    dlamch = lib.scipy_dlamch_64_
    dlamch.argtypes, dlamch.restype = (ctypes.c_char_p, ctypes.c_size_t), ctypes.c_double
    assert linalg._SMLNUM == np.sqrt(dlamch(b"S", 1)) / dlamch(b"P", 1) == 2.0 ** -459
    assert linalg._BIGNUM == 2.0 ** 459


# the largest |entry|, and whether dgesdd leaves the matrix unscaled
@pytest.mark.parametrize("top,path5", [(6e-139, False), (2.0 ** -459, True),
                                       (2.0 ** 459, True), (1.5e138, False),
                                       (0.0, True)])
def test_svd_frame_at_dgesdd_s_scaling_bounds(monkeypatch, path5_calls, top, path5):
    monkeypatch.setattr(linalg, "_PATH5_MIN_N", 2)
    G = np.random.default_rng(13).standard_normal((12, 8))
    G = G / np.abs(G).max() * top  # its largest |entry| is exactly ``top``
    assert np.abs(G).max() == top
    for k in (1, 4, 8):
        _assert_numpy_rows(G, k, _svd_frame)
    assert path5_calls == ([12] * 3 if path5 else [])


def test_svd_frame_without_dgesdd_s_steps(monkeypatch):
    monkeypatch.setattr(openblas, "svd_steps", lambda: None)
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    G = np.random.default_rng(14).standard_normal((2, 40, 40))
    f = _svd_frame(G, 5)
    assert calls == [1]
    monkeypatch.setattr(np.linalg, "svd", real)
    assert np.array_equal(f.rows, _numpy_rows(G, 5))


@pytest.mark.parametrize("kind", sorted(GRADIENT_KINDS))
def test_make_frame_checks_its_reference_gradient_once(monkeypatch, kind):
    ref = np.random.default_rng(4).standard_normal((2, 16, 12))
    real, checked = linalg._as_matrix, []
    monkeypatch.setattr(linalg, "_as_matrix",
                        lambda A: checked.append(A.shape) or real(A))
    f = make_frame(kind, 16, 4, seed=5, reference_grad=ref)
    assert checked == [(2, 16, 12)]
    if kind is FrameKind.SVD:
        assert np.array_equal(f.rows, _numpy_rows(ref, 4))
    ref[1, 3, 2] = np.nan
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        make_frame(kind, 16, 4, seed=5, reference_grad=ref)


def test_randomized_range_exact_low_rank():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((64, 6))
    C = rng.standard_normal((6, 32))
    A = B @ C
    f = _range_frame(A, 6, seed=5)
    assert np.linalg.norm(A - lift(f, project(f, A)), "fro") <= 1e-6


def test_randomized_range_zero_matrix():
    f = _range_frame(np.zeros((16, 8)), 4, seed=1)
    assert f.rank == 4
    assert np.allclose(f.rows @ f.rows.T, np.eye(4), atol=1e-10)


def test_randomized_range_near_exact_residual():
    rng = np.random.default_rng(11)
    ratios = []
    for seed in range(20):
        A = rng.standard_normal((64, 32))
        exact, approx = (np.linalg.norm(A - lift(f, project(f, A)), "fro")
                         for f in (_svd_frame(A, 8), _range_frame(A, 8, seed)))
        ratios.append(approx / exact)
        assert approx >= exact - 1e-10  # SVD is optimal
    assert np.mean(ratios) <= 2.0


# ---------------------------------------------------------------------------
# make_frame cases

def test_identity_frame():
    f = make_frame(FrameKind.IDENTITY, 4, 4)
    G = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(project(f, G), G)
    np.testing.assert_array_equal(lift(f, G), G)
    with pytest.raises(ValueError):
        make_frame(FrameKind.IDENTITY, 4, 2)


def test_row_subset_selector():
    f = Frame(kind=FrameKind.ROW_SUBSET, ambient_dim=4, rank=2,
              indices=np.array([0, 2]))
    g = np.array([[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(project(f, g), [[1.0], [3.0]])
    np.testing.assert_array_equal(lift(f, project(f, g)).ravel(), [1.0, 0.0, 3.0, 0.0])


def test_topkrows_picks_largest_row_norms():
    ref = np.diag([5.0, 1.0, 3.0])
    f = make_frame(FrameKind.TOP_K_ROWS, 3, 2, reference_grad=ref)
    np.testing.assert_array_equal(f.indices, [0, 2])


def test_zero_frame():
    f = make_frame(FrameKind.ZERO, 5, 0)
    G = np.ones((5, 2))
    assert project(f, G).shape == (0, 2)
    np.testing.assert_array_equal(lift(f, np.zeros((0, 2))), np.zeros((5, 2)))
    np.testing.assert_array_equal(lift(f, project(f, G)), np.zeros((5, 2)))


def _sylvester_hadamard(m):
    H = np.ones((1, 1))
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return H


@pytest.mark.parametrize("m", [16, 512])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("S", [None, 3])
def test_srht_applies_its_sampled_hadamard_rows(m, n, S):
    # a power-of-two SRHT frame is P = H[indices] diag(signs) / sqrt(m) and
    # holds only its k + m indices and signs; a stacked frame applies each
    # replica's own draw
    k = m // 8
    H = _sylvester_hadamard(m)
    draws = [make_frame(FrameKind.SRHT, m, k, seed=s) for s in range(S or 1)]
    assert all(d.rows is None for d in draws)
    assert frame_storage_elements("srht", m, k) == k + m
    P = np.stack([H[d.indices] * d.signs / np.sqrt(m) for d in draws])
    if S is None:
        f, P = draws[0], P[0]
    else:
        f = Frame(kind=FrameKind.SRHT, ambient_dim=m, rank=k,
                  indices=np.stack([d.indices for d in draws]),
                  signs=np.stack([d.signs for d in draws]))
    rng = np.random.default_rng(m + n)
    lead = () if S is None else (S,)
    G, C = rng.standard_normal(lead + (m, n)), rng.standard_normal(lead + (k, n))
    PG, LC = project(f, G), lift(f, C)
    np.testing.assert_allclose(PG, P @ G, rtol=0, atol=1e-12)
    np.testing.assert_allclose(LC, P.mT @ C, rtol=0, atol=1e-12)
    lhs, rhs = np.sum(PG * C), np.sum(G * LC)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_seeded_determinism():
    rng = np.random.default_rng(9)
    ref = rng.standard_normal((32, 16))
    for kind in PROJECTOR_KINDS:
        a = make_frame(kind, 32, 5, seed=42, reference_grad=ref)
        b = make_frame(kind, 32, 5, seed=42, reference_grad=ref)
        for field in ("rows", "indices", "signs"):
            va, vb = getattr(a, field), getattr(b, field)
            assert (va is None) == (vb is None)
            if va is not None:
                np.testing.assert_array_equal(va, vb)


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("m", [16, 12])  # SRHT: power of two and padded
def test_storage_formula_counts_every_frame_array(kind, m):
    ref = np.random.default_rng(1).standard_normal((m, m))
    for k in (0, 1, 5, m):
        if kind is FrameKind.IDENTITY and k not in (0, m):
            continue
        f = make_frame(kind, m, k, seed=3, reference_grad=ref)
        held = sum(v.size for v in (getattr(f, fl.name) for fl in dataclasses.fields(f))
                   if isinstance(v, np.ndarray))
        assert frame_storage_elements(kind, m, k) == held, (kind, m, k)


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("m", [16, 12])  # SRHT: power of two and padded
def test_stacked_frame_matches_per_replica_frames(kind, m):
    # a reference gradient with a leading axis stacks one frame per replica:
    # gradient kinds factor each replica's gradient, seed-drawn kinds repeat
    # the one draw; project and lift act replica by replica, bit for bit
    rng = np.random.default_rng(4)
    S, n = 3, 5
    k = {FrameKind.IDENTITY: m, FrameKind.ZERO: 0}.get(kind, 4)
    refs = rng.standard_normal((S, m, n))
    stacked = make_frame(kind, m, k, seed=2, reference_grad=refs)
    G, C = rng.standard_normal((S, m, n)), rng.standard_normal((S, k, n))
    P, L = project(stacked, G), lift(stacked, C)
    assert P.shape == (S, k, n) and L.shape == (S, m, n)
    for s in range(S):
        single = make_frame(kind, m, k, seed=2, reference_grad=refs[s])
        assert (stacked.rank, stacked.ambient_dim) == (single.rank, single.ambient_dim)
        for name in ("rows", "indices", "signs"):
            a, b = getattr(stacked, name), getattr(single, name)
            assert (a is None) == (b is None), name
            if a is not None:
                np.testing.assert_array_equal(a[s], b)
        np.testing.assert_array_equal(P[s], project(single, G[s]))
        np.testing.assert_array_equal(L[s], lift(single, C[s]))
    kept = take_replicas(stacked, np.array([2, 0]))
    np.testing.assert_array_equal(project(kept, G[[2, 0]]), P[[2, 0]])


# ---------------------------------------------------------------------------
# projector algebra

@pytest.mark.parametrize("kind", PROJECTOR_KINDS)
@pytest.mark.parametrize("m,k", [(64, 8), (48, 7), (16, 16)])
def test_projector_invariants(kind, m, k):
    rng = np.random.default_rng(hash((kind, m, k)) % 2 ** 32)
    for trial in range(5):
        f = _frame(kind, m, k, seed=trial, rng=rng)
        G = rng.standard_normal((m, 12))
        PG = lift(f, project(f, G))
        # idempotency
        assert np.linalg.norm(lift(f, project(f, PG)) - PG) <= 1e-10 * np.linalg.norm(G)
        # orthogonal split + Pythagoras
        R = G - PG
        assert abs(np.sum(PG * R)) <= 1e-8 * np.linalg.norm(G) ** 2
        lhs = np.linalg.norm(G, "fro") ** 2
        rhs = np.linalg.norm(PG, "fro") ** 2 + np.linalg.norm(R, "fro") ** 2
        assert abs(lhs - rhs) <= 1e-8 * lhs
        # project(lift(C)) = C for orthonormal-row kinds
        C = rng.standard_normal((k, 12))
        assert np.linalg.norm(project(f, lift(f, C)) - C) <= 1e-10 * np.linalg.norm(C)


@pytest.mark.parametrize("kind", PROJECTOR_KINDS)
def test_adjointness(kind):
    rng = np.random.default_rng(5)
    f = _frame(kind, 40, 6, seed=3, rng=rng)
    G = rng.standard_normal((40, 4))
    C = rng.standard_normal((6, 4))
    lhs = np.sum(project(f, G) * C)
    rhs = np.sum(G * lift(f, C))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_orthonormal_frame_orthogonality_example():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    f = Frame(kind=FrameKind.GAUSSIAN_ORTHO, ambient_dim=4, rank=2,
              rows=np.ascontiguousarray(q.T))
    G = rng.standard_normal((4, 3))
    PG = lift(f, project(f, G))
    assert abs(np.sum(PG * (G - PG))) <= 1e-10


def test_project_shape_mismatch():
    f = make_frame(FrameKind.GAUSSIAN_ORTHO, 8, 2, seed=0)
    with pytest.raises(ValueError):
        project(f, np.ones((9, 2)))
    with pytest.raises(ValueError):
        lift(f, np.ones((3, 2)))


def test_missing_reference_grad():
    with pytest.raises(ValueError):
        make_frame(FrameKind.SVD, 8, 2)
