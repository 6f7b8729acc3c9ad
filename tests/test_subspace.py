"""Subspace momentum: projected EMA + residual SGD, refresh, and the
joint-compression baseline."""

import numpy as np
import pytest

from snsm.linalg import FrameKind, frame_storage_elements, lift, project
from snsm.subspace import (
    GaloreMomentum,
    SubspaceMomentum,
    galore_direction,
    galore_init,
    galore_maybe_refresh,
    sm_direction,
    sm_init,
    sm_maybe_refresh,
)


@pytest.mark.parametrize("rule", [SubspaceMomentum, GaloreMomentum])
def test_an_unknown_frame_kind_lists_the_kinds(rule):
    with pytest.raises(ValueError) as info:
        rule("bogus")
    assert str(info.value) == (
        "'bogus' is not a valid FrameKind; choose from svd, approx_svd, "
        "gaussian_ortho, srht, row_subset, top_k_rows, identity, zero")
    assert rule(FrameKind.SRHT).frame_kind is rule("srht").frame_kind is FrameKind.SRHT


def _random_stream(m, n, T, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((m, n)) for _ in range(T)]


def test_identity_frame_is_plain_momentum():
    m, n = 6, 4
    st = sm_init(SubspaceMomentum(FrameKind.IDENTITY, rank=m, beta1=0.9), m, n)
    m_ref = np.zeros((m, n))
    for G in _random_stream(m, n, 15):
        d = sm_direction(st, G)
        m_ref = 0.9 * m_ref + 0.1 * G
        np.testing.assert_allclose(d, m_ref, atol=1e-12)


def test_zero_frame_is_sgd():
    st = sm_init(SubspaceMomentum(FrameKind.ZERO, rank=0), 5, 3)
    for G in _random_stream(5, 3, 5):
        np.testing.assert_array_equal(sm_direction(st, G), G)


def test_two_step_constant_gradient_in_u():
    beta = 0.9
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, beta1=beta), 8, 3,
                 seed=4)
    G = lift(st.frame, np.random.default_rng(1).standard_normal((2, 3)))  # G in U
    sm_direction(st, G)
    d2 = sm_direction(st, G)
    # after two steps with constant in-U gradient: (1-b)(1+b) P*P G, residual 0
    np.testing.assert_allclose(d2, (1 - beta) * (1 + beta) * G, atol=1e-10)


def test_momentum_expansion_fixed_frame():
    beta = 0.9
    m, n, T = 10, 4, 20
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=3, beta1=beta), m, n,
                 seed=2)
    stream = _random_stream(m, n, T, seed=3)
    for G in stream:
        sm_direction(st, G)
    expected = np.zeros((m, n))
    for i, G in enumerate(reversed(stream)):
        expected += (1 - beta) * beta ** i * lift(st.frame, project(st.frame, G))
    np.testing.assert_allclose(lift(st.frame, st.m_buf), expected, atol=1e-10)


def test_orthogonal_split_every_step():
    st = sm_init(SubspaceMomentum(FrameKind.SRHT, rank=4), 12, 5, seed=7)
    for G in _random_stream(12, 5, 10, seed=8):
        PG = lift(st.frame, project(st.frame, G))
        r = G - PG
        assert abs(np.sum(PG * r)) <= 1e-8 * np.linalg.norm(G) ** 2
        total = np.linalg.norm(G, "fro") ** 2
        split = np.linalg.norm(PG, "fro") ** 2 + np.linalg.norm(r, "fro") ** 2
        assert abs(total - split) <= 1e-8 * total


def test_residual_dynamics_match_plain_sgd():
    # with a fixed frame, the U-perp component of the direction is exactly
    # the U-perp component of the gradient (bit-for-bit SGD on the residual)
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=3), 9, 2, seed=5)
    for G in _random_stream(9, 2, 8, seed=6):
        d = sm_direction(st, G)
        r_dir = d - lift(st.frame, project(st.frame, d))
        r_grad = G - lift(st.frame, project(st.frame, G))
        np.testing.assert_allclose(r_dir, r_grad, atol=1e-10)


# ---------------------------------------------------------------------------
# refresh

def test_refresh_schedule_and_zeroing():
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=200),
                 8, 4, seed=0)
    rng = np.random.default_rng(10)
    changed_at = []
    for t in range(1, 1001):
        G = rng.standard_normal((8, 4))
        sm_direction(st, G)
        if sm_maybe_refresh(st, G, t):
            changed_at.append(t)
            assert np.all(st.m_buf == 0.0)  # exact, not approximate
    assert changed_at == [200, 400, 600, 800, 1000]


def test_refresh_gap_zero_never_changes_frame():
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=0),
                 6, 2, seed=1)
    frame = st.frame
    for t in range(1, 50):
        assert not sm_maybe_refresh(st, np.ones((6, 2)), t)
    assert st.frame is frame


def test_refresh_off_gap_boundary():
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=200),
                 6, 2, seed=1)
    assert not sm_maybe_refresh(st, np.ones((6, 2)), 199)
    assert sm_maybe_refresh(st, np.ones((6, 2)), 200)


def test_refresh_rejects_a_step_index_below_one():
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=200),
                 6, 2, seed=1)
    frame = st.frame
    for t in (0, -200):  # -200 is a multiple of the gap
        with pytest.raises(ValueError, match="step index t must be >= 1$"):
            sm_maybe_refresh(st, np.ones((6, 2)), t)
    assert st.frame is frame


def test_refresh_svd_consumes_gradient():
    st = sm_init(SubspaceMomentum(FrameKind.SVD, rank=1, refresh_gap=10), 6, 3,
                 reference_grad=np.eye(6)[:, :3])
    G = np.outer(np.arange(1.0, 7.0), np.ones(3))  # rank-1: rows span known
    sm_maybe_refresh(st, G, 10)
    u = np.arange(1.0, 7.0) / np.linalg.norm(np.arange(1.0, 7.0))
    assert np.linalg.norm(np.abs(st.frame.rows[0]) - u) < 1e-10


def test_refresh_random_kind_deterministic():
    rule = SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=5)
    a = sm_init(rule, 8, 2, seed=3)
    b = sm_init(rule, 8, 2, seed=3)
    G = np.ones((8, 2))
    sm_maybe_refresh(a, G, 5)
    sm_maybe_refresh(b, G, 5)
    np.testing.assert_array_equal(a.frame.rows, b.frame.rows)


# ---------------------------------------------------------------------------
# joint-compression baseline

def test_galore_direction_stays_in_subspace():
    st = galore_init(GaloreMomentum(FrameKind.GAUSSIAN_ORTHO, rank=3), 10, 4, seed=2)
    for G in _random_stream(10, 4, 6, seed=2):
        d = galore_direction(st, G)
        # no residual: the direction has no component outside U
        assert np.linalg.norm(d - lift(st.frame, project(st.frame, d))) <= 1e-10


def test_galore_identity_frame_is_adam_direction():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    st = galore_init(GaloreMomentum(FrameKind.IDENTITY, rank=4, beta1=beta1,
                                    beta2=beta2, eps=eps), 4, 3)
    m = np.zeros((4, 3))
    v = np.zeros((4, 3))
    for t, G in enumerate(_random_stream(4, 3, 10, seed=9), start=1):
        d = galore_direction(st, G)
        m = beta1 * m + (1 - beta1) * G
        v = beta2 * v + (1 - beta2) * G * G
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        np.testing.assert_allclose(d, mh / (np.sqrt(vh) + eps), atol=1e-12)


def test_galore_keeps_stats_across_refresh():
    st = galore_init(GaloreMomentum(FrameKind.GAUSSIAN_ORTHO, rank=2, refresh_gap=5),
                     8, 4, seed=0)
    rng = np.random.default_rng(3)
    for t in range(1, 5):
        galore_direction(st, rng.standard_normal((8, 4)))
        galore_maybe_refresh(st, rng.standard_normal((8, 4)), t)
    v_before = st.v_buf.copy()
    m_before = st.m_buf.copy()
    assert galore_maybe_refresh(st, rng.standard_normal((8, 4)), 5)
    np.testing.assert_array_equal(st.v_buf, v_before)  # stats retained
    np.testing.assert_array_equal(st.m_buf, m_before)


def test_sm_state_size():
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=3), 16, 5)
    assert st.m_buf.size == 3 * 5
    assert frame_storage_elements(st.frame.kind, 16, st.frame.rank) == 3 * 16


@pytest.mark.parametrize("kind,m", [(FrameKind.SVD, 12), (FrameKind.SRHT, 16),
                                    (FrameKind.SRHT, 12), (FrameKind.ROW_SUBSET, 12)])
def test_sm_direction_matches_two_lift_formula(kind, m):
    n, beta = 5, 0.9
    stream = _random_stream(m, n, 12, seed=4)
    st = sm_init(SubspaceMomentum(kind, rank=4, beta1=beta), m, n, seed=6,
                 reference_grad=stream[0])
    m_ref = np.zeros((4, n))
    for G in stream:
        c = project(st.frame, G)
        m_ref = beta * m_ref + (1 - beta) * c
        want = lift(st.frame, m_ref) + G - lift(st.frame, c)
        np.testing.assert_allclose(sm_direction(st, G), want, rtol=0, atol=1e-12)
