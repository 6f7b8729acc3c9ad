"""Kernels against independent references: explicit Hadamard matrices and sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snsm import kernels


def _explicit_hadamard(n: int) -> np.ndarray:
    # H[r, j] = (-1)^popcount(r & j), the standard Sylvester construction
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_fwht_matches_explicit_hadamard(rng, n):
    v = rng.standard_normal(n)
    np.testing.assert_allclose(
        kernels.fwht(v.copy()), _explicit_hadamard(n) @ v,
        rtol=0, atol=1e-10)


def test_fwht_2d_matches_explicit_hadamard(rng):
    M = rng.standard_normal((128, 5))
    before = M.copy()
    np.testing.assert_allclose(
        kernels.fwht(M), _explicit_hadamard(128) @ M, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(M, before)  # the input is not modified


def test_fwht_involution_up_to_scale(rng):
    v = rng.standard_normal(64)
    np.testing.assert_allclose(kernels.fwht(kernels.fwht(v.copy())) / 64, v,
                               atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200), st.integers(1, 12), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_segment_sqnorms_property(d, k, columns, seed):
    k = min(k, d)
    if columns:
        d -= d % k
    g = np.random.default_rng(seed).standard_normal(d)
    out = kernels.segment_sqnorms(g, k, columns)
    assert out.shape == (-(-d // k),)
    assert np.all(out >= 0)
    assert np.isclose(out.sum(), g @ g, rtol=1e-12)
