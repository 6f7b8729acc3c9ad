"""Bound evaluators, rate exponents, and the noise estimator."""

import math

import numpy as np
import pytest

from snsm import partition as part
from snsm.analysis import (
    estimate_noise,
    momentum_bound,
    rate_exponents,
    subset_sigmas,
    subsetnorm_bound,
)


# ---------------------------------------------------------------------------
# momentum bound

def test_alpha_formula():
    mb = momentum_bound(1.0, 1.0, 1.0, 100, beta1=0.9, fail_prob=0.1)
    assert np.isclose(mb.alpha, 10.5)


def test_momentum_bound_worked_example():
    mb = momentum_bound(1.0, 1.0, 1.0, 10 ** 4, beta1=0.9, fail_prob=0.1)
    assert np.isclose(mb.deterministic_term, 0.0084)
    assert np.isclose(mb.noise_term, 7 * math.sqrt(10.5) / 100)
    assert np.isclose(mb.concentration_term, 48 * math.log(10.0) / 10 ** 4)
    assert np.isclose(mb.total, 0.2463, atol=5e-4)


def test_momentum_bound_noiseless():
    mb = momentum_bound(2.0, 3.0, 0.0, 1000, beta1=0.5, fail_prob=0.1)
    alpha = 2.5 * 3.0 / 1.0
    assert np.isclose(mb.total, 8 * 2.0 * alpha / 1000)
    assert np.isclose(mb.eta_star, 1 / (2 * alpha))


def test_momentum_bound_monotonicity():
    base = dict(delta1=1.0, L=1.0, sigma=1.0, T=1000, beta1=0.9, fail_prob=0.1)
    ref = momentum_bound(**base).total
    assert momentum_bound(**{**base, "T": 4000}).total <= ref
    assert momentum_bound(**{**base, "sigma": 2.0}).total >= ref
    assert momentum_bound(**{**base, "L": 2.0}).total >= ref
    assert momentum_bound(**{**base, "delta1": 2.0}).total >= ref
    assert momentum_bound(**{**base, "beta1": 0.95}).total >= ref


def test_momentum_bound_validation():
    with pytest.raises(ValueError):
        momentum_bound(1.0, 1.0, 1.0, 100, beta1=1.0, fail_prob=0.1)
    with pytest.raises(ValueError):
        momentum_bound(1.0, 1.0, 1.0, 100, beta1=0.9, fail_prob=0.0)


@pytest.mark.parametrize("kw,term", [
    (dict(sigma=1e308), "sigma\\*\\*2"),  # sigma ** 2 raises OverflowError
    (dict(L=1e308), "alpha"),
    (dict(delta1=1e308), "deterministic_term"),
    (dict(sigma=9.5e152, delta1=1.2e306, T=1), "total"),  # finite terms, inf sum
    (dict(sigma=1e153, delta1=1e300), "eta_star"),  # its ratio's denominator overflows
    (dict(sigma=1e10, delta1=1e-300, T=10 ** 6), "eta_star"),  # the ratio underflows
])
def test_momentum_bound_overflow_names_the_term(kw, term):
    args = dict(delta1=1.0, L=1.0, sigma=1.0, T=100, beta1=0.9, fail_prob=0.1)
    with pytest.raises(ValueError, match=f"the bound's {term} "):
        momentum_bound(**{**args, **kw})


# ---------------------------------------------------------------------------
# subset-norm bound

def _zero_noise_bound(c=4, delta1=1.0, L=1.0, eta=0.01, T=10 ** 4, delta=0.1,
                      b0_val=1e-3):
    sig = np.zeros(c)
    b0 = np.full(c, b0_val)
    return subsetnorm_bound(delta1, L, eta, T, sig, b0, delta), (c, delta1, L,
                                                                 eta, T, b0_val)


def test_subsetnorm_bound_zero_noise_reduction():
    sb, (c, delta1, L, eta, T, b0v) = _zero_noise_bound()
    assert sb.H == 0.0
    I_expect = c * b0v + 2 * delta1 / eta + 8 * eta * L * c * math.log(4 * eta * L / b0v)
    assert np.isclose(sb.I, I_expect, rtol=1e-12)
    G_expect = delta1 / eta + (c * eta * L) * math.log(sb.I / b0v)
    assert np.isclose(sb.G, G_expect, rtol=1e-12)
    assert np.isclose(sb.rhs, sb.G * sb.I / T, rtol=1e-12)


def test_subsetnorm_bound_c1_structure():
    # a single subset collapses every per-subset sum to one term
    sig = np.array([0.7])
    b0 = np.array([0.01])
    sb = subsetnorm_bound(1.0, 1.0, 0.01, 1000, sig, b0, 0.1)
    assert sb.rhs > 0 and np.isfinite(sb.rhs)
    # doubling the lone sigma increases the bound
    sb2 = subsetnorm_bound(1.0, 1.0, 0.01, 1000, 2 * sig, b0, 0.1)
    assert sb2.rhs > sb.rhs


def test_subsetnorm_bound_eventually_decreasing_in_T():
    sig = np.full(4, 0.5)
    b0 = np.full(4, 0.1)
    vals = [subsetnorm_bound(1.0, 1.0, 0.01, T, sig, b0, 0.1).rhs
            for T in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8)]
    assert all(a > b for a, b in zip(vals[2:], vals[3:]))  # tail monotone


def test_subsetnorm_bound_validation():
    with pytest.raises(ValueError):
        subsetnorm_bound(1.0, 1.0, 0.01, 100, np.zeros(2), np.array([0.1, 0.0]), 0.1)
    with pytest.raises(ValueError):
        subsetnorm_bound(1.0, 1.0, 0.01, 100, np.zeros(2), np.ones(3), 0.1)


@pytest.mark.parametrize("sig", [
    [-0.001, -0.001],  # small enough that every term stays finite
    [-1.0, -1.0],  # a log of a negative number
])
def test_subsetnorm_bound_rejects_a_negative_noise_level(sig):
    with pytest.raises(ValueError, match="sigma_subsets entries must be >= 0"):
        subsetnorm_bound(1.0, 1.0, 0.01, 1000, np.array(sig), np.ones(2), 0.1)


@pytest.mark.parametrize("sig,b0,term", [
    ([1e200, 1e200], [1.0, 1.0], "H"),  # its squares overflow
    ([0.5, 1.0], [1e308, 1e308], "I"),  # the b0 sum overflows
])
def test_subsetnorm_bound_overflow_names_the_term(sig, b0, term):
    with pytest.raises(ValueError, match=f"the bound's {term} is inf"):
        subsetnorm_bound(1.0, 1.0, 0.01, 100, np.array(sig), np.array(b0), 0.1)


# ---------------------------------------------------------------------------
# rate exponents (table regression lives in the acceptance suite too)

def test_rate_exponents_table_rows():
    r0 = rate_exponents(0.0)
    assert r0.coord == (1.5, 2.5)
    assert r0.norm == (0.0, 0.0)
    assert (r0.subset_slow, r0.subset_fast) == (0.3, 1.0)
    assert r0.optimal_k_exponent == 0.0

    r5 = rate_exponents(0.5)
    assert r5.coord == (2.0, 2.5)
    assert r5.norm == (1.25, 1.5)
    assert (r5.subset_slow, r5.subset_fast) == (1.2, 1.5)

    r1 = rate_exponents(1.0)
    assert r1.coord == (2.5, 2.5)
    assert r1.norm == (2.5, 3.0)
    assert np.isclose(r1.subset_slow, 2.1)
    assert np.isclose(r1.subset_fast, 2.2)


def test_rate_exponents_branch_continuity():
    r = rate_exponents(2.0 / 3.0)
    assert np.isclose(r.subset_fast, 5.0 / 3.0)
    assert np.isclose(2.0 / 3.0 + 1.0, 1.6 * (2.0 / 3.0) + 0.6)


def test_rate_exponents_clamp():
    assert rate_exponents(0.2).optimal_k_exponent == 0.0
    assert np.isclose(rate_exponents(0.9).optimal_k_exponent, 0.66)


def test_rate_exponents_range():
    with pytest.raises(ValueError):
        rate_exponents(1.5)


# ---------------------------------------------------------------------------
# noise estimation

def test_estimate_noise_identical_samples():
    est = estimate_noise(np.ones((5, 3)))
    np.testing.assert_array_equal(est.per_coord_var, np.zeros(3))
    assert est.noisy_count == 0


def test_estimate_noise_two_sample_hand_case():
    est = estimate_noise(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(est.per_coord_var, [2.0])


def test_estimate_noise_gaussian_concentration():
    rng = np.random.default_rng(0)
    est = estimate_noise(rng.standard_normal((200, 100)))
    assert 0.8 <= est.per_coord_var.mean() <= 1.2


def test_estimate_noise_properties():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((50, 8))
    base = estimate_noise(samples).per_coord_var
    shifted = estimate_noise(samples + 3.7).per_coord_var
    np.testing.assert_allclose(shifted, base, atol=1e-12)
    permuted = estimate_noise(samples[rng.permutation(50)]).per_coord_var
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_estimate_noise_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_noise(np.ones((1, 4)))


@pytest.mark.parametrize("threshold,error", [
    (math.nan, "got nan"),
    (math.inf, "got inf"),
    (-1.0, "got -1.0"),  # would count zero-variance coordinates as noisy
    (0.0, None),
])
def test_estimate_noise_threshold_must_be_finite_and_non_negative(threshold, error):
    samples = np.array([[0.0, 1.0], [2.0, 1.0]])  # variances 2 and 0
    if error is None:
        assert estimate_noise(samples, threshold=threshold).noisy_count == 1
    else:
        with pytest.raises(ValueError, match=f"threshold must be finite and >= 0, {error}"):
            estimate_noise(samples, threshold=threshold)


def test_subset_sigmas():
    p = part.Partition(4, 2)
    sig = subset_sigmas(p, np.array([3.0, 4.0, 0.0, 1.0]))
    np.testing.assert_allclose(sig, [5.0, 1.0])
