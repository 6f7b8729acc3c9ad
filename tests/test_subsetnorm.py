"""Subset-norm accumulator state: the AdaGrad (cumulative) and EMA rules."""

import numpy as np
import pytest

from snsm import partition as part
from snsm import subsetnorm as sn


def _cum_state(d=4, k=2, b0=1.0):
    return sn.sn_init(sn.AdaGradSubsetNorm(b0=b0), part.Partition(d, k))


def test_cumulative_hand_example():
    st = _cum_state()
    sn.sn_accumulate(st, np.array([25.0, 0.0]))
    np.testing.assert_array_equal(st.acc, [26.0, 1.0])
    np.testing.assert_allclose(sn.sn_denominators(st), [np.sqrt(26.0), 1.0])


def test_ema_one_step():
    st = sn.sn_init(sn.EMASubsetNorm(beta2=0.999), part.Partition(2, 1))
    sn.sn_accumulate(st, np.array([1.0, 1.0]))
    np.testing.assert_allclose(st.acc, [0.001, 0.001])


def test_zero_sqnorms():
    st = _cum_state()
    before = st.acc.copy()
    sn.sn_accumulate(st, np.zeros(2))
    np.testing.assert_array_equal(st.acc, before)
    ema = sn.sn_init(sn.EMASubsetNorm(beta2=0.9), part.Partition(2, 1))
    sn.sn_accumulate(ema, np.ones(2))
    acc1 = ema.acc.copy()
    sn.sn_accumulate(ema, np.zeros(2))
    np.testing.assert_allclose(ema.acc, 0.9 * acc1)


def test_negative_sqnorm_rejected():
    with pytest.raises(ValueError):
        sn.sn_accumulate(_cum_state(), np.array([1.0, -1e-9]))


def test_sqnorms_of_another_subset_count_rejected():
    # two subsets: three norms, or the two of one replica given to a state of
    # three replicas, leave the accumulators as they were
    for st, sq in ((_cum_state(), np.ones(3)),
                   (sn.sn_init(sn.EMASubsetNorm(), part.Partition(4, 2), (3,)),
                    np.ones(2))):
        before = st.acc.copy()
        with pytest.raises(ValueError, match="sqnorms length must equal the subset count$"):
            sn.sn_accumulate(st, sq)
        np.testing.assert_array_equal(st.acc, before)
        assert st.step == 0


def test_cumulative_monotone_denominators():
    p = part.Partition(6, 2)
    st = sn.sn_init(sn.AdaGradSubsetNorm(b0=1e-6), p)
    rng = np.random.default_rng(0)
    prev = sn.sn_denominators(st)
    for _ in range(50):
        sq = part.subset_sqnorms(p, rng.standard_normal(6))
        sn.sn_accumulate(st, sq)
        cur = sn.sn_denominators(st)
        assert np.all(cur >= prev)
        prev = cur


def test_ema_empty_accumulator_eps():
    st = sn.sn_init(sn.EMASubsetNorm(eps=1e-8), part.Partition(4, 2))
    np.testing.assert_allclose(sn.sn_denominators(st), [1e-8, 1e-8])


def test_ema_bias_correction():
    rule = sn.EMASubsetNorm(beta2=0.9)
    st = sn.sn_init(rule, part.Partition(2, 2))
    sn.sn_accumulate(st, np.array([4.0]))
    # corrected v-hat = 0.1 * 4 / (1 - 0.9) = 4
    np.testing.assert_allclose(sn.sn_denominators(st) - rule.eps, [2.0])


def test_norm_reduction_c1():
    # c=1 cumulative accumulates b0^2 + sum ||g||^2 in one scalar
    p = part.Partition(8, 8)
    st = sn.sn_init(sn.AdaGradSubsetNorm(b0=0.5), p)
    rng = np.random.default_rng(1)
    total = 0.25
    for _ in range(10):
        g = rng.standard_normal(8)
        total += g @ g
        sn.sn_accumulate(st, part.subset_sqnorms(p, g))
    np.testing.assert_allclose(sn.sn_denominators(st), [np.sqrt(total)])
