"""Objectives, gradient oracles, noise patterns."""

import math

import numpy as np
import pytest

from snsm import harness, noise_models, parallel
from snsm.noise_models import (
    MLP2,
    ManifestEntry,
    NoiseModel,
    Quadratic,
    seed_words,
    stoch_grad,
    streams,
)
from snsm.optim import make_preset


def _finite_diff(obj, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value_and_grad(x + e)[0] - obj.value_and_grad(x - e)[0]) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# objectives

def test_quadratic_gradient_and_constants():
    obj = Quadratic(np.array([2.0, 2.0]))
    np.testing.assert_array_equal(obj.grad(np.ones(2)), [2.0, 2.0])
    assert obj.smoothness == 2.0
    assert obj.f_star == 0.0
    assert obj.value(np.zeros(2)) == 0.0


def test_quadratic_smoothness_exact():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 3.0, 10)
    obj = Quadratic(lam)
    for _ in range(20):
        x, y = rng.standard_normal(10), rng.standard_normal(10)
        lhs = np.linalg.norm(obj.grad(x) - obj.grad(y))
        assert lhs <= obj.smoothness * np.linalg.norm(x - y) + 1e-12


def test_objectives_act_row_by_row():
    # a stack of points gives each row exactly what that point gives alone
    rng = np.random.default_rng(3)
    quad = Quadratic(rng.uniform(0.1, 3.0, 10))
    mlp = MLP2(rng.standard_normal((16, 3)), rng.standard_normal(16), hidden=4)
    for obj in (quad, mlp):
        X = rng.uniform(-0.5, 0.5, (4, obj.d))
        values, grads = obj.value_and_grad(X)
        assert values.shape == (4,) and grads.shape == (4, obj.d)
        for x, v, g in zip(X, values, grads):
            value, grad = obj.value_and_grad(x)
            assert isinstance(value, float)
            assert v == value
            np.testing.assert_array_equal(g, grad)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_value_and_grad_is_one_pass_with_the_same_bits(lead):
    # one pass gives what the formulas written out separately give, bit for
    # bit: 0.5 sum(lam x x) and lam x for the quadratic (whose value and
    # grad give the same), half the mean squared error of one forward pass
    # and its backprop, layer by layer, for the network
    rng = np.random.default_rng(5)
    quad = Quadratic(rng.uniform(0.1, 3.0, 10))
    mlp = MLP2(rng.standard_normal((16, 3)), rng.standard_normal(16), hidden=4)

    def mlp_forward(x):
        W1, W2 = mlp.manifest.split(x)
        A = np.tanh(W1 @ mlp.X.T)
        return W2, A, (W2 @ A)[..., 0, :] - mlp.y

    def mlp_value(x):
        return 0.5 * np.mean(mlp_forward(x)[2] ** 2, axis=-1)

    def mlp_grad(x):
        W2, A, err = mlp_forward(x)
        n = len(mlp.y)
        gW2 = (err[..., None, :] @ A.mT) / n
        gW1 = (W2.mT @ err[..., None, :]) * (1.0 - A * A) @ mlp.X / n
        return np.concatenate([gW1.reshape(lead + (-1,)), gW2.reshape(lead + (-1,))],
                              axis=-1)

    def quad_value(x):
        return 0.5 * (quad.lam * x * x).sum(axis=-1)

    def quad_grad(x):
        return quad.lam * x

    for obj, value, grad in ((quad, quad_value, quad_grad), (mlp, mlp_value, mlp_grad)):
        x = rng.uniform(-0.5, 0.5, lead + (obj.d,))
        loss, g = obj.value_and_grad(x)
        assert np.array_equal(loss, value(x))
        np.testing.assert_array_equal(g, grad(x))
    x = rng.uniform(-0.5, 0.5, lead + (quad.d,))
    assert np.array_equal(quad.value(x), quad_value(x))
    np.testing.assert_array_equal(quad.grad(x), quad_grad(x))


@pytest.mark.parametrize("lead", [(), (15,)])
def test_isotropic_quadratic_holds_one_curvature(lead):
    # its lam is one read-only 1.0 seen d times, and steps as np.ones(d)
    # does, bit for bit
    d = 1024
    iso, ones = Quadratic.isotropic(d), Quadratic(np.ones(d))
    assert iso.lam.shape == (d,) and iso.lam.strides == (0,)
    low, high = np.lib.array_utils.byte_bounds(iso.lam)
    assert high - low == iso.lam.itemsize
    assert not iso.lam.flags.writeable
    assert (iso.d, iso.smoothness) == (ones.d, ones.smoothness) == (d, 1.0)
    assert iso.lam.sum() == ones.lam.sum() == d
    rng = np.random.default_rng(11)
    tiny = np.finfo(np.float64).smallest_subnormal
    for x in (rng.standard_normal(lead + (d,)),
              rng.integers(-2**40, 2**40, lead + (d,)) * tiny,  # subnormal
              np.where(rng.random(lead + (d,)) < 0.5, 0.0, -0.0)):
        (v_iso, g_iso), (v_ones, g_ones) = iso.value_and_grad(x), ones.value_and_grad(x)
        assert np.asarray(v_iso).tobytes() == np.asarray(v_ones).tobytes()
        assert g_iso.tobytes() == g_ones.tobytes() == x.tobytes()
        assert g_iso.flags.writeable and not np.shares_memory(g_iso, x)


def test_mlp2_gradient_finite_diff():
    rng = np.random.default_rng(2)
    obj = MLP2(rng.standard_normal((16, 3)), rng.standard_normal(16), hidden=4)
    x = rng.uniform(-0.5, 0.5, obj.d)
    np.testing.assert_allclose(obj.value_and_grad(x)[1], _finite_diff(obj, x), atol=1e-5)


# ---------------------------------------------------------------------------
# parameter manifests

def test_quadratic_manifest_is_one_linear_entry():
    assert Quadratic(np.ones(6)).manifest.entries == (ManifestEntry("x", "linear", (6,)),)
    assert Quadratic(np.ones(6), shape=(3, 2)).manifest.shapes == [(3, 2)]
    with pytest.raises(ValueError, match="param_shape must have objective.d elements"):
        Quadratic(np.ones(4), shape=(3, 2))


def test_mlp2_manifest_packs_w1_then_w2():
    rng = np.random.default_rng(1)
    obj = MLP2(rng.standard_normal((16, 3)), rng.standard_normal(16), hidden=4)
    assert obj.manifest.entries == (ManifestEntry("W1", "linear", (4, 3)),
                                    ManifestEntry("W2", "head", (1, 4)))
    assert obj.d == 4 * 3 + 4
    x = rng.standard_normal((2, obj.d))
    W1, W2 = obj.manifest.split(x)
    np.testing.assert_array_equal(W1, x[:, :12].reshape(2, 4, 3))
    np.testing.assert_array_equal(W2, x[:, 12:].reshape(2, 1, 4))
    np.testing.assert_array_equal(obj.manifest.join([W1, W2]), x)


def test_one_entry_split_and_join_copy_nothing():
    # a run of a 512x512 parameter holds its iterate once, not twice
    manifest = Quadratic(np.ones(12), shape=(4, 3)).manifest
    x = np.arange(24.0).reshape(2, 12)
    (view,) = manifest.split(x)
    assert view.shape == (2, 4, 3) and np.shares_memory(view, x)
    joined = manifest.join([view])
    assert joined.shape == x.shape and np.shares_memory(joined, x)


# ---------------------------------------------------------------------------
# noise models

def test_zero_noise_is_exact_gradient():
    obj = Quadratic(np.array([2.0, 2.0]))
    g = stoch_grad(obj, NoiseModel(), np.ones(2), seed=0, t=1)
    np.testing.assert_array_equal(g, [2.0, 2.0])


def test_stoch_grad_deterministic_in_seed_and_t():
    obj = Quadratic(np.ones(8))
    noise = NoiseModel(sigma=1.0)
    x = np.ones(8)
    a = stoch_grad(obj, noise, x, seed=3, t=7)
    b = stoch_grad(obj, noise, x, seed=3, t=7)
    c = stoch_grad(obj, noise, x, seed=3, t=8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_density_pattern_cardinality():
    for d, beta in [(100, 0.0), (100, 0.5), (10 ** 4, 0.5), (64, 1.0)]:
        sig = NoiseModel(density_beta=beta, density_alpha=2.0).per_coord_sigma(d)
        assert np.count_nonzero(sig) == math.ceil(d ** beta)
        assert np.all(sig[sig > 0] == 2.0)


def test_density_beta0_single_noisy_coordinate():
    obj = Quadratic(np.ones(100))
    noise = NoiseModel(density_beta=0.0, density_alpha=1.0)
    x = np.zeros(100)
    draws = np.array([stoch_grad(obj, noise, x, seed=0, t=t)
                      for t in range(10 ** 4)])
    var = draws.var(axis=0, ddof=1)
    assert 0.9 <= var[0] <= 1.1
    np.testing.assert_array_equal(var[1:], np.zeros(99))


def test_unbiasedness():
    obj = Quadratic(np.ones(4))
    noise = NoiseModel(sigma=1.0)
    x = np.ones(4)
    n = 10 ** 5
    mean = np.mean([stoch_grad(obj, noise, x, seed=1, t=t) for t in range(n)],
                   axis=0)
    assert np.all(np.abs(mean - obj.grad(x)) <= 5.0 / math.sqrt(n))


# the ids name the one distribution and placement: Gaussian on a prefix
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, None],
                         ids=lambda beta: f"{beta}-gaussian-contiguous")
def test_sample_prefix_draw_equals_full_draw(beta):
    # sample draws only the noisy prefix; the full-length draw of the same
    # stream, times the per-coordinate levels, is the same, also at level 1,
    # which sample does not multiply by
    for sigma, alpha in ((0.7, 1.5), (1.0, 1.0)):
        nm = NoiseModel(sigma=sigma, density_beta=beta, density_alpha=alpha)
        d = 1000
        sig = nm.per_coord_sigma(d)
        for t in range(1, 20):
            rng = np.random.default_rng(np.random.SeedSequence([5, t]))
            full = rng.standard_normal(d)
            got = nm.sample(d, np.random.default_rng(np.random.SeedSequence([5, t])))
            np.testing.assert_array_equal(got, full * sig)


def test_stoch_grad_rows_match_single_seed_calls(monkeypatch):
    obj = Quadratic(np.linspace(0.5, 2.0, 50))
    noise = NoiseModel(density_beta=0.5)
    X = np.random.default_rng(0).standard_normal((7, 50))
    seeds = [4, 0, 4, 9, 0, 4, 2]  # repeated seeds, as in the rows of a sweep
    draws = []
    real_sample = NoiseModel.sample

    def counting_sample(self, d, rng, out=None):
        draws.append(d)
        return real_sample(self, d, rng, out=out)

    monkeypatch.setattr(NoiseModel, "sample", counting_sample)
    batch = stoch_grad(obj, noise, X, seeds, t=9)
    assert len(draws) == len(set(seeds))  # one draw per distinct seed
    # the caller's true gradient is used as given
    assert np.array_equal(stoch_grad(obj, noise, X, seeds, t=9,
                                     true_grad=obj.grad(X)), batch)
    for row, x, seed in zip(batch, X, seeds):
        np.testing.assert_array_equal(row, stoch_grad(obj, noise, x, seed, t=9))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
        np.testing.assert_array_equal(row, obj.grad(x) + real_sample(noise, 50, rng))


@pytest.mark.parametrize("seeds", [
    [3, 1, 5, 3, 1, 5, 3, 1, 5],  # the distinct seeds once per row of a lockstep run
    [3, 1, 3, 5, 1],  # rows that dropped different seeds
    [3, 1, 5, 1, 3, 5],  # a multiple of the distinct seeds, not tiled
])
def test_stoch_grad_matches_a_per_row_reference(seeds):
    d, t = 40, 300
    obj = Quadratic(np.linspace(0.5, 2.0, d))
    noise = NoiseModel(density_beta=0.7)
    X = np.random.default_rng(1).standard_normal((len(seeds), d))
    want = [obj.grad(x) + noise.sample(
                d, np.random.default_rng(np.random.SeedSequence([seed, t])))
            for x, seed in zip(X, seeds)]
    np.testing.assert_array_equal(stoch_grad(obj, noise, X, seeds, t), np.array(want))


def test_stoch_grad_reads_seeds_of_any_sequence_type():
    # the harness hands over the list it keeps, which is read as given and
    # left unchanged; a tuple, an ndarray or a list of numpy ints gives the
    # same rows, and one point takes one int
    d, t = 30, 12
    obj = Quadratic(np.linspace(0.5, 2.0, d))
    noise = NoiseModel(sigma=0.3)
    X = np.random.default_rng(3).standard_normal((4, d))
    seeds = [5, 2, 5, 8]
    want = stoch_grad(obj, noise, X, seeds, t)
    assert seeds == [5, 2, 5, 8]
    for given in (tuple(seeds), np.array(seeds), np.array(seeds, dtype=np.uint32),
                  [np.int64(s) for s in seeds]):
        np.testing.assert_array_equal(stoch_grad(obj, noise, X, given, t), want)
    for x, seed, row in zip(X, seeds, want):
        np.testing.assert_array_equal(stoch_grad(obj, noise, x, seed, t), row)
        np.testing.assert_array_equal(stoch_grad(obj, noise, x, np.int64(seed), t), row)


# ---------------------------------------------------------------------------
# per-(seed, t) streams from bulk-derived keys

BLOCK = noise_models._KEY_BLOCK
GRID_SEEDS = [0, 1, 4, 9, *np.random.default_rng(2024).integers(0, 2 ** 32, 30).tolist(),
              2 ** 32 - 1]
GRID_STEPS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 999, 2 ** 32 - 1]


def _reference_rng(seed, t):
    return np.random.default_rng(np.random.SeedSequence([seed, t]))


def test_seed_words_equal_seed_sequence_state():
    words = seed_words(GRID_SEEDS, GRID_STEPS)
    assert words.shape == (len(GRID_SEEDS), len(GRID_STEPS), 4)
    assert words.dtype == np.uint64
    for i, seed in enumerate(GRID_SEEDS):
        for j, t in enumerate(GRID_STEPS):
            np.testing.assert_array_equal(
                words[i, j], np.random.SeedSequence([seed, t]).generate_state(4, np.uint64))


@pytest.mark.parametrize("t", GRID_STEPS)
def test_streams_equal_seed_sequence_streams(t):
    for seed, rng in zip(GRID_SEEDS, streams(GRID_SEEDS, t)):
        ref = _reference_rng(seed, t)
        np.testing.assert_array_equal(rng.bit_generator.random_raw(3),
                                      ref.bit_generator.random_raw(3))
        np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))


@pytest.mark.parametrize("seeds,t", [
    ([2 ** 32], 5), ([2 ** 40], 5), ([3, 2 ** 32], BLOCK + 1), ([3], 2 ** 32), ([7], 2 ** 40),
])
def test_multi_word_entropy_keeps_the_seed_sequence_path(seeds, t):
    for seed, rng in zip(seeds, streams(seeds, t)):
        ref = _reference_rng(seed, t)
        assert isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
        np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))


@pytest.mark.parametrize("seeds,steps", [
    ([-1], [0]), ([2 ** 32], [0]), ([0], [2 ** 32]), ([0.5], [0]), ([[0]], [0]),
])
def test_seed_words_rejects_values_beyond_one_word(seeds, steps):
    with pytest.raises(ValueError, match="integers in \\[0, 2\\*\\*32\\)"):
        seed_words(seeds, steps)


def test_negative_seed_still_rejected_by_the_oracle():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stoch_grad(Quadratic(np.ones(3)), NoiseModel(sigma=1.0), np.ones(3), seed=-1, t=1)


def test_each_key_block_is_derived_once(monkeypatch):
    blocks = []
    real = noise_models.seed_words

    def counting(seeds, steps):
        blocks.append((tuple(seeds.tolist()), int(steps[0])))
        return real(seeds, steps)

    monkeypatch.setattr(noise_models, "seed_words", counting)
    noise_models._key_block.cache_clear()
    # one process: a child would derive its blocks where this list cannot see
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    # the rows and both betas of a sweep share the blocks of its seeds
    harness.sweep_beta([0.0, 1.0], d=16, T=BLOCK + 10, seeds=range(3), subset_sizes=[4])
    assert blocks == [((0, 1, 2), 0), ((0, 1, 2), BLOCK)]
    # a random start reads the step-0 stream from the block its run reads
    # next, once for all the rows of the run
    blocks.clear()
    obj = MLP2(np.ones((4, 2)), np.zeros(4), hidden=3)
    config = harness.ExperimentConfig(objective=obj, noise=NoiseModel(sigma=0.1),
                                      T=20, seeds=(5, 6))
    harness.run_rows(config, [make_preset(p) for p in ("Adam", "AdamSN", "SGDm")])
    assert blocks == [((5, 6), 0)]
    scale = 1 / math.sqrt(obj.d_in)
    np.testing.assert_array_equal(
        harness._init_x1(config),
        [_reference_rng(s, 0).uniform(-scale, scale, obj.d) for s in (5, 6)])


@pytest.mark.parametrize("field", ["sigma", "density_alpha"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_noise_level_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("beta", [-0.5, 1.5, math.nan, math.inf])
def test_density_beta_checked_at_construction(beta):
    with pytest.raises(ValueError, match=r"density_beta must lie in \[0, 1\]"):
        NoiseModel(density_beta=beta)

