"""Optimizer template: presets, the step clock, clipping, state accounting."""

import dataclasses
import math

import numpy as np
import pytest

from snsm import subspace
from snsm.linalg import Frame, FrameKind, make_frame
from snsm.optim import (
    PRESET_NAMES,
    AdaGradSubsetNorm,
    EMAMomentum,
    EMASubsetNorm,
    GaloreMomentum,
    NonFiniteGradientError,
    Optimizer,
    OptimizerSpec,
    SubspaceMomentum,
    make_preset,
)


def _run_stream(preset_name, shapes, T=50, lr=0.01, seed=0, tags=None, **kw):
    spec = make_preset(preset_name, lr=lr, **kw)
    opt = Optimizer(spec, shapes, tags=tags)
    rng = np.random.default_rng(seed)
    params = [np.zeros(s) for s in shapes]
    history = []
    for t in range(1, T + 1):
        grads = [rng.standard_normal(s) for s in shapes]
        params = opt.step(params, grads, t)
        history.append([p.copy() for p in params])
    return history


def _run_batch(preset_name, shape, seeds, T, lr):
    """History of a batch stepped in lockstep; replica s draws its gradients
    from default_rng(seeds[s])."""
    opt = Optimizer(make_preset(preset_name, lr=lr), [shape])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x = np.zeros((len(seeds),) + shape)
    history = []
    for t in range(1, T + 1):
        g = np.stack([rng.standard_normal(shape) for rng in rngs])
        (x,) = opt.step([x], [g], t)
        history.append(x.copy())
    return history


def test_sgd_hand_example():
    opt = Optimizer(make_preset("SGD", lr=1.0), [(2,)])
    (x,) = opt.step([np.zeros(2)], [np.array([1.0, 2.0])], 1)
    np.testing.assert_array_equal(x, [-1.0, -2.0])


def test_sgdm_matches_reference():
    T = 30
    hist = _run_stream("SGDm", [(6,)], T=T, lr=0.05, seed=3)
    rng = np.random.default_rng(3)
    x = np.zeros(6)
    m = np.zeros(6)
    for t in range(T):
        g = rng.standard_normal(6)
        m = 0.9 * m + 0.1 * g
        x = x - 0.05 * m
        np.testing.assert_allclose(hist[t][0], x, atol=1e-12)


def test_adam_matches_reference():
    T = 40
    # RMSProp is Adam without momentum (beta1 = 0: m = g)
    for preset, b1 in (("Adam", 0.9), ("RMSProp", 0.0)):
        hist = _run_stream(preset, [(5,)], T=T, lr=0.01, seed=7)
        batch = _run_batch(preset, (5,), (7, 2, 13), T=T, lr=0.01)
        for s, seed in enumerate((7, 2, 13)):
            rng = np.random.default_rng(seed)
            x, m, v = np.zeros(5), np.zeros(5), np.zeros(5)
            b2, eps = 0.999, 1e-8
            for t in range(1, T + 1):
                g = rng.standard_normal(5)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                vh = v / (1 - b2 ** t)
                x = x - 0.01 * m / (np.sqrt(vh) + eps)
                if s == 0:
                    np.testing.assert_allclose(hist[t - 1][0], x, atol=1e-12,
                                               err_msg=preset)
                np.testing.assert_allclose(batch[t - 1][s], x, atol=1e-12,
                                           err_msg=f"{preset} replica {s}")


def test_adagradnorm_matches_reference():
    T = 25
    # AdaGrad-Norm sums all squares into one accumulator, AdaGrad keeps one
    # per coordinate
    for preset, norm in (("AdaGradNorm", True), ("AdaGrad", False)):
        hist = _run_stream(preset, [(4,)], T=T, lr=0.1, seed=11)
        batch = _run_batch(preset, (4,), (11, 0, 5), T=T, lr=0.1)
        for s, seed in enumerate((11, 0, 5)):
            rng = np.random.default_rng(seed)
            x = np.zeros(4)
            b2 = np.full(4, (1e-6) ** 2)
            for t in range(T):
                g = rng.standard_normal(4)
                b2 += g @ g if norm else g * g
                x = x - 0.1 * g / np.sqrt(b2)
                if s == 0:
                    np.testing.assert_allclose(hist[t][0], x, atol=1e-13,
                                               err_msg=preset)
                np.testing.assert_allclose(batch[t][s], x, atol=1e-13,
                                           err_msg=f"{preset} replica {s}")


def test_snsm_composite_one_step_by_hand():
    # identity frame + c=1 subset on a 2x2 parameter: direction is the EMA
    # momentum, denominator the shared root accumulated squared norm
    spec = make_preset("AdaGradSNSM", lr=1.0, rank=2, refresh_gap=0,
                       frame_kind=FrameKind.IDENTITY, subset_rule="norm")
    opt = Optimizer(spec, [(2, 2)])
    g = np.array([[3.0, 0.0], [0.0, 4.0]])
    (x,) = opt.step([np.zeros((2, 2))], [g], 1)
    denom = math.sqrt((1e-6) ** 2 + 25.0)
    np.testing.assert_allclose(x, -(0.1 * g) / denom, atol=1e-12)


def test_full_rank_subspace_ema_matches_adam():
    T = 20
    hist_a = _run_stream("Adam", [(4, 3)], T=T, lr=0.01, seed=5)
    hist_b = _run_stream("AdamSNSM", [(4, 3)], T=T, lr=0.01, seed=5, rank=4,
                         refresh_gap=0, frame_kind=FrameKind.IDENTITY,
                         subset_rule="coord")
    for a, b in zip(hist_a, hist_b):
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)


def test_transposed_parameter_orientation():
    # m < n: frames act over the column dimension; both orientations run
    hist = _run_stream("AdamSNSM", [(3, 8)], T=10, rank=2,
                       frame_kind=FrameKind.GAUSSIAN_ORTHO, refresh_gap=5)
    assert hist[-1][0].shape == (3, 8)
    assert np.all(np.isfinite(hist[-1][0]))


def test_non_linear_tag_falls_back():
    # on a non-linear parameter subspace momentum becomes EMA momentum and
    # the shape rules become coordinate-wise; norm and coord stay as they are
    rng = np.random.default_rng(0)
    for rule, emb_rule, emb_acc in (("heuristic2d", "coord", 32),
                                    ("equip", "coord", 32),
                                    ("coord", "coord", 32), ("norm", "norm", 1)):
        spec = make_preset("AdamSNSM", rank=2, subset_rule=rule,
                           subset_size=4 if rule == "equip" else None)
        opt = Optimizer(spec, [(8, 4), (8, 4)], tags=["linear", "embedding"])
        opt.step([np.zeros((8, 4))] * 2,
                 [rng.standard_normal((8, 4)) for _ in range(2)], 1)
        lin, emb = opt.slots
        assert isinstance(lin.m_state, subspace.SubspaceMomentumState) and lin.sn_state is not None
        assert isinstance(emb.m_state, np.ndarray)
        assert emb.sn_state.acc.size == emb_acc, rule
        assert emb.adaptive_cfg == dataclasses.replace(
            spec.adaptive, partition_rule=emb_rule, subset_size=None), rule
    # GaLore's own statistics become the coordinate EMA (Adam)
    opt = Optimizer(make_preset("GaLore", rank=2), [(8, 4)], tags=["embedding"])
    opt.step([np.zeros((8, 4))], [rng.standard_normal((8, 4))], 1)
    (slot,) = opt.slots
    assert isinstance(slot.m_state, np.ndarray)
    assert slot.adaptive_cfg == EMASubsetNorm("coord", beta2=0.999, eps=1e-8)
    assert slot.sn_state.acc.size == 32


@pytest.mark.parametrize("preset", ["AdamSNSM", "GaLore"])
@pytest.mark.parametrize("kind", ["svd", "srht", "approx_svd"])
@pytest.mark.parametrize("refresh_gap,frames", [(1, 4), (2, 3)])
def test_no_refresh_on_the_step_that_builds_the_frame(preset, kind, refresh_gap,
                                                      frames, monkeypatch):
    built = []
    make_frame = subspace.make_frame

    def counting_make_frame(*args, **kwargs):
        built.append(args)
        return make_frame(*args, **kwargs)

    monkeypatch.setattr(subspace, "make_frame", counting_make_frame)
    _run_stream(preset, [(32, 16)], T=4, rank=4, frame_kind=kind,
                refresh_gap=refresh_gap)
    assert len(built) == frames


@pytest.mark.parametrize("preset", ["AdamSNSM", "GaLore"])
@pytest.mark.parametrize("shape", [(32, 16), (16, 32)])
@pytest.mark.parametrize("refresh_gap", [200, 0])
def test_first_svd_frame_spans_first_gradient(preset, shape, refresh_gap):
    k = 4
    opt = Optimizer(make_preset(preset, rank=k, refresh_gap=refresh_gap),
                    [shape])
    g = np.random.default_rng(2).standard_normal(shape)
    opt.step([np.zeros(shape)], [g], 1)
    slot = opt.slots[0]
    state = slot.m_state
    G = g.T if shape[0] < shape[1] else g  # frames act on the larger side
    U = np.linalg.svd(G, full_matrices=False)[0][:, :k]
    capture = np.linalg.norm(state.frame.rows[0] @ U) ** 2 / k  # replica 0 of 1
    assert capture >= 1 - 1e-10


def test_first_top_k_rows_frame_picks_largest_gradient_rows():
    opt = Optimizer(make_preset("AdamSNSM", rank=3, frame_kind="top_k_rows"),
                    [(10, 4)])
    g = np.random.default_rng(5).standard_normal((10, 4))
    g[[1, 6, 8]] *= 10.0
    opt.step([np.zeros((10, 4))], [g], 1)
    np.testing.assert_array_equal(opt.slots[0].m_state.frame.indices, [[1, 6, 8]])


@pytest.mark.parametrize("preset,shape,kw", [
    ("AdamSNSM", (16, 8), dict(rank=17)),  # rank > m for every kind
    ("GaLore", (8, 16), dict(rank=17)),  # oriented m is the larger side
    ("AdamSNSM", (16, 8), dict(rank=9)),  # svd needs rank <= min(m, n)
    ("GaLore", (16, 8), dict(rank=9, frame_kind="approx_svd")),
    ("SGD-SM", (16, 8), dict(rank=-1, frame_kind="gaussian_ortho")),
    ("SGD-SM", (16, 8), dict(rank=4, frame_kind="identity")),
])
def test_frame_rank_validated_at_construction(preset, shape, kw):
    with pytest.raises(ValueError, match="k ==|out of range"):
        Optimizer(make_preset(preset, **kw), [shape])


@pytest.mark.parametrize("kind,rank", [
    ("gaussian_ortho", 17), ("srht", -1), ("svd", 9), ("approx_svd", 9),
    ("identity", 4), ("zero", 17),
])
def test_make_frame_and_optimizer_reject_the_same_ranks(kind, rank):
    with pytest.raises(ValueError) as from_optimizer:
        Optimizer(make_preset("SGD-SM", rank=rank, frame_kind=kind), [(16, 8)])
    with pytest.raises(ValueError) as from_frame:
        make_frame(kind, 16, rank, reference_grad=np.ones((16, 8)))
    assert str(from_optimizer.value) == str(from_frame.value)


def test_rank_above_n_allowed_for_non_svd_frames():
    opt = Optimizer(make_preset("AdamSNSM", rank=9, frame_kind="srht"),
                    [(16, 8)])
    assert opt.state_size().frame_elements == 9 + 16


def test_nan_gradient_rejected():
    opt = Optimizer(make_preset("SGD"), [(2,)])
    x = [np.zeros(2)]
    with pytest.raises(NonFiniteGradientError):
        opt.step(x, [np.array([1.0, np.nan])], 1)
    with pytest.raises(NonFiniteGradientError):
        opt.step(x, [np.array([np.inf, 0.0])], 1)


def test_nan_gradient_names_the_replicas():
    opt = Optimizer(make_preset("AdamSN"), [(2, 3), (4,)])
    params = [np.zeros((4, 2, 3)), np.zeros((4, 4))]
    grads = [np.ones((4, 2, 3)), np.ones((4, 4))]
    grads[0][1, 0, 2] = np.nan
    grads[1][3, 1] = np.inf
    with pytest.raises(NonFiniteGradientError) as exc:
        opt.step(params, grads, 1)
    assert exc.value.replicas == (1, 3)
    assert not opt.slots[0].built  # the step was rejected before any state


def test_shape_mismatch_rejected():
    opt = Optimizer(make_preset("SGD"), [(2,)])
    with pytest.raises(ValueError):
        opt.step([np.zeros(3)], [np.zeros(3)], 1)
    # after a step has fixed the layout, a step that leaves it still gets
    # the per-parameter check
    opt.step([np.zeros((3, 2))], [np.ones((3, 2))], 1)
    for p, g in ((np.zeros((3, 2)), np.ones((3, 4))),  # g's shape is not p's
                 (np.zeros((3, 4)), np.ones((3, 4)))):  # nor the slot's, same lead
        with pytest.raises(ValueError, match="parameter/gradient shape mismatch"):
            opt.step([p], [g], 2)


def test_replica_count_fixed_by_first_step():
    opt = Optimizer(make_preset("SGDm"), [(2,), (3,)])
    with pytest.raises(ValueError, match="disagree"):
        opt.step([np.zeros((2, 2)), np.zeros(3)], [np.zeros((2, 2)), np.zeros(3)], 1)
    params = [np.zeros((2, 2)), np.zeros((2, 3))]
    params = opt.step(params, [np.ones((2, 2)), np.ones((2, 3))], 1)
    assert [p.shape for p in params] == [(2, 2), (2, 3)]
    with pytest.raises(ValueError, match="replicas"):
        opt.step([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)], 2)
    opt.keep_replicas([1])
    assert opt.slots[0].m_state.shape == (1, 2)
    (x, y) = opt.step([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)], 2)
    assert x.shape == (2,) and y.shape == (3,)  # one replica may drop its axis


@pytest.mark.parametrize("kw", [{}, dict(weight_decay=0.01, clip_norm=1.0)])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_step_never_writes_its_inputs(preset, kw):
    # every array a step writes is one the step made: read-only params and
    # gradients pass, tall, wide (stepped transposed) and flat, one replica
    # or a stack of three
    rng = np.random.default_rng(11)
    for shape in ((64,), (12, 8), (8, 12)):
        for lead in ((), (3,)):
            rank = min(2, len(shape))  # a flat parameter is a d x 1 matrix
            opt = Optimizer(make_preset(preset, lr=0.01, rank=rank, refresh_gap=2,
                                        **kw), [shape])
            params = [rng.standard_normal(lead + shape)]
            for t in range(1, 6):
                grads = [rng.standard_normal(lead + shape)]
                frozen = [a.copy() for a in params + grads]
                for a in params + grads:
                    a.flags.writeable = False
                new = opt.step(params, grads, t)
                for a, before in zip(params + grads, frozen):
                    np.testing.assert_array_equal(a, before)
                params = new


def test_global_norm_clipping():
    spec = make_preset("SGD", lr=1.0, clip_norm=1.0)
    opt = Optimizer(spec, [(2,), (2,)])
    grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]  # joint norm 5
    xs = opt.step([np.zeros(2), np.zeros(2)], grads, 1)
    moved = np.concatenate([-x for x in xs])
    assert np.linalg.norm(moved) <= 1.0 + 1e-12
    np.testing.assert_allclose(moved, [0.6, 0.0, 0.0, 0.8], atol=1e-12)


def test_decoupled_weight_decay():
    spec = make_preset("SGD", lr=0.1, weight_decay=0.5)
    opt = Optimizer(spec, [(1,)])
    (x,) = opt.step([np.array([2.0])], [np.array([0.0])], 1)
    np.testing.assert_allclose(x, [2.0 - 0.1 * 0.5 * 2.0])


@pytest.mark.parametrize("kw,message", [
    (dict(clip_norm=-1.0), "clip_norm must be finite and > 0, got -1.0"),  # would ascend
    (dict(clip_norm=0.0), "clip_norm must be finite and > 0, got 0.0"),  # would never move
    (dict(lr=-0.1), "lr must be finite and > 0, got -0.1"),  # would ascend
    (dict(lr=math.nan), "lr must be finite and > 0, got nan"),
    (dict(weight_decay=-5.0), "weight_decay must be finite and >= 0, got -5.0"),
    (dict(refresh_gap=-1), "refresh_gap must be >= 0, got -1"),  # not a fixed subspace
])
@pytest.mark.parametrize("preset", ["SGD", "AdamSNSM", "GaLore"])
def test_preset_rejects_bad_step_values(preset, kw, message):
    with pytest.raises(ValueError, match=message):
        make_preset(preset, **kw)


_OPEN_BETA2_ID = r"<lambda>-beta2 must lie in \(0, 1\)"


@pytest.mark.parametrize("build,message", [
    (lambda: OptimizerSpec(base_lr=-0.1), "lr must be finite and > 0"),
    (lambda: OptimizerSpec(clip_norm=-1.0), "clip_norm must be finite and > 0"),
    (lambda: OptimizerSpec(weight_decay=-5.0), "weight_decay must be finite and >= 0"),
    (lambda: dataclasses.replace(make_preset("SGD"), clip_norm=-1.0),
     "clip_norm must be finite and > 0"),
    (lambda: SubspaceMomentum(refresh_gap=-1), "refresh_gap must be >= 0"),
    (lambda: GaloreMomentum(refresh_gap=-1), "refresh_gap must be >= 0"),
    # rule values are checked when the rule is built, not at the first step:
    # an SN rule that could divide by zero, an EMA factor of 1 that never
    # moves (GaLore's bias correction divides by zero) or above 1 that grows
    # the EMA factor's interval was (0, 1) before it became [0, 1); these rows
    # keep the ids they had then
    pytest.param(lambda: EMASubsetNorm("coord", beta2=1.5),
                 r"beta2 must lie in \[0, 1\), got 1.5$", id=_OPEN_BETA2_ID + "$"),
    pytest.param(lambda: EMASubsetNorm(beta2=-0.1),
                 r"beta2 must lie in \[0, 1\), got -0.1$", id=_OPEN_BETA2_ID + "$"),
    (lambda: AdaGradSubsetNorm(b0=0.0), "AdaGrad subset norm requires b0 > 0$"),
    # eps = 0 divides an empty accumulator by zero, and so does a b0 whose
    # square underflows to 0
    (lambda: EMASubsetNorm(eps=0.0), "eps must be finite and > 0, got 0.0$"),
    (lambda: GaloreMomentum(eps=0.0), "eps must be finite and > 0, got 0.0$"),
    (lambda: AdaGradSubsetNorm(b0=1e-200), r"b0\*\*2 > 0, got 1e-200$"),
    # a partition rule is known, and a subset size comes with equip alone
    (lambda: EMASubsetNorm("bogus"), "unknown partition rule 'bogus'"),
    (lambda: AdaGradSubsetNorm("equip"), "equip rule requires subset_size$"),
    (lambda: EMASubsetNorm("coord", subset_size=4),
     "the coord partition rule takes no subset_size, got 4$"),
    (lambda: SubspaceMomentum("bogus"), "'bogus' is not a valid FrameKind"),
    (lambda: EMAMomentum(beta1=1.5), r"beta1 must lie in \[0, 1\), got 1.5$"),
    (lambda: EMAMomentum(beta1=-0.1), r"beta1 must lie in \[0, 1\), got -0.1$"),
    (lambda: SubspaceMomentum(beta1=1.0), r"beta1 must lie in \[0, 1\), got 1.0$"),
    (lambda: GaloreMomentum(beta1=1.0), r"beta1 must lie in \[0, 1\), got 1.0$"),
    (lambda: GaloreMomentum(beta2=1.0), r"beta2 must lie in \[0, 1\), got 1.0$"),
    (lambda: GaloreMomentum(beta2=math.nan), r"beta2 must lie in \[0, 1\), got nan$"),
    # the rules of a preset cannot be given such a value either
    pytest.param(lambda: dataclasses.replace(make_preset("Adam").adaptive, beta2=1.5),
                 r"beta2 must lie in \[0, 1\), got 1.5", id=_OPEN_BETA2_ID),
    (lambda: dataclasses.replace(make_preset("AdaGradSN").adaptive, b0=0.0),
     "requires b0 > 0"),
    (lambda: dataclasses.replace(make_preset("SGDm").momentum, beta1=1.5),
     r"beta1 must lie in \[0, 1\)"),
    (lambda: dataclasses.replace(make_preset("AdamSNSM").momentum, beta1=1.0),
     r"beta1 must lie in \[0, 1\)"),
    (lambda: dataclasses.replace(make_preset("GaLore").momentum, beta2=1.0),
     r"beta2 must lie in \[0, 1\)"),
])
def test_spec_components_reject_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_rule_spec_edges_are_accepted():
    # beta = 0 is no averaging; the optimizer builds and steps
    spec = OptimizerSpec(EMAMomentum(beta1=0.0), AdaGradSubsetNorm("coord", b0=1e-12))
    x = Optimizer(spec, [(3,)]).step([np.ones(3)], [np.ones(3)], 1)[0]
    assert np.isfinite(x).all()
    GaloreMomentum(beta1=0.0, beta2=0.0)
    SubspaceMomentum(beta1=0.0)
    EMASubsetNorm(beta2=0.0)


def test_frame_kind_string_counts_as_its_kind():
    # a 'zero' frame keeps no momentum buffer, whatever the rank
    spec = OptimizerSpec(SubspaceMomentum("zero", rank=3))
    assert spec.momentum.frame_kind is FrameKind.ZERO
    assert Optimizer(spec, [(12, 6)]).state_size().total == 0


def test_identity_string_rank_checked_at_construction():
    spec = OptimizerSpec(SubspaceMomentum("identity", rank=3))
    with pytest.raises(ValueError, match="identity frame requires k == m"):
        Optimizer(spec, [(12, 6)])


def test_galore_beta2_zero_steps_on_a_non_linear_tensor():
    # off a linear tensor GaLore's beta2 drives the coordinate EMA rule,
    # which accepts the same [0, 1)
    opt = Optimizer(OptimizerSpec(GaloreMomentum(beta2=0.0)), [(8, 4)],
                    tags=["embedding"])
    (x,) = opt.step([np.zeros((8, 4))], [np.ones((8, 4))], 1)
    assert np.isfinite(x).all() and np.any(x != 0)


def test_unknown_preset():
    with pytest.raises(ValueError):
        make_preset("Shampoo")


# ---------------------------------------------------------------------------
# the step clock

def test_steps_need_no_step_budget():
    # every step runs at base_lr, however many steps come; t only clocks the
    # frame refreshes, and it starts at 1
    opt = Optimizer(make_preset("Adam", lr=0.1), [(4,)])
    x = np.zeros(4)
    for t in range(1, 6):
        (x,) = opt.step([x], [np.ones(4)], t)
    # g = 1: m_t = 1 - 0.9^t and the bias-corrected v is 1
    steps = sum(0.1 * (1 - 0.9 ** t) / (1 + 1e-8) for t in range(1, 6))
    np.testing.assert_allclose(x, np.full(4, -steps), rtol=1e-12)
    with pytest.raises(ValueError, match="step index t must be >= 1, got 0"):
        Optimizer(make_preset("Adam", lr=0.1), [(4,)]).step(
            [np.zeros(4)], [np.ones(4)], 0)


# ---------------------------------------------------------------------------
# state accounting

@pytest.mark.parametrize("shapes", [[(512, 128)], [(512, 128), (2048, 1024)]])
def test_state_size_formulas(shapes):
    r = 4
    expect = {
        "Adam": sum(2 * m * n for m, n in shapes),
        "AdamSN": sum(m * n + max(m, n) for m, n in shapes),
        "RMSPropSN": sum(max(m, n) for m, n in shapes),
        "AdamSNSM": sum(r * min(m, n) + max(m, n) for m, n in shapes),
        "GaLore": sum(2 * r * min(m, n) for m, n in shapes),
        "SGD": 0,
    }
    for name, total in expect.items():
        opt = Optimizer(make_preset(name, rank=r), shapes)
        assert opt.state_size().total == total, name


def test_state_size_frame_reported_separately():
    opt = Optimizer(make_preset("AdamSNSM", rank=4), [(512, 128)])
    ss = opt.state_size()
    assert ss.frame_elements == 4 * 512


def test_state_size_counts_one_norm_accumulator_per_tensor():
    # AdaGradNorm keeps one scalar accumulator per tensor
    opt = Optimizer(make_preset("AdaGradNorm"), [(64,), (8, 4), (1,)])
    assert opt.state_size().total == 3


def test_state_size_constant_over_steps():
    opt = Optimizer(make_preset("AdamSN"), [(16, 8)])
    before = opt.state_size().total
    params = [np.zeros((16, 8))]
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        params = opt.step(params, [rng.standard_normal((16, 8))], t)
    assert opt.state_size().total == before


def _held_arrays(obj, in_frame=False):
    """(size, inside a frame) for every ndarray reachable from obj's fields."""
    out = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            out.append((value.size, in_frame))
        elif dataclasses.is_dataclass(value):
            out += _held_arrays(value, in_frame or isinstance(value, Frame))
    return out


# (shape, frame kind, rank): square, tall, wide (transposed), 1-D, SRHT over
# a power-of-two and a padded dimension, rank 0, every frame kind, then
# one-element tensors
KIND_CASES = [((12, 6), kind.value, 12 if kind is FrameKind.IDENTITY else 3)
              for kind in FrameKind]
# a wide seed-drawn frame sits between the kinds, so that the cases of the
# kinds after it keep their ids
ACCOUNTING_CASES = [
    ((16, 16), "svd", 4), ((24, 8), "svd", 4), ((8, 24), "svd", 4),
    ((30,), "svd", 1), ((32, 8), "srht", 4), ((24, 8), "srht", 4),
    ((16, 8), "svd", 0),
] + KIND_CASES[:3] + [((6, 12), "gaussian_ortho", 3)] + KIND_CASES[3:] + [
    ((1,), "svd", 1), ((1, 1), "svd", 1),
]


@pytest.mark.parametrize("tag", ["linear", "embedding"])
@pytest.mark.parametrize("shape,kind,rank", ACCOUNTING_CASES)
def test_state_elements_match_held_buffers(shape, kind, rank, tag):
    rng = np.random.default_rng(0)
    for preset in PRESET_NAMES:
        for replicas in (1, 3):
            spec = make_preset(preset, rank=rank, frame_kind=kind, refresh_gap=2)
            opt = Optimizer(spec, [shape], tags=[tag])
            slot = opt.slots[0]
            assert _held_arrays(slot) == [], preset  # construction allocates nothing
            before = slot.state_elements()
            batch = () if replicas == 1 else (replicas,)
            params = [np.zeros(batch + shape)]
            for t in (1, 2):  # the second step refreshes the frame
                params = opt.step(params, [rng.standard_normal(batch + shape)], t)
            elems = slot.state_elements()
            assert elems == before, preset
            # every array holds one copy per replica; state_elements counts one
            held = [(n // replicas, f) for n, f in _held_arrays(slot)]
            assert all(n * replicas == size for (n, _), (size, _)
                       in zip(held, _held_arrays(slot))), preset
            state, frame = elems
            assert sum(n for n, f in held if not f) == state, preset
            assert sum(n for n, f in held if f) == frame, preset
