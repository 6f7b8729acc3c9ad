"""Runner, sweep, bound verification, manifests, CSV output, and the CLI."""

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from snsm import harness, openblas, parallel
from snsm.analysis import momentum_bound
from snsm.cli import rows_to_csv
from snsm.harness import (
    RECORD_FIELDS,
    ExperimentConfig,
    mem_report,
    run,
    run_rows,
    sweep_beta,
    sweep_verdict,
    verify_thm2,
)
from snsm.linalg import NumericError
from snsm.noise_models import MLP2, NoiseModel, Quadratic, parse_manifest, stoch_grad
from snsm.optim import Optimizer, make_preset


CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _config_and_spec(preset, **kw):
    """(config, spec): the ExperimentConfig fields of ``kw`` build the
    config, the rest go to make_preset."""
    spec_kw = {k: kw.pop(k) for k in list(kw) if k not in CONFIG_FIELDS}
    return ExperimentConfig(**kw), make_preset(preset, **spec_kw)


def _quad_config(d=2, preset="SGD", **kw):
    base = dict(objective=Quadratic(np.ones(d)), noise=NoiseModel(), T=100,
                seeds=(0,), lr=0.1)
    return _config_and_spec(preset, **dict(base, **kw))


def test_sgd_geometric_contraction():
    res = run(*_quad_config())
    s = res.summaries[0]
    # (1 - lr*lam)^(2T) contraction of the loss from delta1 = 1
    assert s.final_loss <= 1e-4 * 1.0
    assert not s.diverged


def test_delta1_controls_initial_loss():
    res = run(*_quad_config(d=10, delta1=2.5, T=1))
    assert np.isclose(res.records[0].loss, 2.5)


def test_sn_c1_matches_adagradnorm_stream():
    d, T, lr, noise = 4, 200, 0.05, NoiseModel(sigma=0.3)
    obj = Quadratic(np.ones(d))
    # AdaGrad-Norm written out: one accumulator of all squared gradients
    x = np.full(d, np.sqrt(2.0 / d))  # f(x1) = delta1 = 1
    b2 = (1e-6) ** 2
    expected = []
    for t in range(1, T + 1):
        g_true = obj.grad(x)
        # ||grad f||^2 summed as the harness sums it, not by a BLAS dot
        expected.append((t, obj.value(x),
                         float(np.einsum("...i,...i->...", g_true, g_true)), lr))
        g = stoch_grad(obj, noise, x, 0, t)
        b2 += np.sum(g * g)
        x = x - lr * g / np.sqrt(b2)
    for preset, kw in (("AdaGradSN", dict(subset_rule="norm")), ("AdaGradNorm", {})):
        res = run(*_quad_config(preset=preset, d=d, T=T, lr=lr, noise=noise, **kw))
        got = [(r.step, r.loss, r.grad_norm_sq, r.lr) for r in res.records]
        assert got == expected, preset  # identical record streams


def test_grad_norm_does_not_follow_the_blas_thread_count():
    # at d > 10000 a BLAS dot splits its sum across threads; the recorded
    # ||grad f||^2 must not change with their number
    argv = [sys.executable, "-m", "snsm.cli", "train", "--d", "262144",
            "--param-shape", "512x512", "--preset", "Adam", "--T", "3",
            "--lr", "1e-3", "--sigma", "1e-3", "--format", "csv"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_divergence_flagged_with_partial_records():
    res = run(*_quad_config(T=400, lr=10.0))  # lr > 2/L diverges
    assert res.any_diverged
    assert 0 < len(res.records) < 400
    assert all(np.isfinite(r.loss) for r in res.records)


def test_summary_matches_recorded_mean():
    res = run(*_quad_config(T=50, noise=NoiseModel(sigma=0.1)))
    recorded = np.mean([r.grad_norm_sq for r in res.records])
    assert abs(res.summaries[0].mean_grad_norm_sq - recorded) <= 1e-12


# ---------------------------------------------------------------------------
# lockstep seeds: S seeds in one batch step exactly as S one-seed runs

TALL_WIDE = ((12, 8), (8, 12))
LOCKSTEP_CASES = [
    ("SGD", {}, TALL_WIDE), ("SGDm", {}, TALL_WIDE), ("Adam", {}, TALL_WIDE),
    ("AdaGradNorm", {}, TALL_WIDE),
    ("AdamSN", {}, TALL_WIDE),  # heuristic2d: rows when tall, columns when wide
    ("AdamSN", dict(subset_rule="equip", subset_size=8), TALL_WIDE),
    ("AdamSN", {}, ((96,),)),  # sqrt heuristic: 20 blocks of 5, the last of 1
    ("AdaGradSN", {}, TALL_WIDE),
    ("SGD-SM", dict(frame_kind="gaussian_ortho", refresh_gap=0), TALL_WIDE),
    ("AdamSNSM", dict(frame_kind="svd"), TALL_WIDE),
    ("AdamSNSM", dict(frame_kind="srht"), ((16, 6), (6, 16))),  # power of two
    ("AdamSNSM", dict(frame_kind="srht"), TALL_WIDE),  # padded 12 -> 16
    ("AdamSNSM", dict(frame_kind="row_subset"), TALL_WIDE),
    ("AdamSNSM", dict(frame_kind="top_k_rows"), TALL_WIDE),
    ("AdamSNSM", dict(frame_kind="approx_svd"), TALL_WIDE),
    ("GaLore", {}, TALL_WIDE),
]


def _lockstep_config(preset, shape, seeds, **kw):
    d = int(np.prod(shape))
    base = dict(objective=Quadratic(np.linspace(0.5, 2.0, d), shape=shape),
                noise=NoiseModel(sigma=0.3), T=20, seeds=seeds, lr=0.05, rank=3)
    return _config_and_spec(preset, **dict(base, **kw))


def _assert_lockstep_equals_alone(make_config, seeds):
    batch = run(*make_config(seeds))
    alone = [run(*make_config((seed,))) for seed in seeds]
    assert batch.records == [r for res in alone for r in res.records]
    assert batch.summaries == [res.summaries[0] for res in alone]
    return batch


@pytest.mark.parametrize("refresh_gap", [1, 7])
@pytest.mark.parametrize("preset,kw,shapes", LOCKSTEP_CASES)
def test_lockstep_run_matches_one_seed_runs(preset, kw, shapes, refresh_gap):
    kw = dict(dict(refresh_gap=refresh_gap), **kw)
    for shape in shapes:
        _assert_lockstep_equals_alone(
            lambda seeds: _lockstep_config(preset, shape, seeds, **kw), (4, 0, 9))


@pytest.mark.parametrize("preset,kw", [
    pytest.param("Adam", {}, id="Adam"),
    # W1 (4, 3) carries the frame; W2 (1, 4) falls back to EMA momentum / Adam
    pytest.param("AdamSNSM", dict(frame_kind="svd", rank=2, refresh_gap=4),
                 id="AdamSNSM"),
    pytest.param("GaLore", dict(rank=2, refresh_gap=4), id="GaLore"),
    pytest.param("AdaGradNorm", {}, id="AdaGradNorm"),  # one norm per tensor
])
def test_lockstep_mlp2_matches_one_seed_runs(preset, kw):
    rng = np.random.default_rng(0)
    obj = MLP2(rng.standard_normal((16, 3)), rng.standard_normal(16), hidden=4)
    _assert_lockstep_equals_alone(
        lambda seeds: (ExperimentConfig(objective=obj, noise=NoiseModel(sigma=0.1),
                                        T=15, seeds=seeds),
                       make_preset(preset, lr=0.05, **kw)),
        (2, 5, 1))


def _inject(monkeypatch, bad_seed, bad_t, value):
    """Make the oracle return ``value`` for one (seed, t)."""
    real = harness.stoch_grad

    def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
        g = real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)
        if t == bad_t:
            g[np.asarray(seed) == bad_seed] = value
        return g

    monkeypatch.setattr(harness, "stoch_grad", oracle)


@pytest.mark.parametrize("route,preset,kw", [
    # a huge finite gradient makes the next loss overflow: the seed stops
    # before the record of step bad_t + 1
    ("loss", "SGD", {}), ("loss", "SGDm", {}),
    ("loss", "SGD-SM", dict(frame_kind="svd", refresh_gap=4)),
    # a NaN gradient is rejected by the optimizer after the record of bad_t
    ("gradient", "SGD", {}), ("gradient", "Adam", {}),
    ("gradient", "AdaGradSN", {}),
    ("gradient", "AdamSNSM", dict(frame_kind="svd", refresh_gap=4)),
    ("gradient", "GaLore", dict(refresh_gap=4)),
])
def test_diverging_seed_leaves_the_batch(monkeypatch, route, preset, kw):
    # the seed leaves at t = 6 or 7, between refreshes, so that a frame
    # dropped wrongly is still in use afterwards
    bad_seed, bad_t = 7, 6
    _inject(monkeypatch, bad_seed, bad_t, 1e200 if route == "loss" else np.nan)
    seeds = (3, 7, 1, 5)
    batch = _assert_lockstep_equals_alone(
        lambda s: _lockstep_config(preset, (12, 8), s, **kw), seeds)
    assert [s.diverged for s in batch.summaries] == [False, True, False, False]
    last = max(r.step for r in batch.records if r.seed == bad_seed)
    assert last == bad_t
    assert all(max(r.step for r in batch.records if r.seed == s) == 20
               for s in (3, 1, 5))


MIXED_ROWS = [
    ("SGD", {}), ("Adam", {}), ("AdaGradNorm", {}),
    ("AdaGradSN", dict(subset_rule="equip", subset_size=8)),
    # lr 1.5 > 2/L: finite here, until one seed's huge gradient overflows its loss
    ("SGD", dict(lr=1.5)),
]


def test_rows_in_lockstep_match_one_config_runs(monkeypatch):
    real = harness.stoch_grad
    calls = []

    def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
        calls.append(t)
        g = real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)
        seed = np.asarray(seed)
        if t == 6:
            # a coordinate whose square still fits a float64: only the SGD row
            # at lr 1.5 overflows its loss and drops seed 7 (loss route)
            g[seed == 7, -1] = 1e154
        if t == 9:
            g[seed == 1] = np.nan  # every row rejects seed 1 (gradient route)
        return g

    monkeypatch.setattr(harness, "stoch_grad", oracle)
    config, _ = _lockstep_config("SGD", (12, 8), (3, 7, 1, 5))
    specs = [make_preset(preset, **dict(dict(lr=0.05), **kw))
             for preset, kw in MIXED_ROWS]
    together = run_rows(config, specs)
    # one oracle call per step for all rows; none at t = T, which makes no update
    assert calls == list(range(1, 20))
    alone = [run(config, spec) for spec in specs]
    assert [res.records for res in together] == [res.records for res in alone]
    assert [res.summaries for res in together] == [res.summaries for res in alone]
    diverged = [[s.seed for s in res.summaries if s.diverged] for res in together]
    assert diverged == [[1], [1], [1], [1], [7, 1]]
    last = {s: max(r.step for r in together[-1].records if r.seed == s)
            for s in (3, 7, 1, 5)}
    assert last == {3: 20, 7: 6, 1: 9, 5: 20}


def test_rows_share_one_objective_evaluation_per_step(monkeypatch):
    calls = {"value_and_grad": 0, "value": 0, "grad": 0}
    for name in calls:
        def counting(self, x, real=getattr(Quadratic, name), name=name):
            calls[name] += 1
            return real(self, x)
        monkeypatch.setattr(Quadratic, name, counting)
    config, sgd = _lockstep_config("SGD", (12, 8), (0, 1, 2))
    run_rows(config, [sgd, make_preset("Adam", lr=0.05), make_preset("AdaGradNorm")])
    # one pass per step, whose gradient the oracle reuses; value_and_grad
    # reads the gradient through grad, the call the benchmark's span counts
    assert calls == {"value_and_grad": config.T, "value": 0, "grad": config.T}


def test_rows_share_one_read_only_start(monkeypatch):
    starts = []
    real = harness._init_x1

    def counting(config):
        starts.append(real(config))
        return starts[-1]

    monkeypatch.setattr(harness, "_init_x1", counting)
    config, sgd = _lockstep_config("SGD", (12, 8), (0, 1))
    run_rows(config, [sgd, make_preset("Adam", lr=0.05), make_preset("AdaGradNorm")])
    assert len(starts) == 1 and not starts[0].flags.writeable
    with pytest.raises(ValueError, match="at least one spec"):
        run_rows(config, [])


# ---------------------------------------------------------------------------
# the next step's noise drawn ahead on a helper thread

# two seeds of a 128x256 quadratic parameter: each step draws 2x the
# break-even count of normals, so the run draws ahead on two CPUs
_AHEAD_SHAPE = (128, 256)


def _ahead_config(preset, **spec_kw):
    d = math.prod(_AHEAD_SHAPE)
    assert 2 * d >= parallel._DRAW_AHEAD_MIN
    return _config_and_spec(
        preset, objective=Quadratic(np.linspace(0.5, 2.0, d), shape=_AHEAD_SHAPE),
        noise=NoiseModel(sigma=0.3), T=8, seeds=(3, 8), lr=0.05, **spec_kw)


# the frame rows of the draw-ahead tests: rank 8, refreshed at t = 3 and 6
_FRAME_KW = dict(rank=8, refresh_gap=3)


def _planned(config, spec, cpus=2, threads=None):
    """The plan of a run of ``spec`` on ``cpus`` CPUs, beside ``threads``,
    a stand-in for OpenBLAS (``_Threads``), or else beside the loaded one."""
    return parallel.plan([config], [spec], cpus=cpus,
                         lookup=None if threads is None else lambda: threads.calls)


def _run(config, spec, plan):
    return run_rows(config, [spec], plan)[0]


def _helper_draws(monkeypatch) -> list:
    """(seeds, t) of each draw made on a thread other than the caller's."""
    caller, real, draws = threading.get_ident(), parallel.draw, []

    def recording(noise, d, seeds, t, out=None):
        if threading.get_ident() != caller:
            draws.append((list(seeds), t))
        return real(noise, d, seeds, t, out=out)

    monkeypatch.setattr(parallel, "draw", recording)
    return draws


def _ahead_and_inline(monkeypatch, config, spec) -> tuple:
    """(result, the bytes of each stochastic gradient it stepped with) of
    the run on two CPUs, which draws ahead, and then on one."""
    out = []
    for cpus in (2, 1):
        real, grads = harness.stoch_grad, []

        def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
            g = real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)
            grads.append(g.tobytes())
            return g

        with monkeypatch.context() as m:
            m.setattr(harness, "stoch_grad", oracle)
            out.append((_run(config, spec, _planned(config, spec, cpus)), grads))
    return tuple(out)


@pytest.mark.parametrize("preset,spec_kw", [
    ("Adam", {}),
    ("AdamSN", {}),
    ("AdamSNSM", _FRAME_KW),
    ("AdamSNSM", dict(_FRAME_KW, frame_kind="srht")),
    ("GaLore", _FRAME_KW),
], ids=["Adam", "AdamSN", "AdamSNSM-svd", "AdamSNSM-srht", "GaLore"])
def test_draw_ahead_matches_the_inline_oracle(monkeypatch, preset, spec_kw):
    config, spec = _ahead_config(preset, **spec_kw)
    draws = _helper_draws(monkeypatch)
    (ahead, g_ahead), (inline, g_inline) = _ahead_and_inline(monkeypatch, config, spec)
    # each oracle call after the first reads a draw made ahead on the helper;
    # on one CPU none is. A frame row draws ahead only where OpenBLAS's
    # thread count can be held.
    if not spec_kw or openblas.thread_calls() is not None:
        assert draws == [([3, 8], t) for t in range(2, config.T)]
    else:
        assert draws == []
    assert g_ahead == g_inline and len(g_ahead) == config.T - 1
    assert ahead.records == inline.records
    assert ahead.summaries == inline.summaries


def test_draw_ahead_discards_the_draw_of_a_seed_that_left(monkeypatch):
    config, spec = _ahead_config("Adam")
    draws = _helper_draws(monkeypatch)
    # the first seed leaves: its row of the stale buffer is where seed 8's
    # draw would be read
    _inject(monkeypatch, bad_seed=3, bad_t=4, value=np.nan)
    (ahead, g_ahead), (inline, g_inline) = _ahead_and_inline(monkeypatch, config, spec)
    # the draw of t = 5 was made for both seeds while seed 3 left at t = 4;
    # the oracle draws seed 8 alone at t = 5, and the helper from t = 6
    assert draws == ([([3, 8], t) for t in range(2, 6)]
                     + [([8], t) for t in range(6, config.T)])
    assert g_ahead == g_inline
    assert ahead.records == inline.records
    assert ahead.summaries == inline.summaries
    assert [s.diverged for s in ahead.summaries] == [True, False]


def _fail_in_oracle(monkeypatch, seen):
    real = harness.stoch_grad

    def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
        if t == 3:
            seen.append(threading.active_count())
            raise RuntimeError("injected at step 3")
        return real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)

    monkeypatch.setattr(harness, "stoch_grad", oracle)


def _fail_in_step(monkeypatch, seen):
    real = Optimizer.step

    def step(self, params, grads, t):
        if t == 3:
            seen.append(threading.active_count())
            raise RuntimeError("injected at step 3")
        return real(self, params, grads, t)

    monkeypatch.setattr(Optimizer, "step", step)


# the error at t = 3 comes from the oracle call, before the helper is handed
# step 4's draw, or from the rows' step, after it: the run then closes the
# helper with that draw handed out and not taken
@pytest.mark.parametrize("inject,last_draw", [(_fail_in_oracle, 3), (_fail_in_step, 4)],
                         ids=["oracle", "step"])
def test_no_helper_thread_outlives_the_run(monkeypatch, inject, last_draw):
    config, spec = _ahead_config("Adam")
    threads = _Threads(2)
    before = threading.active_count()
    _run(config, spec, _planned(config, spec, threads=threads))
    assert threading.active_count() == before
    draws, seen = _helper_draws(monkeypatch), []
    inject(monkeypatch, seen)
    with pytest.raises(RuntimeError, match="injected at step 3"):
        _run(config, spec, _planned(config, spec, threads=threads))
    assert seen == [before + 1]  # the helper was running
    assert draws[-1] == ([3, 8], last_draw)
    assert threading.active_count() == before
    assert threads.count == 2 and threads.sets == [1, 2, 1, 2]  # held, restored


def test_a_helper_draw_error_is_raised_by_the_run(monkeypatch):
    config, spec = _ahead_config("Adam")

    def failing(noise, d, seeds, t, out=None):
        raise RuntimeError(f"no draw at t={t}")

    monkeypatch.setattr(parallel, "draw", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="no draw at t=2"):
        _run(config, spec, _planned(config, spec))
    assert threading.active_count() == before


def test_the_loops_error_is_raised_over_the_helpers(monkeypatch):
    config, spec = _ahead_config("Adam")
    threads = _Threads(2)
    real, drawn = parallel.draw, []

    def failing(noise, d, seeds, t, out=None):
        drawn.append(t)
        if t == 4:
            raise RuntimeError(f"no draw at t={t}")
        return real(noise, d, seeds, t, out=out)

    monkeypatch.setattr(parallel, "draw", failing)
    seen = []
    # the step of t = 3 raises after the helper was handed the draw of t = 4,
    # which fails too and is never taken
    _fail_in_step(monkeypatch, seen)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected at step 3"):
        _run(config, spec, _planned(config, spec, threads=threads))
    assert seen == [before + 1]  # the helper was running
    assert drawn == [2, 3, 4]
    assert threading.active_count() == before
    assert (threads.count, threads.sets) == (2, [1, 2])  # held, restored


@pytest.mark.parametrize("change,ahead", [
    ({}, True),
    (dict(cpus=1), False),
    # keeps a subspace frame, which calls OpenBLAS, and no thread count to
    # hold off the helper's CPU
    (dict(preset="AdamSNSM", openblas=None), False),
    (dict(preset="GaLore", openblas=None), False),
    (dict(mlp2=True), False),  # its passes are matmuls: OpenBLAS
    (dict(seeds=(3,)), False),  # one seed: half the break-even
    (dict(seeds=(3, 3, 8)), True),  # a repeated seed draws once
    (dict(beta=0.5), False),  # 2 x 128 noisy coordinates
    # OpenBLAS held off the helper's CPU while it draws
    (dict(preset="AdamSNSM"), True),
    (dict(preset="GaLore"), True),
    (dict(openblas=None), True),  # no frame, no OpenBLAS call to hold
])
def test_draws_ahead_only_where_it_pays(change, ahead):
    d = parallel._DRAW_AHEAD_MIN // 2
    if change.get("mlp2"):
        obj = MLP2(np.zeros((4, d - 1)), np.zeros(4), hidden=1)
        assert obj.d == d
    else:
        obj = Quadratic(np.ones(d))
    noise = (NoiseModel(sigma=0.1) if "beta" not in change
             else NoiseModel(density_beta=change["beta"]))
    config = ExperimentConfig(objective=obj, noise=noise, T=4,
                              seeds=change.get("seeds", (3, 8)))
    calls = change.get("openblas", _Threads(2).calls)
    specs = [make_preset("Adam"), make_preset(change.get("preset", "AdamSN"))]
    plan = parallel.plan([config], specs, cpus=change.get("cpus", 2),
                         lookup=lambda: calls)
    assert plan.processes == 1 and plan.draws_ahead == ahead


def test_the_default_plan_reads_the_cpus_and_the_library():
    config, spec = _ahead_config("AdamSNSM", **_FRAME_KW)
    default = parallel.plan([config] * 3, [spec])
    cpus, calls = len(os.sched_getaffinity(0)), openblas.thread_calls()
    if cpus >= 2 and calls is not None:
        found = calls[0]()
        assert default == parallel.CpuPlan(min(3, cpus), True, found,
                                           min(found, cpus - 1), calls[2] is not None)
        assert default.openblas is calls
    else:  # a frame row draws ahead only beside an OpenBLAS it can hold
        assert default == parallel.CpuPlan(min(3, cpus))


class _Threads:
    """A stand-in for OpenBLAS's thread count: the count, each set and the
    parks of its worker threads, or no park call at all."""

    def __init__(self, count, park=True):
        self.count, self.sets, self.parks = count, [], 0
        self.calls = (lambda: self.count), self._set, self._park if park else None

    def _set(self, count):
        self.sets.append(count)
        self.count = count

    def _park(self):
        self.parks += 1
        return 0


def _counting_oracle(monkeypatch, threads, fail_at=None) -> list:
    """The OpenBLAS thread count at each oracle call; the call at step
    ``fail_at`` raises."""
    real, seen = harness.stoch_grad, []

    def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
        seen.append(threads())
        if t == fail_at:
            raise RuntimeError(f"injected at step {t}")
        return real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)

    monkeypatch.setattr(harness, "stoch_grad", oracle)
    return seen


def _held_run(monkeypatch, threads, cpus, fail_at) -> tuple:
    """(the plan, OpenBLAS's count at each oracle call, its parks at each
    helper draw) of a frame run that draws ahead on ``cpus`` CPUs, with
    ``threads`` standing in for OpenBLAS; the oracle call at step
    ``fail_at`` raises."""
    config, spec = _ahead_config("AdamSNSM", **_FRAME_KW)
    plan = _planned(config, spec, cpus, threads)
    seen = _counting_oracle(monkeypatch, threads.calls[0], fail_at)
    real, parks_at_draw = parallel.draw, []

    def drawing(noise, d, seeds, t, out=None):
        parks_at_draw.append(threads.parks)
        return real(noise, d, seeds, t, out=out)

    monkeypatch.setattr(parallel, "draw", drawing)
    if fail_at is None:
        _run(config, spec, plan)
    else:
        with pytest.raises(RuntimeError, match="injected at step 3"):
            _run(config, spec, plan)
    assert len(seen) == (fail_at or config.T - 1)
    assert parks_at_draw
    return plan, seen, parks_at_draw


# the hold never raises the count: OpenBLAS set to fewer threads stays there;
# it parks the worker threads whatever the count
@pytest.mark.parametrize("cpus,before,held", [(2, 2, 1), (4, 8, 3), (2, 1, 1), (4, 2, 2)])
@pytest.mark.parametrize("fail_at", [None, 3])
def test_openblas_is_held_while_the_helper_draws(monkeypatch, cpus, before, held,
                                                 fail_at):
    threads = _Threads(before)
    plan, seen, parks_at_draw = _held_run(monkeypatch, threads, cpus, fail_at)
    assert (plan.draws_ahead, plan.threads_found, plan.threads_held, plan.parks) == \
        (True, before, held, True)
    # the hold starts with the helper, after the first oracle call, and ends
    # when it is joined, on return or raise
    assert seen == [before] + [held] * (len(seen) - 1)
    assert threads.count == before
    assert threads.sets == ([] if held == before else [held, before])
    # parked once, before the helper's first draw
    assert threads.parks == 1 and set(parks_at_draw) == {1}


@pytest.mark.parametrize("fail_at", [None, 3])
def test_openblas_without_the_park_call_is_only_held(monkeypatch, fail_at):
    threads = _Threads(2, park=False)
    plan, seen, _ = _held_run(monkeypatch, threads, 2, fail_at)
    assert (plan.draws_ahead, plan.threads_held, plan.parks) == (True, 1, False)
    assert seen == [2] + [1] * (len(seen) - 1)
    assert (threads.count, threads.sets, threads.parks) == (2, [1, 2], 0)


def test_a_helper_that_cannot_start_leaves_openblas_as_found(monkeypatch):
    threads = _Threads(2)
    config, spec = _ahead_config("Adam")
    plan = _planned(config, spec, threads=threads)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _run(config, spec, plan)
    # held and parked before the start, and the count restored after it failed
    assert (threads.count, threads.sets, threads.parks) == (2, [1, 2], 1)


@pytest.mark.parametrize("fail_at", [None, 3])
def test_openblas_thread_count_is_restored(monkeypatch, fail_at):
    calls = parallel._openblas_threads()
    if calls is None:
        pytest.skip("numpy is not linked to an OpenBLAS whose thread count can be set")
    get, set_, _ = calls
    start = get()
    set_(2)  # a count the hold lowers, whatever count earlier runs left
    config, spec = _ahead_config("GaLore", **_FRAME_KW)
    seen = _counting_oracle(monkeypatch, get, fail_at)
    try:
        plan = _planned(config, spec)  # found after the count was set
        if fail_at is None:
            _run(config, spec, plan)
        else:
            with pytest.raises(RuntimeError, match="injected at step 3"):
                _run(config, spec, plan)
    finally:
        after = get()
        set_(start)  # a failure here leaves the next test its count
    assert seen == [2] + [1] * (len(seen) - 1)
    assert after == 2


def test_parked_openblas_keeps_its_count_and_its_bits():
    calls = parallel._openblas_threads()
    if calls is None or calls[2] is None:
        pytest.skip("numpy is not linked to an OpenBLAS that can park its threads")
    get, set_, park = calls
    start = get()
    a = np.random.default_rng(0).standard_normal((512, 512))
    try:
        set_(2)
        first = a @ a  # starts the worker pool where it is not running
        assert park() == 0
        assert get() == 2
        # the next call starts the workers again and splits the work as before
        assert (a @ a).tobytes() == first.tobytes()
    finally:
        set_(start)


def _no_lookup():
    raise AssertionError("looked up OpenBLAS")


def test_runs_that_draw_inline_leave_openblas_alone(monkeypatch, capsys, tmp_path):
    # every plan from here on, the default ones of the entry points too
    monkeypatch.setattr(parallel, "_openblas_threads", _no_lookup)
    config, spec = _ahead_config("AdamSNSM", **_FRAME_KW)
    plan = _planned(config, spec, cpus=1)
    assert plan == parallel.CpuPlan() and plan.openblas is None
    _run(config, spec, plan)
    # the benchmark's sweep draws 5 x 1024 normals a step; mem runs nothing
    sweep_beta([0.0, 1.0], d=1024, T=20, seeds=range(5), subset_sizes=[256])
    _assert_no_child_left()
    (tmp_path / "m.manifest").write_text(MANIFEST)
    assert main(["mem", "--manifest", str(tmp_path / "m.manifest"),
                 "--preset", "AdamSNSM"]) == 0
    capsys.readouterr()


def test_no_snsm_module_imports_ctypes_when_loaded():
    import importlib
    import pkgutil

    import snsm
    for info in pkgutil.iter_modules(snsm.__path__):
        module = importlib.import_module(f"snsm.{info.name}")
        assert "ctypes" not in vars(module), info.name


def test_parallel_imports_nothing_from_the_harness():
    import ast

    tree = ast.parse(open(parallel.__file__, encoding="utf-8").read())
    names = []  # each imported module, and each name imported from one
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert ".noise_models" in names  # the walk saw the module's imports
    assert not [name for name in names if "harness" in name.split(".")]


def test_row_sums_past_the_float_limit_stay_finite():
    config, spec = _quad_config(seeds=(0, 1), T=4)
    row = harness._Row(config, spec, harness._init_x1(config))
    big, small = [1.5e308, 1.7e308, 1.6e308, 1.0e308], [0.1, 0.2, 0.3, 0.7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, pair in enumerate(zip(big, small), start=1):
            row.observe(t, np.zeros(2), np.array(pair), None)
    seed0, seed1 = row.result().summaries
    # seed 0's sum is carried times 2**-64 from its overflow on, exactly
    shifted = plain = 0.0
    for b, s in zip(big, small):
        shifted += b * 2.0 ** -64
        plain += s
    assert seed0.mean_grad_norm_sq == shifted / 4 * 2.0 ** 64
    assert math.isclose(seed0.mean_grad_norm_sq, math.fsum(b / 4 for b in big),
                        rel_tol=1e-15)
    # seed 1's never overflows: the bits of its plain sum
    assert seed1.mean_grad_norm_sq == plain / 4


def test_run_is_deterministic():
    cfg = _quad_config(T=30, noise=NoiseModel(sigma=1.0), seeds=(3, 4))
    assert run(*cfg).records == run(*cfg).records


def test_config_validation():
    with pytest.raises(ValueError):
        _quad_config(T=0)
    # no multiple of ones has f(x_1) = delta1 on a quadratic without curvature
    with pytest.raises(ValueError, match="quadratic needs a positive curvature sum$"):
        run(*_quad_config(objective=Quadratic(np.zeros(2))))
    with pytest.raises(ValueError):
        _quad_config(seeds=())
    for lr in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            _quad_config(lr=lr)


@pytest.mark.parametrize("seeds,bad", [((0, -1), "-1"), ((1.5,), "1.5"), (("0",), "0")])
def test_config_rejects_negative_or_non_integer_seeds(seeds, bad):
    with pytest.raises(ValueError, match=f"seeds must be non-negative integers, got {bad}$"):
        _quad_config(seeds=seeds)


# ---------------------------------------------------------------------------
# sweep and bound verification

def test_sweep_shapes_and_determinism():
    rows = sweep_beta([0.0, 1.0], d=32, T=50, seeds=range(3), subset_sizes=[8])
    assert len(rows) == 6  # (norm, coord, sn(8)) x 2 betas
    again = sweep_beta([0.0, 1.0], d=32, T=50, seeds=range(3), subset_sizes=[8])
    assert rows == again


def test_sweep_draws_noise_once_per_step_and_beta(monkeypatch):
    real = harness.stoch_grad
    calls = []

    def oracle(obj, noise, x, seed, t, true_grad=None, drawn=None):
        calls.append((noise.density_beta, t, len(seed)))
        return real(obj, noise, x, seed, t, true_grad=true_grad, drawn=drawn)

    monkeypatch.setattr(harness, "stoch_grad", oracle)
    # one beta per sweep runs in this process: a child's calls would not
    # reach this list
    for beta in (0.0, 1.0):
        sweep_beta([beta], d=32, T=50, seeds=range(3), subset_sizes=[8, 16])
    # every row of one beta (norm, coord, SN(8), SN(16)) in one call per step,
    # through t = T - 1
    assert calls == [(beta, t, 4 * 3) for beta in (0.0, 1.0) for t in range(1, 50)]


def test_sweep_divisibility_error(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_rows",
                        lambda config, specs: calls.append(config) or [])
    with pytest.raises(ValueError, match="subset size k=3 does not divide d=10$"):
        sweep_beta([0.5], d=10, T=10, seeds=(0, 1), subset_sizes=[3])
    assert calls == []  # found before any beta runs


def test_sweep_rejects_subset_size_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        sweep_beta([0.5], d=10, T=10, seeds=(0, 1), subset_sizes=[0])


def test_sweep_rejects_fewer_than_two_seeds():
    with pytest.raises(ValueError, match="two seeds"):
        sweep_beta([0.5], d=8, T=10, seeds=(0,), subset_sizes=[4])


def test_sweep_rejects_an_empty_beta_list(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_rows",
                        lambda config, specs: calls.append(config) or [])
    with pytest.raises(ValueError, match="a sweep needs at least one beta"):
        sweep_beta([], d=16, T=5, seeds=range(2))
    assert calls == []


def test_sweep_verdict_logic():
    r = harness.SweepRow
    a = r(0.0, "A", 1, mean_metric=1.0, stderr=0.1)
    b = r(0.0, "B", 1, mean_metric=2.0, stderr=0.1)
    assert sweep_verdict(a, b) == "a_better"
    assert sweep_verdict(b, a) == "b_better"
    c = r(0.0, "C", 1, mean_metric=1.05, stderr=0.2)
    assert sweep_verdict(a, c) == "inconclusive"
    # a diverged seed in either row voids the comparison
    a_diverged = r(0.0, "A", 1, mean_metric=1.0, stderr=0.1, n_diverged=1)
    assert sweep_verdict(a_diverged, b) == "invalid"
    assert sweep_verdict(b, a_diverged) == "invalid"


def test_sweep_verdict_invalid_on_a_mean_or_stderr_not_finite():
    r = harness.SweepRow
    a = r(0.0, "A", 1, mean_metric=1.0, stderr=0.1)
    b = r(0.0, "B", 1, mean_metric=2.0, stderr=0.1)
    for bad in (dict(mean_metric=math.inf), dict(stderr=math.inf),
                dict(stderr=math.nan)):
        assert sweep_verdict(dataclasses.replace(a, **bad), b) == "invalid"
        assert sweep_verdict(b, dataclasses.replace(a, **bad)) == "invalid"


def test_sweep_stderr_of_metrics_near_the_float_limit():
    # the lr makes the AdaGradNorm and AdaGradSN metrics ~1e305-1e306, whose
    # squares overflow; every AdaGrad seed diverges
    rows = sweep_beta([0.0], d=64, T=50, seeds=range(4), subset_sizes=[8],
                      lr=3e153)
    norm, coord, sn = rows
    assert coord.n_diverged == 4 and sweep_verdict(norm, coord) == "invalid"
    for row in (norm, sn):
        assert row.n_diverged == 0 and row.mean_metric > 1e305
        assert math.isfinite(row.stderr) and row.stderr > 0
    assert sweep_verdict(norm, sn) == "a_better"


def test_sweep_stderr_falls_back_only_when_it_overflows(monkeypatch):
    metrics = {"AdaGradNorm": [1e306, 1.2e306, 0.9e306, 1.1e306],
               "AdaGrad": [1.0, 1.5, 0.5, 2.25]}

    # one result per row, in job order
    def fake_run_configs(run_rows, configs, specs, plan):
        return [[harness.RunResult(records=[], summaries=[
            harness.SeedSummary(seed=i, mean_grad_norm_sq=v, final_loss=0.0,
                                diverged=False)
            for i, v in enumerate(values)]) for values in metrics.values()]
            for _ in configs]

    monkeypatch.setattr(parallel, "_run_configs", fake_run_configs)
    big, small = sweep_beta([0.0], d=8, T=5, seeds=range(4))
    exact = statistics.stdev(metrics["AdaGradNorm"]) / 2.0  # over Fractions
    assert big.stderr == pytest.approx(exact, rel=1e-14)
    values = np.array(metrics["AdaGrad"])
    assert small.stderr == float(values.std(ddof=1) / 2.0)  # the same bits


def test_sweep_counts_diverged_seeds(monkeypatch):
    _inject(monkeypatch, bad_seed=1, bad_t=5, value=np.nan)
    rows = sweep_beta([0.0], d=16, T=20, seeds=range(3), subset_sizes=[4])
    assert [r.n_diverged for r in rows] == [1, 1, 1]
    assert sweep_verdict(rows[0], rows[1]) == "invalid"


def test_sweep_checks_every_beta_before_the_first_run(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_rows",
                        lambda config, specs: calls.append(config) or [])
    with pytest.raises(ValueError, match=r"density_beta must lie in \[0, 1\], got 1.5"):
        sweep_beta([0.0, 1.5], d=16, T=5, seeds=range(2))
    assert calls == []  # beta = 0 did not run first


# betas side by side: the caller runs its share, forked children the rest

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_fork(monkeypatch) -> list:
    """The pids the caller forks from here on."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _sweep_configs(betas, d=16, T=10, n_seeds=2, subset_sizes=()) -> tuple:
    """(configs, specs) of the sweep of ``betas``, as sweep_beta builds them."""
    specs = [make_preset("AdaGradNorm", lr=0.1), make_preset("AdaGrad", lr=0.1)]
    specs += [make_preset("AdaGradSN", lr=0.1, subset_rule="equip", subset_size=k)
              for k in subset_sizes]
    configs = [ExperimentConfig(objective=Quadratic.isotropic(d),
                                noise=NoiseModel(density_beta=beta), T=T,
                                seeds=tuple(range(n_seeds)), record_every=T)
               for beta in betas]
    return configs, specs


def _side_by_side(configs, specs, processes=2, run_rows=None) -> list:
    """The sweep's runs of ``configs``, on ``processes`` processes."""
    return parallel._run_configs(run_rows or harness.run_rows, configs, specs,
                                 parallel.CpuPlan(processes))


def _fail_at_beta(monkeypatch, beta, action):
    """Make run_rows call ``action()`` for the config of ``beta``."""
    real = harness.run_rows

    def run_rows(config, specs):
        if config.noise.density_beta == beta:
            action()
        return real(config, specs)

    monkeypatch.setattr(harness, "run_rows", run_rows)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("betas,cpus", [
    ([0.0, 1.0], 2),
    ([1.0, 0.25, 0.0], 2),  # uneven shares: the caller runs two betas, a child one
    ([1.0, 0.25, 0.0], 3),
])
def test_sweep_betas_side_by_side_match_one_process(monkeypatch, betas, cpus):
    configs, specs = _sweep_configs(betas, d=32, T=40, n_seeds=3, subset_sizes=[8])
    alone = [run_rows(config, specs) for config in configs]
    assert parallel._run_configs(run_rows, configs, specs,
                                 parallel.plan(configs, specs, cpus=1)) == alone
    forks = _counting_fork(monkeypatch)
    plan = parallel.plan(configs, specs, cpus=cpus)
    assert plan.processes == cpus
    assert parallel._run_configs(run_rows, configs, specs, plan) == alone
    assert len(forks) == cpus - 1
    _assert_no_child_left()
    rows = sweep_beta(betas, d=32, T=40, seeds=range(3), subset_sizes=[8])
    assert [r.beta for r in rows[::3]] == betas


def _alarm(signum, frame):
    raise TimeoutError("the sweep did not finish")


def test_forked_sweep_after_a_run_that_drew_ahead(monkeypatch):
    # a thread does not survive os.fork: a helper kept past its run would be
    # missing in the forked child
    draws = _helper_draws(monkeypatch)
    config, spec = _ahead_config("Adam")
    _run(config, spec, _planned(config, spec))
    assert draws  # this process drew ahead
    d = parallel._DRAW_AHEAD_MIN
    configs, specs = _sweep_configs([0.0, 1.0], d=d, T=6, subset_sizes=[d // 8])

    def on_two_cpus(config, specs):  # each run's own plan, as on two CPUs
        return run_rows(config, specs, parallel.plan([config], specs, cpus=2))

    assert parallel.plan(configs[1:], specs, cpus=2).draws_ahead  # in the child
    forks = _counting_fork(monkeypatch)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(120)
    try:
        side_by_side = _side_by_side(configs, specs, run_rows=on_two_cpus)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert len(forks) == 1
    _assert_no_child_left()
    assert side_by_side == _side_by_side(configs, specs, processes=1)


def test_sweep_on_one_cpu_forks_nothing(monkeypatch):
    configs, specs = _sweep_configs([0.0, 0.5, 1.0], subset_sizes=[4])
    plan = parallel.plan(configs, specs, cpus=1)
    assert plan == parallel.CpuPlan()
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked")))
    assert parallel._run_configs(run_rows, configs, specs, plan) == \
        [run_rows(config, specs) for config in configs]


def test_usable_cpus_is_one_without_fork_or_affinity(monkeypatch):
    assert parallel._usable_cpus() == len(os.sched_getaffinity(0))
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name)
            assert parallel._usable_cpus() == 1


def test_sweep_reraises_a_child_error(monkeypatch):
    _fail_at_beta(monkeypatch, 1.0, lambda: _raise(ValueError("boom")))
    with pytest.raises(ValueError) as info:
        _side_by_side(*_sweep_configs([0.0, 1.0]))
    assert info.type is ValueError and str(info.value) == "boom"
    _assert_no_child_left()


class _TwoArgError(Exception):
    """Pickles, but does not load: its args hold one of its two arguments."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def _local_error():
    class LocalError(Exception):  # a local class: pickle cannot find it
        pass

    return LocalError("boom")


@pytest.mark.parametrize("make,text", [
    pytest.param(_local_error, r"LocalError\('boom'\)", id="local-class"),
    pytest.param(lambda: _TwoArgError("boom", 3), r"_TwoArgError\('boom'\)",
                 id="two-argument-init"),
])
def test_sweep_child_error_that_does_not_pickle(monkeypatch, make, text):
    _fail_at_beta(monkeypatch, 1.0, lambda: _raise(make()))
    with pytest.raises(RuntimeError, match=text):
        _side_by_side(*_sweep_configs([0.0, 1.0]))
    _assert_no_child_left()


def test_sweep_child_share_counts_diverged_seeds(monkeypatch):
    _inject(monkeypatch, bad_seed=1, bad_t=5, value=np.nan)
    configs, specs = _sweep_configs([0.0, 1.0], T=20, n_seeds=3, subset_sizes=[4])
    per_beta = _side_by_side(configs, specs)  # beta 1 came from the child
    assert [[s.diverged for s in result.summaries] for results in per_beta
            for result in results] == [[False, True, False]] * 6
    _assert_no_child_left()


def test_sweep_kills_its_children_when_the_caller_fails(monkeypatch):
    _fail_at_beta(monkeypatch, 1.0, lambda: time.sleep(60))  # the child's share
    _fail_at_beta(monkeypatch, 0.0, lambda: _raise(ValueError("caller")))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="caller"):
        _side_by_side(*_sweep_configs([0.0, 1.0]))
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()


@pytest.fixture
def two_cpus(monkeypatch):
    """Every plan sees two usable CPUs, so that a sweep that ``main`` runs
    forks a child for its second beta on any host: the CLI takes no plan."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("exc,code,message", [
    (ValueError("boom"), 1, "snsm: error: boom"),
    (NumericError("SVD did not converge"), 2,
     "snsm: numeric failure: SVD did not converge"),
])
def test_cli_sweep_child_error_exit_code(monkeypatch, capsys, two_cpus, exc, code,
                                         message):
    _fail_at_beta(monkeypatch, 1.0, lambda: _raise(exc))
    assert main(["sweep", "--betas", "0,1", "--d", "16", "--T", "10",
                 "--n-seeds", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    _assert_no_child_left()


def test_cli_sweep_lost_child_exit_1(monkeypatch, capsys, two_cpus):
    _fail_at_beta(monkeypatch, 1.0, lambda: os._exit(3))
    assert main(["sweep", "--betas", "0,1", "--d", "16", "--T", "10",
                 "--n-seeds", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("snsm: error: the process running beta 1.0 ended without a result "
            "(wait status 768)") in captured.err
    _assert_no_child_left()


def test_verify_thm2_noiseless_never_violates():
    chk = verify_thm2(d=16, sigma=0.0, delta1=1.0, T=500, fail_prob=0.1,
                      n_seeds=3, rank=4, frame_kind="gaussian_ortho")
    assert chk.violations == 0
    assert chk.passed


def _capture_run(monkeypatch):
    """The specs that ``harness.run`` is called with, in call order."""
    specs = []
    real_run = harness.run

    def capturing_run(config, spec):
        specs.append(spec)
        return real_run(config, spec)

    monkeypatch.setattr(harness, "run", capturing_run)
    return specs


def test_verify_thm2_runs_at_the_bound_beta1(monkeypatch):
    specs = _capture_run(monkeypatch)
    chk = verify_thm2(d=8, sigma=0.5, delta1=1.0, T=50, fail_prob=0.1,
                      n_seeds=2, rank=2, beta1=0.5)
    (spec,) = specs
    assert spec.momentum.beta1 == 0.5
    assert spec.base_lr == chk.eta_star == momentum_bound(
        1.0, 1.0, 0.5, 50, beta1=0.5, fail_prob=0.1).eta_star


def test_verify_thm2_identity_frame():
    # full-rank identity frame: subspace momentum reduces to plain momentum
    chk = verify_thm2(d=16, sigma=0.5, delta1=1.0, T=500, fail_prob=0.1,
                      n_seeds=4, rank=16, frame_kind="identity")
    assert chk.passed


# ---------------------------------------------------------------------------
# manifests and memory reports

MANIFEST = (
    "# comment\n"
    "wq\tlinear\t64x16\n"
    "emb\tembedding\t100x8\n"
    "ln\tnorm\t16\n"
)


def test_parse_manifest():
    man = parse_manifest(MANIFEST)
    assert [e.name for e in man.entries] == ["wq", "emb", "ln"]
    assert man.entries[0].shape == (64, 16)
    assert man.entries[2].shape == (16,)


def test_parse_manifest_errors():
    with pytest.raises(ValueError):
        parse_manifest("a\tlinear\t4x4\na\tlinear\t4x4\n")  # duplicate name
    with pytest.raises(ValueError):
        parse_manifest("a\tlinear\n")  # missing field
    with pytest.raises(ValueError):
        parse_manifest("a\tlinear\t0x4\n")  # non-positive dim
    for text in ("", "# comment only\n\n"):
        with pytest.raises(ValueError, match="manifest lists no parameters"):
            parse_manifest(text)


def test_mem_report_matches_optimizer_state_size():
    man = parse_manifest(MANIFEST)
    rep = mem_report(man, make_preset("AdamSN"))
    opt = Optimizer(make_preset("AdamSN"), man.shapes, tags=man.tags)
    assert rep["total"] == opt.state_size().total
    # additive over entries
    assert rep["total"] == sum(e["state_elems"] for e in rep["entries"])
    # linear 64x16 under AdamSN: mn + max; non-linear fall back to Adam: 2mn
    assert rep["entries"][0]["state_elems"] == 64 * 16 + 64
    assert rep["entries"][1]["state_elems"] == 2 * 100 * 8
    assert rep["entries"][2]["state_elems"] == 2 * 16


def test_mem_report_allocates_nothing():
    # 1e10 elements: any buffer or factorization would show up at once
    man = parse_manifest("w\tlinear\t100000x100000\n")
    tracemalloc.start()
    try:
        for preset in ("Adam", "AdamSN", "AdamSNSM", "GaLore"):
            rep = mem_report(man, make_preset(preset, rank=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep["total"] == 2 * 4 * 100000 and rep["frame_elements"] == 4 * 100000


def test_mem_report_counts_past_int64():
    # element counts are exact ints: m * n = 2**64 + 2**32 and 2**64 both
    # wrap in an int64, to 2**32 and to 0
    m, n = 2**32, 2**32 + 1
    for shape, big, small in (((m, n), n, m), ((m, m), m, m)):
        man = parse_manifest(f"w\tlinear\t{shape[0]}x{shape[1]}\n")
        want = {"Adam": (2 * big * small, 0), "AdamSN": (big * small + big, 0),
                "AdamSNSM": (4 * small + big, 4 * big)}
        for preset, (total, frame) in want.items():
            rep = mem_report(man, make_preset(preset, rank=4))
            assert (rep["total"], rep["frame_elements"]) == (total, frame), preset


# ---------------------------------------------------------------------------
# CSV output

def test_csv_schema_and_precision():
    cfg = _quad_config(T=3)
    text = rows_to_csv(run(*cfg).records, RECORD_FIELDS)
    lines = text.split("\n")
    assert lines[0] == "step,seed,loss,grad_norm_sq,lr,state_elems"
    assert text.endswith("\n")
    row = lines[1].split(",")
    assert len(row) == 6
    assert float(row[2]) == run(*cfg).records[0].loss  # 17 sig digits round-trip


def test_csv_byte_identical_reruns():
    cfg = _quad_config(T=20, noise=NoiseModel(sigma=0.5), seeds=(1, 2))
    a = rows_to_csv(run(*cfg).records, RECORD_FIELDS).encode()
    b = rows_to_csv(run(*cfg).records, RECORD_FIELDS).encode()
    assert a == b


def test_csv_quotes_text_as_rfc4180_says():
    # text holding a comma, a quote or a line break is quoted, with its
    # quotes doubled; other text and every number are written as they are
    fields = ("name", "tag", "n", "x")
    rows = [dict(name="a,b", tag='say "hi"', n=3, x=0.1),
            dict(name="two\nlines", tag="cr\r", n=-1, x=1e300),
            dict(name="plain", tag="linear", n=0, x=-0.0)]
    text = rows_to_csv(rows, fields)
    assert text.endswith("\nplain,linear,0,-0\n")
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == list(fields)
    assert parsed[1:] == [[r["name"], r["tag"], str(r["n"]), format(r["x"], ".17g")]
                          for r in rows]


# ---------------------------------------------------------------------------
# CLI (in-process via main(), plus one subprocess sanity check)

from snsm.cli import build_parser, main  # noqa: E402


def test_cli_rates(capsys):
    assert main(["rates", "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "1.2" in out  # subset-norm slow exponent at beta = 0.5


def test_cli_bound_thm2_json(capsys):
    assert main(["bound", "--thm", "2", "--delta1", "1", "--L", "1",
                 "--sigma", "1", "--T", "10000", "--delta", "0.1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert np.isclose(data[0]["total"], 0.2463, atol=5e-4)


def test_cli_bound_thm3(capsys):
    assert main(["bound", "--thm", "3", "--eta", "0.01", "--T", "1000",
                 "--sigma-subsets", "0,0", "--b0", "0.1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["H"] == 0.0


def test_cli_grad_norm_sum_past_the_float_limit(capsys):
    # every ||grad f||^2 from t = 2 is about 1.77e308: their sum overflows
    argv = ["train", "--d", "65536", "--param-shape", "256x256", "--T", "8",
            "--n-seeds", "2", "--preset", "SGD", "--lr", "1", "--delta1", "0",
            "--sigma", "5.2e151"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    gsq = [float(line.split(",")[3]) for line in captured.out.splitlines()[1:]]
    assert len(gsq) == 16 and all(map(math.isfinite, gsq))
    means = [float(m) for m in re.findall(r"mean_grad_norm_sq=(\S+)", captured.err)]
    # each value over 8 is exact: fsum would overflow on the values
    assert means == pytest.approx([math.fsum(v / 8 for v in gsq[:8]),
                                   math.fsum(v / 8 for v in gsq[8:])], rel=1e-15)
    assert "Warning" not in captured.err


def test_cli_bound_thm3_names_missing_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--thm", "3", "--sigma-subsets", "0,0"])
    assert exc.value.code == 1
    assert "--thm 3 requires --b0" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--thm", "3", "--sigma-subsets", "1,1", "--b0", "1", "--verify"],
     "--verify checks --thm 2 only"),
    (["--thm", "2", "--sigma-subsets", "1,1", "--b0", "5"],
     "--thm 2 does not read --sigma-subsets or --b0 (--thm 3 only)"),
    (["--thm", "2", "--b0", "5"], "--thm 2 does not read --b0 (--thm 3 only)"),
    (["--thm", "2", "--eta", "5", "--rank", "3"],
     "--thm 2 does not read --eta (--thm 3 only)"),
    (["--thm", "3", "--sigma-subsets", "1,1", "--b0", "1", "--sigma", "2",
      "--beta1", "0.5"], "--thm 3 does not read --sigma or --beta1 (--thm 2 only)"),
    (["--thm", "2", "--d", "8", "--n-seeds", "2", "--rank", "2",
      "--frame", "srht", "--seed-base", "4"],
     "--thm 2 does not read --d or --n-seeds or --rank or --frame or "
     "--seed-base (--verify only)"),
    (["--thm", "3", "--sigma-subsets", "1,1", "--b0", "1", "--seed-base", "4"],
     "--thm 3 does not read --seed-base (--verify only)"),
])
def test_cli_bound_flag_of_the_other_theorem_exit_1(capsys, argv, message):
    # each would otherwise be ignored: the same row, exit 0, no check
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_bound_verify_failure_writes_no_row(capsys):
    assert main(["bound", "--thm", "2", "--verify", "--n-seeds", "0", "--T", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "snsm: error: seeds must be non-empty" in captured.err


def test_cli_bound_verify_check_failed_exit_3(monkeypatch, capsys):
    argv = ["bound", "--thm", "2", "--T", "50", "--format", "json"]
    assert main(argv) == 0
    row = capsys.readouterr().out
    failing = harness.BoundCheck(bound=0.5, eta_star=0.1, metrics=(1.0, 1.0),
                                 violations=2, fraction=1.0, threshold=0.2,
                                 passed=False)
    monkeypatch.setattr(harness, "verify_thm2", lambda **kw: failing)
    assert main(argv + ["--verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == row
    assert "passed=False" in captured.err


def test_cli_bound_verify_forwards_beta1(monkeypatch, capsys):
    specs = _capture_run(monkeypatch)
    assert main(["bound", "--thm", "2", "--verify", "--beta1", "0.5", "--T", "50",
                 "--d", "8", "--rank", "2", "--n-seeds", "2",
                 "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    (spec,) = specs
    assert spec.momentum.beta1 == 0.5
    assert spec.base_lr == row["eta_star"]


def test_cli_bound_verify_needs_unit_smoothness(monkeypatch, capsys):
    specs = _capture_run(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--thm", "2", "--verify", "--L", "2", "--T", "50"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and specs == []
    assert "--verify needs --L 1" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--thm", "2", "--sigma", "nan"], "sigma must be finite, got nan"),
    (["--thm", "2", "--delta1", "inf"], "delta1 must be finite, got inf"),
    (["--thm", "2", "--L", "inf"], "L must be finite, got inf"),
    (["--thm", "3", "--eta", "nan", "--sigma-subsets", "1,1", "--b0", "1"],
     "eta must be finite, got nan"),
    (["--thm", "3", "--sigma-subsets", "1,nan", "--b0", "1"],
     "sigma_subsets must be finite"),
    (["--thm", "3", "--sigma-subsets", "1,1", "--b0", "1,inf"],
     "b0 must be finite"),
])
def test_cli_bound_non_finite_parameter_exit_1(capsys, argv, message):
    assert main(["bound"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"snsm: error: {message}" in captured.err


_THM3 = {"--sigma-subsets": "0.5,1", "--b0": "0.1"}
_FLOAT_FLAGS = [
    *(pytest.param(["bound", "--thm", "2"], {}, flag, id=f"thm2{flag}")
      for flag in ("--delta1", "--L", "--sigma", "--beta1", "--delta")),
    *(pytest.param(["bound", "--thm", "3"], _THM3, flag, id=f"thm3{flag}")
      for flag in ("--delta1", "--L", "--eta", "--delta", *_THM3)),
    pytest.param(["rates"], {}, "--beta", id="rates--beta"),
]


@pytest.mark.parametrize("value", ["1e308", "-0.0", "0"])
@pytest.mark.parametrize("argv,base,flag", _FLOAT_FLAGS)
def test_cli_float_flag_at_the_edges_of_the_range(capsys, argv, base, flag, value):
    # a row or a one-line error: no traceback, no warning, no inf or nan row
    flags = {**base, flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv + [f"{k}={v}" for k, v in flags.items()])
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", captured.out.lower())
    else:
        assert captured.out == "" and "error: " in captured.err


def test_cli_sweep_bad_subset_size_exit_1(capsys):
    # the messages of train's --subset-size: the sweep's rows are built as
    # train builds its optimizer
    for size, message in (("0", "subset size must be >= 1, got 0"),
                          ("3", "subset size k=3 does not divide d=16")):
        assert main(["sweep", "--d", "16", "--T", "5", "--subset-sizes", size]) == 1
        assert capsys.readouterr().err == f"snsm: error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["train", "--lr", "-0.1"], "lr must be finite and > 0, got -0.1"),
    (["sweep", "--lr", "nan"], "lr must be finite and > 0, got nan"),
    (["train", "--sigma", "-1"], "sigma must be finite and >= 0, got -1.0"),
    (["sweep", "--alpha", "-1"], "density_alpha must be finite and >= 0, got -1.0"),
    (["train", "--record-every", "0"], "record_every must be >= 1"),
    (["train", "--subset-rule", "equip", "--subset-size", "0"],
     "subset size must be >= 1, got 0"),
])
def test_cli_bad_step_size_or_noise_level_exit_1(capsys, argv, message):
    assert main(argv + ["--d", "16", "--T", "5", "--out", "/dev/null"]) == 1
    assert f"snsm: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--clip-norm", "-1", "clip_norm must be finite and > 0, got -1.0"),  # would ascend
    ("--clip-norm", "0", "clip_norm must be finite and > 0, got 0.0"),  # would never move
    ("--clip-norm", "nan", "clip_norm must be finite and > 0, got nan"),
    ("--refresh-gap", "-3", "refresh_gap must be >= 0, got -3"),
    ("--weight-decay", "-1", "weight_decay must be finite and >= 0, got -1.0"),
    ("--weight-decay", "inf", "weight_decay must be finite and >= 0, got inf"),
])
def test_cli_train_bad_clip_refresh_gap_or_weight_decay_exit_1(capsys, flag, value, message):
    assert main(["train", "--preset", "SGD", "--d", "16", "--T", "5",
                 f"{flag}={value}", "--out", "/dev/null"]) == 1
    assert f"snsm: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--d", "16", "--T", "5"],
    ["sweep", "--d", "16", "--T", "5"],
    ["bound", "--thm", "2", "--verify", "--d", "16", "--T", "5", "--rank", "2"],
    # the MLP2 data is drawn from the first seed: checked before that draw
    ["train", "--objective", "mlp2", "--d", "4", "--T", "3"],
])
def test_cli_negative_seed_base_exit_1(capsys, argv):
    assert main(argv + ["--seed-base", "-1", "--out", "/dev/null"]) == 1
    assert "snsm: error: seeds must be non-negative integers, got -1" in \
        capsys.readouterr().err


# a run holds its seeds as int64: 2**63 - 1 is the largest seed
@pytest.mark.parametrize("argv", [
    ["train", "--d", "16", "--T", "3", "--seed-base", str(2 ** 63)],
    ["train", "--objective", "mlp2", "--d", "4", "--T", "3", "--seed-base", str(2 ** 63)],
    ["sweep", "--d", "16", "--T", "3", "--n-seeds", "2", "--seed-base", str(2 ** 63 - 1)],
    ["bound", "--thm", "2", "--verify", "--d", "16", "--T", "5", "--rank", "2",
     "--seed-base", str(2 ** 63)],
])
def test_cli_seed_of_2_to_the_63_exit_1(capsys, argv):
    assert main(argv + ["--out", "/dev/null"]) == 1
    assert capsys.readouterr().err == \
        "snsm: error: seeds must be below 2**63, got 9223372036854775808\n"


def test_cli_largest_seed_runs(capsys):
    assert main(["train", "--d", "16", "--T", "3", "--seed-base", str(2 ** 63 - 1),
                 "--n-seeds", "1"]) == 0
    assert "# seed=9223372036854775807 " in capsys.readouterr().err


def test_cli_bound_thm3_without_subsets_exit_1(capsys):
    assert main(["bound", "--thm", "3", "--sigma-subsets=", "--b0", "1"]) == 1
    assert capsys.readouterr().err == \
        "snsm: error: sigma_subsets and b0 need at least one subset\n"


@pytest.mark.parametrize("argv,message", [
    (["--objective", "mlp2", "--hidden", "0"], "mlp2 needs hidden >= 1, got hidden=0"),
    (["--objective", "mlp2", "--d", "0"], "mlp2 needs d >= 1, got d=0"),
    (["--d", "0"], "quadratic needs d >= 1, got d=0"),
    # numpy's "negative dimensions are not allowed" named no flag
    (["--d", "-1"], "quadratic needs d >= 1, got d=-1"),
    (["--objective", "mlp2", "--d", "-1"], "mlp2 needs d >= 1, got d=-1"),
    (["--objective", "mlp2", "--hidden", "-1"], "mlp2 needs hidden >= 1, got hidden=-1"),
])
def test_cli_train_zero_size_objective_exit_1(capsys, argv, message):
    assert main(["train", *argv, "--T", "3", "--out", "/dev/null"]) == 1
    assert f"snsm: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--n-seeds", "2"],
    ["bound", "--thm", "2", "--verify", "--n-seeds", "2", "--rank", "1"],
], ids=lambda argv: argv[0])
def test_cli_sweep_and_verify_reject_a_size_below_one(capsys, argv, d):
    assert main([*argv, "--d", d, "--T", "3", "--out", "/dev/null"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"snsm: error: quadratic needs d >= 1, got d={d}\n"


_NO_SEEDS = "seeds must be non-empty"
_ONE_SEED = "a sweep needs at least two seeds to report a stderr"


@pytest.mark.parametrize("argv,n,message", [
    *(pytest.param(argv, n, message, id=f"{argv[0]}{n}")
      for argv, message in ((["train"], _NO_SEEDS), (["sweep"], _ONE_SEED),
                            (["bound", "--thm", "2", "--verify", "--rank", "1"],
                             _NO_SEEDS))
      for n in ("0", "-1")),
    pytest.param(["sweep"], "1", _ONE_SEED, id="sweep1"),
])
def test_cli_too_few_seeds_names_the_flag(capsys, argv, n, message):
    assert main([*argv, "--n-seeds", n, "--d", "16", "--T", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"snsm: error: {message}: --n-seeds is {n}\n"


@pytest.mark.parametrize("argv", [
    ["--delta1", "-1"],  # was a math domain error
    ["--delta1", "nan"],  # was a run of all T steps reported as divergence
    ["--delta1", "inf"],
    ["--objective", "mlp2", "--d", "4", "--delta1", "-1"],  # read by no start
])
def test_cli_train_bad_delta1_exit_1(capsys, argv):
    assert main(["train", *argv, "--T", "3", "--out", "/dev/null"]) == 1
    assert (f"snsm: error: delta1 must be finite and >= 0, got {float(argv[-1])}"
            in capsys.readouterr().err)


def test_delta1_zero_starts_at_the_optimum():
    res = run(*_quad_config(d=4, delta1=0.0, T=3))
    assert [r.loss for r in res.records] == [0.0, 0.0, 0.0]


def test_cli_train_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["train", "--d", "4", "--T", "10", "--preset", "SGD",
                 "--lr", "0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "step,seed,loss,grad_norm_sq,lr,state_elems"
    assert len(lines) == 12  # header + 10 rows + trailing newline


def test_cli_train_divergence_exit_code():
    assert main(["train", "--d", "2", "--T", "400", "--preset", "SGD",
                 "--lr", "10.0", "--out", "/dev/null"]) == 2


def test_cli_mem(tmp_path, capsys):
    mf = tmp_path / "m.manifest"
    mf.write_text(MANIFEST)
    assert main(["mem", "--manifest", str(mf), "--preset", "RMSPropSN"]) == 0
    out = capsys.readouterr().out
    assert "wq,linear,64x16,64,0" in out


def test_cli_mem_counts_one_element_tensors(tmp_path, capsys):
    # Adam keeps a momentum and a second moment of the one element
    mf = tmp_path / "m.manifest"
    mf.write_text("b\tnorm\t1\n")
    assert main(["mem", "--manifest", str(mf), "--preset", "Adam"]) == 0
    captured = capsys.readouterr()
    assert "b,norm,1,2,0" in captured.out
    assert "total=2 frame_elements=0" in captured.err


def test_cli_mem_quotes_names_that_hold_a_comma_or_a_quote(tmp_path, capsys):
    mf = tmp_path / "m.manifest"
    mf.write_text('a,b\tlinear\t4x4\nsay "hi"\tnorm\t4\n')
    assert main(["mem", "--manifest", str(mf), "--preset", "Adam"]) == 0
    table = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert [len(r) for r in table] == [5, 5, 5]
    assert [r[0] for r in table] == ["name", "a,b", 'say "hi"']


@pytest.mark.parametrize("argv", [
    ["rates", "--beta", "0.5"],
    ["noise", "--samples", "g.npy"],
    ["mem", "--manifest", "m.manifest", "--preset", "Adam"],
])
def test_cli_seed_base_only_where_a_seed_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed-base", "9"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed-base 9" in capsys.readouterr().err


def test_cli_mem_rank_out_of_range_exit_1(tmp_path, capsys):
    mf = tmp_path / "m.manifest"
    mf.write_text(MANIFEST)
    assert main(["mem", "--manifest", str(mf), "--preset", "AdamSNSM",
                 "--rank", "1000"]) == 1
    assert "snsm: error: rank k=1000 out of range" in capsys.readouterr().err


def test_cli_mem_subset_size_without_equip_exit_1(tmp_path, capsys):
    # a subset size sets the equip rule's subsets; under another rule it is
    # an error, not ignored
    mf = tmp_path / "m.manifest"
    mf.write_text(MANIFEST)
    assert main(["mem", "--manifest", str(mf), "--preset", "AdamSN",
                 "--subset-size", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("snsm: error: the heuristic2d partition rule takes no subset_size, "
            "got 7") in captured.err


def test_cli_train_rank_out_of_range_exit_1(capsys):
    assert main(["train", "--d", "64", "--param-shape", "16x4", "--T", "3",
                 "--preset", "AdamSNSM", "--rank", "5", "--out", "/dev/null"]) == 1
    assert "snsm: error: rank k=5 out of range for 16x4 matrix" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["SGD", "AdamSN"])
@pytest.mark.parametrize("shape,message", [
    ("-10x-10", "non-positive dim in '-10x-10'"),
    ("10xabc", "bad shape '10xabc'"),
])
def test_cli_train_bad_param_shape_exit_1(capsys, preset, shape, message):
    # one parser for --param-shape and manifests; the message names the value
    assert main(["train", "--d", "100", "--preset", preset, "--T", "2",
                 f"--param-shape={shape}", "--out", "/dev/null"]) == 1
    assert f"snsm: error: {message}" in capsys.readouterr().err


def test_cli_train_param_shape_on_mlp2_exit_1(capsys):
    # MLP2's layout is its manifest; a shape here would view W1|W2 as one matrix
    assert main(["train", "--objective", "mlp2", "--d", "8", "--hidden", "16",
                 "--param-shape", "12x12", "--preset", "AdamSN", "--T", "2",
                 "--out", "/dev/null"]) == 1
    assert "snsm: error: --param-shape sets the quadratic's parameter" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--noise-beta", "0.5", "--sigma", "3"],
     "--sigma sets dense noise and --noise-beta sparse noise"),
    (["--noise-alpha", "2"], "--noise-alpha sets the level of --noise-beta noise"),
])
def test_cli_train_noise_flag_of_the_other_form_exit_1(capsys, argv, message):
    assert main(["train", "--d", "16", "--T", "5", *argv, "--out", "/dev/null"]) == 1
    assert f"snsm: error: {message}" in capsys.readouterr().err


def test_cli_train_noise_defaults(monkeypatch):
    noises = []
    real = harness.run

    def capturing_run(config, spec):
        noises.append(config.noise)
        return real(config, spec)

    monkeypatch.setattr(harness, "run", capturing_run)
    for argv in ([], ["--sigma", "0.5"], ["--noise-beta", "0.5"],
                 ["--noise-beta", "0.5", "--noise-alpha", "2"]):
        assert main(["train", "--d", "16", "--T", "3", *argv,
                     "--out", "/dev/null"]) == 0
    assert noises == [NoiseModel(), NoiseModel(sigma=0.5),
                      NoiseModel(density_beta=0.5),
                      NoiseModel(density_beta=0.5, density_alpha=2.0)]


@pytest.mark.parametrize("preset", ["Adam", "AdamSN", "AdamSNSM", "GaLore",
                                    "AdaGradSNSM", "SGD-SM"])
def test_cli_train_mlp2_steps_the_manifest_that_mem_sizes(tmp_path, preset):
    # W1 (16, 100) holds the rank-4 frame; the flat (1616, 1) view held none
    out = tmp_path / "run.json"
    assert main(["train", "--objective", "mlp2", "--preset", preset, "--T", "30",
                 "--refresh-gap", "10", "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    manifest = MLP2(np.zeros((1, 100)), np.zeros(1), hidden=16).manifest
    assert {r["state_elems"] for r in records} == {
        mem_report(manifest, make_preset(preset))["total"]}


@pytest.mark.parametrize("d", [20, 1])
def test_cli_noise(tmp_path, capsys, d):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((50, d))
    path = tmp_path / "g.npy"
    np.save(path, samples)
    assert main(["noise", "--samples", str(path), "--threshold", "0.5",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)[0]["d"] == d
    # a whitespace text file of the same samples gives the same row; one
    # column is d = 1
    text = tmp_path / "g.txt"
    np.savetxt(text, samples)
    assert main(["noise", "--samples", str(text), "--threshold", "0.5",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == out


def test_cli_noise_empty_samples_prints_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "no data" warning would raise
        assert main(["noise", "--samples", os.devnull]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("snsm: error: need an (n, d) array with n >= 2 "
                            "samples\n")


def _save_npz(path):
    with open(path, "wb") as fh:  # np.savez would add .npz to the name
        np.savez(fh, a=np.zeros((5, 3)))


@pytest.mark.parametrize("write,message", [
    (lambda path: path.write_bytes(b""), "is empty, not a .npy array"),
    (_save_npz, "is an .npz archive, not a .npy array"),
], ids=["empty", "npz"])
def test_cli_noise_npy_without_an_array_exit_1(tmp_path, capsys, write, message):
    path = tmp_path / "g.npy"
    write(path)
    assert main(["noise", "--samples", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"snsm: error: {path} {message}\n"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
def test_cli_noise_bad_threshold_exit_1(tmp_path, capsys, threshold):
    path = tmp_path / "g.npy"
    np.save(path, np.random.default_rng(0).standard_normal((5, 3)))
    assert main(["noise", "--samples", str(path), f"--threshold={threshold}"]) == 1
    assert capsys.readouterr().err == (
        f"snsm: error: threshold must be finite and >= 0, got {float(threshold)}\n")


def test_cli_sweep(capsys):
    assert main(["sweep", "--betas", "0.5", "--d", "16", "--T", "20",
                 "--n-seeds", "2", "--subset-sizes", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("beta,optimizer,subset_size,mean_metric,stderr")


def test_cli_sweep_states_each_comparison_on_stderr(capsys):
    argv = ["--betas", "0,1", "--d", "64", "--T", "100", "--n-seeds", "3",
            "--subset-sizes", "8,16"]
    assert main(["sweep", *argv]) == 0
    captured = capsys.readouterr()
    rows = sweep_beta([0.0, 1.0], d=64, T=100, seeds=range(3), subset_sizes=[8, 16])
    # the table is unchanged: the verdicts go to stderr alone
    assert captured.out == rows_to_csv(rows, [f.name for f in dataclasses.fields(rows[0])])
    by = {(r.beta, r.optimizer, r.subset_size): r for r in rows}
    want = [f"# beta={beta:g} {name} vs AdaGrad: "
            f"{sweep_verdict(by[(beta, optimizer, k)], by[(beta, 'AdaGrad', 1)])}"
            for beta in (0.0, 1.0)
            for name, optimizer, k in (("AdaGradNorm", "AdaGradNorm", 64),
                                       ("AdaGradSN(8)", "AdaGradSN", 8),
                                       ("AdaGradSN(16)", "AdaGradSN", 16))]
    assert captured.err.splitlines() == want


def _exit_code(argv) -> int:
    """``snsm ARGV``'s exit code, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("betas", ["", ","])
def test_cli_sweep_empty_beta_list_exit_1(capsys, betas):
    # "" is the empty list, which the sweep rejects; "," holds empty items,
    # which the flag rejects
    message = {"": "snsm: error: a sweep needs at least one beta",
               ",": "snsm sweep: error: argument --betas: empty item in the "
                    "list ','"}[betas]
    assert _exit_code(["sweep", "--betas", betas, "--d", "16", "--T", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("items", ["0,,1", ",1", "1,"])  # doubled, leading, trailing
@pytest.mark.parametrize("argv", [
    ["sweep", "--d", "16", "--T", "5", "--n-seeds", "2", "--betas"],
    ["sweep", "--d", "16", "--T", "5", "--n-seeds", "2", "--subset-sizes"],
    ["bound", "--thm", "3", "--b0", "1", "--sigma-subsets"],
    ["bound", "--thm", "3", "--sigma-subsets", "1,1", "--b0"],
], ids=lambda argv: argv[-1])
def test_cli_list_flag_rejects_an_empty_item(capsys, argv, items):
    # an empty item is not dropped: "0,,1" is not the list 0, 1
    assert _exit_code([*argv, items]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument {argv[-1]}: empty item in the list {items!r}"
            in captured.err)


def test_cli_sweep_diverged_seed_exit_2(monkeypatch, capsys):
    _inject(monkeypatch, bad_seed=0, bad_t=3, value=np.inf)
    assert main(["sweep", "--betas", "0.5", "--d", "16", "--T", "20",
                 "--n-seeds", "2", "--subset-sizes", "4"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta,optimizer,subset_size,mean_metric,stderr,n_diverged"
    assert all(line.endswith(",1") for line in lines[1:])


def test_cli_numeric_failure_exit_2(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # an 8x8 frame, below linalg._PATH5_MIN_N, is factored by np.linalg.svd
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", no_convergence)
        assert main(["train", "--preset", "AdamSNSM", "--d", "64",
                     "--param-shape", "8x8", "--T", "3", "--out", "/dev/null"]) == 2
    assert "snsm: numeric failure: SVD did not converge" in capsys.readouterr().err

    # a 32x32 frame runs dgesdd's steps itself: DBDSDC reports no convergence
    steps = openblas.svd_steps()
    if steps is None:
        pytest.skip("numpy is not linked to an OpenBLAS that exports dgesdd's steps")
    dgebrd, dbdsdc, dormbr = steps

    def dbdsdc_no_convergence(*args):
        dbdsdc(*args)
        ctypes.c_int64.from_address(args[13]).value = 1  # INFO

    def not_reached(*args, **kwargs):
        raise AssertionError("np.linalg.svd factored a path-5 frame")

    monkeypatch.setattr(openblas, "svd_steps", lambda: (dgebrd, dbdsdc_no_convergence, dormbr))
    monkeypatch.setattr(np.linalg, "svd", not_reached)
    assert main(["train", "--preset", "AdamSNSM", "--d", "1024",
                 "--param-shape", "32x32", "--T", "3", "--out", "/dev/null"]) == 2
    assert "snsm: numeric failure: SVD did not converge" in capsys.readouterr().err


def test_cli_train_gaussian_raw_frame_exit_1(capsys):
    # subspace momentum needs a projector; the raw Gaussian kind is gone
    assert main(["train", "--preset", "SGD-SM", "--frame", "gaussian_raw",
                 "--T", "3", "--out", "/dev/null"]) == 1
    assert capsys.readouterr().err == (
        "snsm: error: 'gaussian_raw' is not a valid FrameKind; choose from svd, "
        "approx_svd, gaussian_ortho, srht, row_subset, top_k_rows, identity, zero\n")


def test_cli_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_cli_bad_manifest_exit_1(tmp_path):
    mf = tmp_path / "bad.manifest"
    mf.write_text("oops\n")
    assert main(["mem", "--manifest", str(mf), "--preset", "Adam"]) == 1


@pytest.mark.parametrize("text", ["", "# comment only\n"])
def test_cli_empty_manifest_exit_1(tmp_path, capsys, text):
    mf = tmp_path / "empty.manifest"
    mf.write_text(text)
    assert main(["mem", "--manifest", str(mf), "--preset", "Adam"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "snsm: error: manifest lists no parameters\n"


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "snsm.cli", "rates",
                           "--beta", "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2.1" in proc.stdout


def test_cli_bound_mode_defaults_do_not_leak_between_calls(capsys):
    # _cmd_bound fills the --thm 3 defaults (--eta among them) into the
    # namespace of one call; the shared parser must not carry them over
    assert main(["bound", "--thm", "3", "--sigma-subsets", "1,1",
                 "--b0", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--thm", "2", "--eta", "0.1"])
    assert exc.value.code == 1
    assert "--thm 2 does not read --eta" in capsys.readouterr().err


def test_cli_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    mf = tmp_path / "m.manifest"
    mf.write_text(MANIFEST)
    good = ["mem", "--manifest", str(mf), "--preset", "AdamSN"]
    assert main(good) == 0
    alone = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["mem", "--preset", "AdamSN"])
    assert exc.value.code == 1
    assert "the following arguments are required: --manifest" in \
        capsys.readouterr().err
    assert main(good) == 0
    assert capsys.readouterr() == alone


def test_cli_sweep_betas_default_survives_a_given_list():
    parser = build_parser()
    assert parser.parse_args(["sweep", "--betas", "0.5"]).betas == [0.5]
    args = parser.parse_args(["sweep"])
    assert args.betas == (0.0, 0.5, 1.0) and args.subset_sizes == ()


def test_cli_builds_its_parser_on_the_first_call_only():
    # importing builds nothing; the first main() builds the top-level parser
    # and its subparsers, and later calls reuse them
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **kw):\n"
        "    built.append(1)\n"
        "    init(self, *a, **kw)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "from snsm import cli\n"
        "counts = [len(built)]\n"
        "for _ in range(3):\n"
        "    cli.main(['rates', '--beta', '0.5', '--out', '/dev/null'])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts[0] == 0 and counts[1] > 0
    assert counts[1:] == [counts[1]] * 3


# a representative command line of each command, and one with only the
# flags it requires
_CLI_ARGVS = {
    "train": (["train", "--preset", "AdamSN", "--d", "8", "--sigma", "0.1",
               "--format", "json"], ["train"]),
    "sweep": (["sweep", "--betas", "0,1", "--subset-sizes", "4,8", "--T", "9"],
              ["sweep"]),
    "rates": (["rates", "--beta", "0.5", "--out", "r.csv"], ["rates", "--beta", "1"]),
    "noise": (["noise", "--samples", "g.npy", "--threshold", "0.1"],
              ["noise", "--samples", "g.txt"]),
    "mem": (["mem", "--manifest", "m", "--preset", "AdamSNSM", "--rank", "2"],
            ["mem", "--manifest", "m", "--preset", "Adam"]),
    "bound": (["bound", "--thm", "3", "--sigma-subsets", "1,2", "--b0", "0.5"],
              ["bound", "--thm", "2"]),
}


def _subparser(parser, cmd):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[cmd]


@pytest.mark.parametrize("cmd", sorted(_CLI_ARGVS))
def test_cli_command_parser_agrees_with_the_full_parser(cmd):
    from snsm import cli
    assert set(_CLI_ARGVS) == set(cli._COMMANDS)
    own, full = build_parser(cmd), build_parser()
    for argv in _CLI_ARGVS[cmd]:
        a, b = vars(own.parse_args(argv)), vars(full.parse_args(argv))
        if cmd == "bound":  # the error method of each parser's own subparser
            assert a.pop("usage_error") == _subparser(own, cmd).error
            assert b.pop("usage_error") == _subparser(full, cmd).error
        assert a == b
    assert _subparser(own, cmd).format_help() == _subparser(full, cmd).format_help()
    assert own.format_usage() == full.format_usage()
    assert own.format_help() == full.format_help()


def _without_output_flags(argv):
    drop = {i + k for i, a in enumerate(argv) if a in ("--format", "--out")
            for k in (0, 1)}
    return [a for i, a in enumerate(argv) if i not in drop]


@pytest.mark.parametrize("cmd", sorted(_CLI_ARGVS))
def test_cli_writes_every_command_on_one_path(tmp_path, monkeypatch, capsys, cmd):
    # each command's rows reach --out as the bytes stdout gets without it,
    # its stderr holds only its "# " lines, and an --out that cannot be
    # written exits 1 before any of them
    monkeypatch.chdir(tmp_path)
    np.save("g.npy", np.random.default_rng(0).standard_normal((20, 4)))
    (tmp_path / "m").write_text(MANIFEST)
    argv = _without_output_flags(_CLI_ARGVS[cmd][0])
    for fmt in ("csv", "json"):
        code = main([*argv, "--format", fmt])
        stdout, stderr = capsys.readouterr()
        assert main([*argv, "--format", fmt, "--out", "o"]) == code
        assert capsys.readouterr() == ("", stderr)
        assert (tmp_path / "o").read_bytes() == stdout.encode()
        assert all(line.startswith("# ") for line in stderr.splitlines())
    assert main([*argv, "--out", str(tmp_path / "no" / "o")]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("snsm: error: ")
    assert stderr.count("\n") == 1


def test_cli_mem_registers_no_flag_of_another_command(tmp_path):
    # a one-shot `snsm mem` builds every subparser but registers the flags
    # of mem alone
    mf = tmp_path / "m.manifest"
    mf.write_text(MANIFEST)
    code = (
        "import argparse, json\n"
        "flags = []\n"
        "add = argparse.ArgumentParser.add_argument\n"
        "def recording_add(self, *a, **kw):\n"
        "    flags.append([self.prog, a[0]])\n"
        "    return add(self, *a, **kw)\n"
        "argparse.ArgumentParser.add_argument = recording_add\n"
        "from snsm import cli\n"
        f"cli.main(['mem', '--manifest', {str(mf)!r}, '--preset', 'Adam',\n"
        "          '--out', '/dev/null'])\n"
        "print(json.dumps(flags))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    progs = {}
    for prog, flag in json.loads(proc.stdout):
        progs.setdefault(prog, []).append(flag)
    assert progs["snsm mem"] == ["-h", "--format", "--out", "--manifest", "--preset",
                                 "--rank", "--subset-rule", "--subset-size"]
    assert progs["snsm train"] == ["-h"]
    assert all(flags == ["-h"] for prog, flags in progs.items()
               if prog not in ("snsm", "snsm mem"))
