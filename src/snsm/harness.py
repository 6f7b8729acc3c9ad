"""Experiment runner: the lockstep loop over optimizer x objective x noise,
the beta sweep, the Thm-2 Monte-Carlo check and the memory report.

A run is an :class:`ExperimentConfig`, what its rows share (objective,
noise model, T, seeds and the start), and one
:class:`~snsm.optim.OptimizerSpec` per row. The objective's
:class:`~snsm.noise_models.ShapeManifest` lists the parameter tensors, the
layout ``snsm mem`` sizes: each row's optimizer is built over it and steps
the views the manifest splits from the flat iterate, or the iterate itself
when the manifest is one one-axis tensor. :func:`run_rows` steps every row
and every seed in lockstep: each row's iterates are one ``(S, d)`` array,
one optimizer per row holds the state of every seed along a leading
replica axis, and each seed draws its noise from its own per-(seed, t)
stream, so every seed of every row follows the trajectory it would follow
alone. :func:`run` is that loop with one row.

:func:`sweep_beta` runs one such loop per beta, the betas side by side on
forked processes (:mod:`snsm.parallel`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import parallel
from .analysis import momentum_bound
from .noise_models import (
    NoiseModel,
    Quadratic,
    ShapeManifest,
    parse_manifest,
    stoch_grad,
    streams,
)
from .optim import NonFiniteGradientError, Optimizer, OptimizerSpec, make_preset


# ---------------------------------------------------------------------------
# configuration and records

def check_seeds(seeds) -> None:
    """Reject an empty seed list and any seed that is not an integer in
    [0, 2**63), the range of the int64 that a run holds each seed in."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    for s in seeds:  # each keys its own noise stream, SeedSequence([seed, t])
        if not isinstance(s, (int, np.integer)) or s < 0:
            raise ValueError(f"seeds must be non-negative integers, got {s}")
        if s >= 2 ** 63:
            raise ValueError(f"seeds must be below 2**63, got {s}")


@dataclass(frozen=True)
class ExperimentConfig:
    """What the rows of a run share; each row brings its own OptimizerSpec."""

    objective: object  # Quadratic / MLP2 instance, with its manifest
    noise: NoiseModel
    T: int
    seeds: tuple
    delta1: float = 1.0  # Quadratic only: scale x1 so f(x1) = delta1
    record_every: int = 1

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        check_seeds(self.seeds)
        if not (math.isfinite(self.delta1) and self.delta1 >= 0):
            raise ValueError(f"delta1 must be finite and >= 0, got {self.delta1}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    step: int
    seed: int
    loss: float
    grad_norm_sq: float
    lr: float
    state_elems: int


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


@dataclass(frozen=True)
class SeedSummary:
    seed: int
    mean_grad_norm_sq: float  # (1/T) sum_t ||grad f(x_t)||^2, full resolution
    final_loss: float
    diverged: bool


@dataclass(frozen=True)
class RunResult:
    records: list
    summaries: list  # one SeedSummary per seed

    @property
    def any_diverged(self) -> bool:
        return any(s.diverged for s in self.summaries)


def _init_x1(config: ExperimentConfig) -> np.ndarray:
    """x_1 of every seed, ``(S, d)``, read-only: on a quadratic the
    multiple of ones with f(x_1) = delta1, on an MLP2 a draw from the
    seed's step-0 stream."""
    obj = config.objective
    if isinstance(obj, Quadratic):
        lam_sum = float(obj.lam.sum())
        if lam_sum <= 0:
            raise ValueError("quadratic needs a positive curvature sum")
        # f(s * ones) = 0.5 s^2 sum(lam) = delta1
        x1 = np.full((len(config.seeds), obj.d),
                     math.sqrt(2.0 * config.delta1 / lam_sum))
    else:
        scale = 1.0 / math.sqrt(obj.d_in)
        x1 = np.stack([rng.uniform(-scale, scale, obj.d)
                       for rng in streams(config.seeds, 0)])
    x1.flags.writeable = False  # shared by the rows of a run
    return x1


# Below this bound no running sum of ||grad f||^2 can overflow: two floats
# under 2**1023 add up to at most the largest float.
_SQ_SAFE = 2.0 ** 1023
# A sum whose plain addition would overflow is carried times this exact
# power of two from then on, and its mean divided by it.
_SQ_SHIFT = 2.0 ** -64


class _Row:
    """One spec of a lockstep loop: its iterates ``(S, d)``, its optimizer
    over S replicas of the objective's parameters, its running seeds and
    its records."""

    def __init__(self, config: ExperimentConfig, spec: OptimizerSpec,
                 x1: np.ndarray):
        self.config = config
        self.manifest = manifest = config.objective.manifest
        self.seeds = np.array(config.seeds, dtype=np.int64)
        n_seeds = self.seeds.size
        self.opt = Optimizer(spec, manifest.shapes, tags=manifest.tags)
        # one one-axis tensor is the flat iterate itself: no split, no join
        self.whole = manifest.shapes == [(config.objective.d,)]
        self.state_elems = self.opt.state_size().total  # closed form, constant
        self.x = x1  # every step replaces it; x1 itself is never written
        self.live = np.arange(n_seeds)  # positions in config.seeds of the running seeds
        # the running seeds' sums of ||grad f||^2 and last losses, in the
        # order of live, and the steps each has observed; a seed's summary
        # is written from them when it leaves or the run ends
        self.live_sq_sum = np.zeros(n_seeds)
        self.live_loss = np.full(n_seeds, math.nan)
        self.live_steps = 0
        # a bound on every sum, and the sums carried times _SQ_SHIFT
        self.sq_bound = 0.0
        self.live_sq_shifted = np.zeros(n_seeds, dtype=bool)
        self.summaries: list[SeedSummary | None] = [None] * n_seeds
        self.records: list[list[RunRecord]] = [[] for _ in range(n_seeds)]

    def _settle(self, at, diverged: bool) -> None:
        """Write the SeedSummary of each running seed at positions ``at``."""
        steps = self.live_steps
        for i, sq_sum, shifted, loss in zip(self.live[at].tolist(),
                                            self.live_sq_sum[at].tolist(),
                                            self.live_sq_shifted[at].tolist(),
                                            self.live_loss[at].tolist()):
            mean = sq_sum / steps if steps else math.nan
            self.summaries[i] = SeedSummary(
                seed=int(self.seeds[i]),
                mean_grad_norm_sq=mean / _SQ_SHIFT if shifted else mean,
                final_loss=loss, diverged=diverged)

    def drop(self, bad: np.ndarray) -> np.ndarray:
        """Mark the running seeds at positions ``bad`` diverged; the kept positions."""
        self._settle(bad, diverged=True)
        keep = np.flatnonzero(~bad)
        self.opt.keep_replicas(keep)
        self.live = self.live[keep]
        self.live_sq_sum = self.live_sq_sum[keep]
        self.live_sq_shifted = self.live_sq_shifted[keep]
        self.live_loss = self.live_loss[keep]
        return keep

    def observe(self, t: int, loss: np.ndarray, gsq: np.ndarray,
                finite: np.ndarray | None) -> None:
        """Record the running seeds at x_t from their losses and
        ||grad f(x_t)||^2; the seeds where ``finite`` is False diverged and
        leave the batch before the record. ``finite`` is None when every
        value is finite."""
        if finite is not None and not finite.all():
            keep = self.drop(~finite)
            self.x, loss, gsq = self.x[keep], loss[keep], gsq[keep]
        config = self.config
        if t % config.record_every == 0 or t == config.T:
            lr = self.opt.spec.base_lr
            for i, loss_i, gsq_i in zip(self.live, loss.tolist(), gsq.tolist()):
                self.records[i].append(RunRecord(
                    step=t, seed=int(self.seeds[i]), loss=loss_i,
                    grad_norm_sq=gsq_i, lr=lr, state_elems=self.state_elems))
        # every sum stays at most sq_bound: below _SQ_SAFE none can overflow
        self.sq_bound += max(gsq.tolist(), default=0.0)
        if self.sq_bound < _SQ_SAFE:
            self.live_sq_sum += gsq
        else:
            self._add_near_the_limit(gsq)
        self.live_loss = loss
        self.live_steps += 1

    def _add_near_the_limit(self, gsq: np.ndarray) -> None:
        """Add ``gsq`` into sums that may overflow. A sum whose plain
        addition overflows is carried times ``_SQ_SHIFT`` from then on; the
        others add as they are, so their bits do not change."""
        with np.errstate(over="ignore"):
            plain = self.live_sq_sum + gsq
        shifted = (np.where(self.live_sq_shifted, self.live_sq_sum,
                            self.live_sq_sum * _SQ_SHIFT) + gsq * _SQ_SHIFT)
        self.live_sq_shifted |= np.isinf(plain)
        self.live_sq_sum = np.where(self.live_sq_shifted, shifted, plain)

    def step(self, g: np.ndarray, t: int) -> None:
        """Step the running seeds with their stochastic gradients ``g``."""
        try:
            self.x = self._step(self.x, g, t)
        except NonFiniteGradientError as exc:
            bad = np.zeros(self.live.size, dtype=bool)
            bad[list(exc.replicas)] = True
            keep = self.drop(bad)
            if self.live.size:
                self.x = self._step(self.x[keep], g[keep], t)

    def _step(self, x: np.ndarray, g: np.ndarray, t: int) -> np.ndarray:
        """The optimizer's step of the iterates ``x``, ``(S, d)``."""
        if self.whole:
            return self.opt.step([x], [g], t)[0]
        split = self.manifest.split
        return self.manifest.join(self.opt.step(split(x), split(g), t))

    def result(self) -> RunResult:
        self._settle(slice(None), diverged=False)
        return RunResult(records=[r for per_seed in self.records for r in per_seed],
                         summaries=self.summaries)


def _cat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def run_rows(config: ExperimentConfig, specs, plan=None) -> list:
    """Run every spec (a row) on the config, all rows and all their seeds
    stepping together; one RunResult per spec.

    Each row keeps its own iterates, optimizer, running seeds and records,
    exactly as if run alone; all start from the same x_1. Per step the loop
    calls the objective's ``value_and_grad`` once, on the running iterates
    of every row stacked, and makes one oracle call, which draws each
    seed's noise once and adds it to every row that carries the seed in
    one operation; where the plan, ``parallel.plan([config], specs)`` unless
    given, draws ahead, that draw was made on a helper thread during the
    step before, joined before the call returns or raises. At t = T the
    rows are observed and recorded but not stepped: nothing reads x_{T+1}.

    A seed diverges when its loss or ||grad f||^2 is not finite (it stops
    before that step's record) or when the optimizer rejects its stochastic
    gradient as non-finite (it stops after that step's record). Either way
    its rows leave the iterates and the optimizer state, and the others go on.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("run_rows needs at least one spec")
    x1 = _init_x1(config)
    rows = [_Row(config, spec, x1) for spec in specs]
    del x1  # held by the rows until their first step replaces it
    obj = config.objective
    plan = plan or parallel.plan([config], specs)
    ahead = parallel._NoiseAhead(config, plan) if plan.draws_ahead else None
    try:
        seeds = []  # the running seeds of the running rows, in stacking order
        for t in range(1, config.T + 1):
            running = [row for row in rows if row.live.size]
            if not running:
                break
            x = _cat([row.x for row in running])
            # overflow here is how divergence manifests; detected just below
            with np.errstate(over="ignore", invalid="ignore"):
                loss, g_true = obj.value_and_grad(x)
                # not a BLAS dot: its sum splits across BLAS threads at large d,
                # and its last bits then follow the thread count
                gsq = np.einsum("...i,...i->...", g_true, g_true)
            finite = np.isfinite(loss) & np.isfinite(gsq)
            all_finite = finite.all()
            start = 0
            for row in running:
                stop = start + row.live.size
                row.observe(t, loss[start:stop], gsq[start:stop],
                            None if all_finite else finite[start:stop])
                start = stop
            if t == config.T:
                break
            if not all_finite:
                x, g_true = x[finite], g_true[finite]
                running = [row for row in running if row.live.size]
                if not running:
                    break
            if len(seeds) != len(x):
                # seeds only ever leave, so the list is stale exactly when its
                # length differs from the number of running iterates
                seeds = _cat([row.seeds[row.live] for row in running]).tolist()
                distinct = list(dict.fromkeys(seeds))
            drawn = None if ahead is None else ahead.take(distinct, t)
            g = stoch_grad(obj, config.noise, x, seeds, t, true_grad=g_true,
                           drawn=drawn)
            del x, g_true, drawn  # not held while the rows step
            if ahead is not None and t + 1 < config.T:
                ahead.start(distinct, t + 1)  # drawn while the rows step
            start = 0
            for row in running:
                stop = start + row.live.size
                row.step(g[start:stop], t)
                start = stop
            del g  # not held while the next step evaluates the objective
    finally:
        if ahead is not None:
            ahead.close()
    return [row.result() for row in rows]


def run(config: ExperimentConfig, spec: OptimizerSpec) -> RunResult:
    """Run every seed of the config under one spec, all seeds stepping together."""
    return run_rows(config, [spec])[0]


# ---------------------------------------------------------------------------
# beta sweep

@dataclass(frozen=True)
class SweepRow:
    beta: float
    optimizer: str
    subset_size: int  # 1 = coordinate-wise, d = single global subset
    mean_metric: float  # mean over seeds of (1/T) sum ||grad||^2
    stderr: float
    n_diverged: int = 0  # seeds that diverged; any makes the row's verdicts invalid


def sweep_beta(betas, d: int, T: int, seeds, subset_sizes=(),
               alpha: float = 1.0, lr: float = 0.1) -> list:
    """Compare AdaGrad-Norm, AdaGrad and AdaGrad-SN at each subset size
    under d^beta-dense coordinate noise.

    The rows of one beta share the objective, the noise and the seeds, so
    they run as one lockstep loop and read each (seed, t) draw once. The
    betas run side by side on the processes of one :func:`snsm.parallel.plan`;
    every input is checked before the first of them starts.
    """
    betas = tuple(betas)
    if not betas:
        raise ValueError("a sweep needs at least one beta")
    seeds = tuple(seeds)
    if len(seeds) < 2:
        raise ValueError("a sweep needs at least two seeds to report a stderr")
    obj = Quadratic.isotropic(d)
    jobs = [("AdaGradNorm", d, {}), ("AdaGrad", 1, {})]
    jobs += [("AdaGradSN", k, dict(subset_rule="equip", subset_size=k))
             for k in subset_sizes]
    specs = [make_preset(name, lr=lr, **extra) for name, _, extra in jobs]
    for spec in specs:  # checks each row's partition of d; allocates nothing
        Optimizer(spec, obj.manifest.shapes)
    configs = [ExperimentConfig(objective=obj, T=T, seeds=seeds, record_every=T,
                                noise=NoiseModel(density_beta=float(beta),
                                                 density_alpha=alpha))
               for beta in betas]
    rows: list[SweepRow] = []
    plan = parallel.plan(configs, specs)
    for beta, results in zip(betas, parallel._run_configs(run_rows, configs, specs, plan)):
        for (name, k, _), result in zip(jobs, results):
            metrics = np.array([s.mean_grad_norm_sq for s in result.summaries])
            root_n = math.sqrt(metrics.size)
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(metrics.mean())
                stderr = float(metrics.std(ddof=1) / root_n)
                if not math.isfinite(stderr):
                    # squares of metrics near the float limit overflow: take
                    # the std of the metrics over their largest magnitude
                    scale = np.abs(metrics).max()
                    stderr = float(scale * (metrics / scale).std(ddof=1) / root_n)
            rows.append(SweepRow(
                beta=float(beta), optimizer=name, subset_size=k,
                mean_metric=mean, stderr=stderr,
                n_diverged=sum(s.diverged for s in result.summaries)))
    return rows


def sweep_verdict(row_a: SweepRow, row_b: SweepRow) -> str:
    """'a_better' / 'b_better' when the +-1 stderr intervals do not overlap;
    'invalid' when either row has a diverged seed, whose truncated metric
    would bias the comparison, or a mean or stderr that is not finite."""
    if row_a.n_diverged or row_b.n_diverged:
        return "invalid"
    if not all(map(math.isfinite, (row_a.mean_metric, row_a.stderr,
                                   row_b.mean_metric, row_b.stderr))):
        return "invalid"
    if row_a.mean_metric + row_a.stderr < row_b.mean_metric - row_b.stderr:
        return "a_better"
    if row_b.mean_metric + row_b.stderr < row_a.mean_metric - row_a.stderr:
        return "b_better"
    return "inconclusive"


# ---------------------------------------------------------------------------
# high-probability bound verification

@dataclass(frozen=True)
class BoundCheck:
    bound: float
    eta_star: float
    metrics: tuple  # per-seed (1/T) sum ||grad||^2
    violations: int
    fraction: float
    threshold: float
    passed: bool


def verify_thm2(d: int, sigma: float, delta1: float, T: int, fail_prob: float,
                n_seeds: int, rank: int, frame_kind: str = "gaussian_ortho",
                param_shape: tuple | None = None, beta1: float = 0.9,
                seed_base: int = 0) -> BoundCheck:
    """Monte-Carlo check of the momentum convergence bound on a quadratic.

    The quadratic has identity curvature (L = 1). Per-coordinate noise is
    sigma/sqrt(d) Gaussian so the noise vector norm is sigma-sub-gaussian.
    SGD-SM runs at the bound's step size eta* and momentum beta1.
    """
    L = 1.0
    mb = momentum_bound(delta1, L, sigma, T, beta1, fail_prob)
    obj = Quadratic.isotropic(d, shape=param_shape)
    noise = NoiseModel(sigma=sigma / math.sqrt(d))
    config = ExperimentConfig(
        objective=obj, noise=noise, T=T,
        seeds=tuple(range(seed_base, seed_base + n_seeds)), delta1=delta1,
        record_every=T)
    spec = make_preset("SGD-SM", lr=mb.eta_star, rank=rank, refresh_gap=0,
                       frame_kind=frame_kind)
    spec = replace(spec, momentum=replace(spec.momentum, beta1=beta1))
    result = run(config, spec)
    metrics = tuple(s.mean_grad_norm_sq for s in result.summaries)
    violations = sum(m > mb.total for m in metrics)
    fraction = violations / n_seeds
    threshold = fail_prob + 2.0 * math.sqrt(fail_prob * (1.0 - fail_prob) / n_seeds)
    return BoundCheck(bound=mb.total, eta_star=mb.eta_star, metrics=metrics,
                      violations=violations, fraction=fraction,
                      threshold=threshold, passed=fraction <= threshold)


# ---------------------------------------------------------------------------
# memory reports

def load_manifest(path) -> ShapeManifest:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def mem_report(manifest: ShapeManifest, spec: OptimizerSpec) -> dict:
    """Persistent optimizer-state elements for a spec over a manifest."""
    opt = Optimizer(spec, manifest.shapes, tags=manifest.tags)
    per_entry = []
    for entry, slot in zip(manifest.entries, opt.slots):
        state, frame = slot.state_elements()
        per_entry.append(dict(name=entry.name, tag=entry.tag,
                              shape="x".join(map(str, entry.shape)),
                              state_elems=state, frame_elems=frame))
    return dict(asdict(opt.state_size()), entries=per_entry)
