"""Experiment runner: optimizer x objective x noise, with CSV/JSON output.

A run is an :class:`ExperimentConfig`, what its rows share (objective,
noise model, T, seeds, the start and the parameter's view), and one
:class:`~snsm.optim.OptimizerSpec` per row. :func:`run_rows` steps every row
and every seed in lockstep: each row's iterates are one ``(S, d)`` array,
one optimizer per row holds the state of every seed along a leading replica
axis, and each seed draws its noise from its own per-(seed, t) stream, so
every seed of every row follows the trajectory it would follow alone. Each
step makes one oracle call for all rows, which draws each (seed, t) noise
vector once and adds it to every row that carries the seed. A seed that
diverges leaves its row's batch. :func:`run` is that loop with one row.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import momentum_bound
from .noise_models import MLP2, NoiseModel, Quadratic, stoch_grad, streams
from .optim import (
    NonFiniteGradientError,
    Optimizer,
    OptimizerSpec,
    lr_at,
    make_preset,
)


# ---------------------------------------------------------------------------
# configuration and records

def check_seeds(seeds) -> None:
    """Reject an empty seed list and any seed that is not an integer >= 0."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    bad = [s for s in seeds if not isinstance(s, (int, np.integer)) or s < 0]
    if bad:
        # each seed keys its own noise stream, SeedSequence([seed, t])
        raise ValueError(f"seeds must be non-negative integers, got {bad[0]}")


@dataclass(frozen=True)
class ExperimentConfig:
    """What the rows of a run share; each row brings its own OptimizerSpec."""

    objective: object  # Quadratic / MLP2 instance
    noise: NoiseModel
    T: int
    seeds: tuple
    delta1: float = 1.0  # Quadratic only: scale x1 so f(x1) = delta1
    param_shape: tuple | None = None  # view of the flat parameter; default (d,)
    record_every: int = 1

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        check_seeds(self.seeds)
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        shape = self.param_shape
        if shape is not None and int(np.prod(shape)) != self.objective.d:
            raise ValueError("param_shape must have objective.d elements")


RECORD_FIELDS = ("step", "seed", "loss", "grad_norm_sq", "lr", "state_elems")


@dataclass(frozen=True)
class RunRecord:
    step: int
    seed: int
    loss: float
    grad_norm_sq: float
    lr: float
    state_elems: int


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
    """x_1 of every seed, ``(S, d)``, read-only; a random start draws from
    the seed's step-0 stream."""
    obj = config.objective
    if isinstance(obj, Quadratic):
        lam_sum = float(obj.lam.sum())
        if lam_sum <= 0:
            raise ValueError("quadratic needs a positive curvature sum")
        # f(s * ones) = 0.5 s^2 sum(lam) = delta1
        x1 = np.full((len(config.seeds), obj.d),
                     math.sqrt(2.0 * config.delta1 / lam_sum))
    else:
        scale = 1.0 / math.sqrt(obj.d_in if isinstance(obj, MLP2) else obj.d)
        x1 = np.stack([rng.uniform(-scale, scale, obj.d)
                       for rng in streams(config.seeds, 0)])
    x1.flags.writeable = False  # shared by the rows of a run
    return x1


class _Row:
    """One spec of a lockstep loop: its iterates ``(S, d)``, its optimizer
    over S replicas, its running seeds and its records."""

    def __init__(self, config: ExperimentConfig, spec: OptimizerSpec,
                 x1: np.ndarray):
        self.config = config
        self.shape = config.param_shape or (config.objective.d,)
        self.seeds = np.array(config.seeds, dtype=np.int64)
        n_seeds = self.seeds.size
        self.opt = Optimizer(spec, [self.shape], tags=["linear"],
                             total_steps=config.T)
        # closed form, constant over steps
        self.state_elems = self.opt.state_size().total
        self.x = x1  # every step replaces it; x1 itself is never written
        self.live = np.arange(n_seeds)  # positions in config.seeds of the running seeds
        self.grad_sq_sum = np.zeros(n_seeds)
        self.steps_done = np.zeros(n_seeds, dtype=np.int64)
        self.final_loss = np.full(n_seeds, math.nan)
        self.diverged = np.zeros(n_seeds, dtype=bool)
        self.records: list[list[RunRecord]] = [[] for _ in range(n_seeds)]

    def drop(self, bad: np.ndarray) -> np.ndarray:
        """Mark the running seeds at positions ``bad`` diverged; the kept positions."""
        self.diverged[self.live[bad]] = True
        keep = np.flatnonzero(~bad)
        self.opt.keep_replicas(keep)
        self.live = self.live[keep]
        return keep

    def observe(self, t: int) -> np.ndarray | None:
        """Evaluate and record the running seeds at x_t; their true
        gradients, or None when no seed is left."""
        if not self.live.size:
            return None
        config = self.config
        obj = config.objective
        # overflow here is how divergence manifests; detected just below
        with np.errstate(over="ignore", invalid="ignore"):
            loss = obj.value(self.x)
            g_true = obj.grad(self.x)
            gsq = np.vecdot(g_true, g_true)
        finite = np.isfinite(loss) & np.isfinite(gsq)
        if not finite.all():
            keep = self.drop(~finite)
            self.x, g_true = self.x[keep], g_true[keep]
            loss, gsq = loss[keep], gsq[keep]
            if not self.live.size:
                return None
        lr = lr_at(self.opt.spec.schedule, self.opt.spec.base_lr, t, config.T)
        if t % config.record_every == 0 or t == config.T:
            for i, loss_i, gsq_i in zip(self.live, loss.tolist(), gsq.tolist()):
                self.records[i].append(RunRecord(
                    step=t, seed=int(self.seeds[i]), loss=loss_i,
                    grad_norm_sq=gsq_i, lr=lr, state_elems=self.state_elems))
        self.grad_sq_sum[self.live] += gsq
        self.steps_done[self.live] += 1
        self.final_loss[self.live] = loss
        return g_true

    def step(self, g: np.ndarray, t: int) -> None:
        """Step the running seeds with their stochastic gradients ``g``."""
        batch = (self.live.size,) + self.shape
        try:
            x = self.opt.step([self.x.reshape(batch)], [g.reshape(batch)], t)[0]
        except NonFiniteGradientError as exc:
            bad = np.zeros(self.live.size, dtype=bool)
            bad[list(exc.replicas)] = True
            keep = self.drop(bad)
            if not self.live.size:
                return
            batch = (self.live.size,) + self.shape
            x = self.opt.step([self.x[keep].reshape(batch)],
                              [g[keep].reshape(batch)], t)[0]
        self.x = x.reshape(self.live.size, -1)

    def result(self) -> RunResult:
        sums, steps = self.grad_sq_sum, self.steps_done
        summaries = [
            SeedSummary(seed=int(seed),
                        mean_grad_norm_sq=(float(sums[i]) / int(steps[i])
                                           if steps[i] else math.nan),
                        final_loss=float(self.final_loss[i]),
                        diverged=bool(self.diverged[i]))
            for i, seed in enumerate(self.seeds)]
        return RunResult(records=[r for per_seed in self.records for r in per_seed],
                         summaries=summaries)


def _cat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def run_rows(config: ExperimentConfig, specs) -> list:
    """Run every spec (a row) on the config, all rows and all their seeds
    stepping together; one RunResult per spec.

    Each row keeps its own iterates, optimizer, running seeds and records,
    exactly as if run alone; all start from the same x_1. Per step one oracle
    call serves every row, and it draws each seed's noise once for all the
    rows that carry the seed.

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
    for t in range(1, config.T + 1):
        stepping, g_trues = [], []
        for row in rows:
            g_true = row.observe(t)
            if g_true is not None:
                stepping.append(row)
                g_trues.append(g_true)
        if not stepping:
            break
        g = stoch_grad(config.objective, config.noise,
                       _cat([row.x for row in stepping]),
                       _cat([row.seeds[row.live] for row in stepping]), t,
                       true_grad=_cat(g_trues))
        del g_true, g_trues  # not held while the rows step
        start = 0
        for row in stepping:
            stop = start + row.live.size
            row.step(g[start:stop], t)
            start = stop
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
    they run as one lockstep loop and read each (seed, t) draw once.
    """
    for k in subset_sizes:
        if k < 1:
            raise ValueError(f"subset size {k} must be >= 1")
        if d % k != 0:
            raise ValueError(f"subset size {k} does not divide d={d}")
    seeds = tuple(seeds)
    if len(seeds) < 2:
        raise ValueError("a sweep needs at least two seeds to report a stderr")
    obj = Quadratic(np.ones(d))
    jobs = [("AdaGradNorm", d, {}), ("AdaGrad", 1, {})]
    jobs += [("AdaGradSN", k, dict(subset_rule="equip", subset_size=k))
             for k in subset_sizes]
    specs = [make_preset(name, lr=lr, **extra) for name, _, extra in jobs]
    rows: list[SweepRow] = []
    for beta in betas:
        noise = NoiseModel(density_beta=float(beta), density_alpha=alpha)
        config = ExperimentConfig(objective=obj, noise=noise, T=T, seeds=seeds,
                                  record_every=T)
        for (name, k, _), result in zip(jobs, run_rows(config, specs)):
            metrics = np.array([s.mean_grad_norm_sq for s in result.summaries])
            rows.append(SweepRow(
                beta=float(beta), optimizer=name, subset_size=k,
                mean_metric=float(metrics.mean()),
                stderr=float(metrics.std(ddof=1) / math.sqrt(metrics.size)),
                n_diverged=sum(s.diverged for s in result.summaries)))
    return rows


def sweep_verdict(row_a: SweepRow, row_b: SweepRow) -> str:
    """'a_better' / 'b_better' when the +-1 stderr intervals do not overlap;
    'invalid' when either row has a diverged seed, whose truncated metric
    would bias the comparison."""
    if row_a.n_diverged or row_b.n_diverged:
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
    """
    L = 1.0
    mb = momentum_bound(delta1, L, sigma, T, beta1, fail_prob)
    obj = Quadratic(np.ones(d))
    noise = NoiseModel(sigma=sigma / math.sqrt(d))
    config = ExperimentConfig(
        objective=obj, noise=noise, T=T,
        seeds=tuple(range(seed_base, seed_base + n_seeds)), delta1=delta1,
        param_shape=param_shape, record_every=T)
    spec = make_preset("SGD-SM", lr=mb.eta_star, rank=rank, refresh_gap=0,
                       frame_kind=frame_kind)
    result = run(config, spec)
    metrics = tuple(s.mean_grad_norm_sq for s in result.summaries)
    violations = sum(m > mb.total for m in metrics)
    fraction = violations / n_seeds
    threshold = fail_prob + 2.0 * math.sqrt(fail_prob * (1.0 - fail_prob) / n_seeds)
    return BoundCheck(bound=mb.total, eta_star=mb.eta_star, metrics=metrics,
                      violations=violations, fraction=fraction,
                      threshold=threshold, passed=fraction <= threshold)


# ---------------------------------------------------------------------------
# shape manifests

@dataclass(frozen=True)
class ManifestEntry:
    name: str
    tag: str  # linear | embedding | norm | ...
    shape: tuple


@dataclass(frozen=True)
class ShapeManifest:
    entries: tuple

    @property
    def shapes(self):
        return [e.shape for e in self.entries]

    @property
    def tags(self):
        return [e.tag for e in self.entries]


def parse_manifest(text: str) -> ShapeManifest:
    """One parameter per line: ``name<TAB>class<TAB>dim1xdim2`` (or a single
    dim for 1D parameters). Blank lines and ``#`` comments are skipped."""
    entries = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"manifest line {lineno}: expected 3 tab-separated "
                             f"fields, got {len(parts)}")
        name, tag, dims = (p.strip() for p in parts)
        if name in names:
            raise ValueError(f"manifest line {lineno}: duplicate name {name!r}")
        names.add(name)
        try:
            shape = parse_shape(dims)
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from None
        entries.append(ManifestEntry(name=name, tag=tag, shape=shape))
    return ShapeManifest(entries=tuple(entries))


def parse_shape(dims: str) -> tuple:
    """``dim1xdim2x...`` (or a single dim) as a tuple of positive ints."""
    try:
        shape = tuple(int(s) for s in dims.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad shape {dims!r}") from None
    if any(s < 1 for s in shape):
        raise ValueError(f"non-positive dim in {dims!r}")
    return shape


def load_manifest(path) -> ShapeManifest:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def mem_report(manifest: ShapeManifest, spec: OptimizerSpec) -> dict:
    """Persistent optimizer-state elements for a spec over a manifest."""
    opt = Optimizer(spec, manifest.shapes, tags=manifest.tags, total_steps=1)
    size = opt.state_size()
    per_entry = []
    for entry, slot in zip(manifest.entries, opt.slots):
        elems = slot.state_elements()
        frame = elems.pop("frame", 0)
        per_entry.append(dict(name=entry.name, tag=entry.tag,
                              shape="x".join(map(str, entry.shape)),
                              state_elems=sum(elems.values()),
                              frame_elems=frame))
    return dict(total=size.total, breakdown=size.breakdown,
                frame_elements=size.frame_elements, entries=per_entry)


# ---------------------------------------------------------------------------
# output formatting

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows, fields) -> str:
    """UTF-8 CSV text with \\n line endings and a fixed header row."""
    buf = io.StringIO()
    buf.write(",".join(fields) + "\n")
    for r in rows:
        d = r if isinstance(r, dict) else asdict(r)
        buf.write(",".join(_fmt(d[f]) for f in fields) + "\n")
    return buf.getvalue()


def rows_to_json(rows) -> str:
    out = [r if isinstance(r, dict) else asdict(r) for r in rows]
    return json.dumps(out, indent=2) + "\n"
