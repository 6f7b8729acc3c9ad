"""Experiment runner: optimizer x objective x noise, with CSV/JSON output.

A run is an :class:`ExperimentConfig`, what its rows share (objective,
noise model, T, seeds and the start), and one
:class:`~snsm.optim.OptimizerSpec` per row. The objective's
:class:`~snsm.noise_models.ShapeManifest` lists the parameter tensors, the
layout ``snsm mem`` sizes: each row's optimizer is built over it and steps
the views the manifest splits from the flat iterate. :func:`run_rows` steps
every row and every seed in lockstep: each row's iterates are one ``(S, d)``
array, one optimizer per row holds the state of every seed along a leading
replica axis, and each seed draws its noise from its own per-(seed, t)
stream, so every seed of every row follows the trajectory it would follow
alone. Each
step evaluates the objective once for all rows, on their iterates stacked
``(sum S_r, d)``, and makes one oracle call, which draws each (seed, t)
noise vector once and adds it to every row that carries the seed in one
operation. The last step, t = T, is observed and recorded but makes no
update, since nothing reads x_{T+1}. A seed that diverges leaves its row's
batch. :func:`run` is that loop with one row.

:func:`sweep_beta` runs one such loop per beta, and the betas are
independent: on P = min(number of betas, usable CPUs) processes, the caller
runs every P-th beta from the first and P - 1 forked children run the
others, each sending its results back pickled over a pipe. The rows come
back in beta order, the same as from one process.
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import momentum_bound
from .noise_models import (
    ManifestEntry,
    NoiseModel,
    Quadratic,
    ShapeManifest,
    stoch_grad,
    streams,
)
from .optim import NonFiniteGradientError, Optimizer, OptimizerSpec, make_preset


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
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


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

    def observe(self, t: int, loss: np.ndarray, gsq: np.ndarray,
                finite: np.ndarray) -> None:
        """Record the running seeds at x_t from their losses and
        ||grad f(x_t)||^2; the seeds where ``finite`` is False diverged and
        leave the batch before the record."""
        if not finite.all():
            keep = self.drop(~finite)
            self.x, loss, gsq = self.x[keep], loss[keep], gsq[keep]
        config = self.config
        if t % config.record_every == 0 or t == config.T:
            lr = self.opt.spec.base_lr
            for i, loss_i, gsq_i in zip(self.live, loss.tolist(), gsq.tolist()):
                self.records[i].append(RunRecord(
                    step=t, seed=int(self.seeds[i]), loss=loss_i,
                    grad_norm_sq=gsq_i, lr=lr, state_elems=self.state_elems))
        self.grad_sq_sum[self.live] += gsq
        self.steps_done[self.live] += 1
        self.final_loss[self.live] = loss

    def step(self, g: np.ndarray, t: int) -> None:
        """Step the running seeds with their stochastic gradients ``g``."""
        split = self.manifest.split
        try:
            params = self.opt.step(split(self.x), split(g), t)
        except NonFiniteGradientError as exc:
            bad = np.zeros(self.live.size, dtype=bool)
            bad[list(exc.replicas)] = True
            keep = self.drop(bad)
            if not self.live.size:
                return
            params = self.opt.step(split(self.x[keep]), split(g[keep]), t)
        self.x = self.manifest.join(params)

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
    exactly as if run alone; all start from the same x_1. Per step the loop
    evaluates the objective once, on the running iterates of every row
    stacked, and makes one oracle call, which draws each seed's noise once
    and adds it to every row that carries the seed in one operation. At
    t = T the rows are observed and recorded but not stepped: nothing reads
    x_{T+1}.

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
    obj = config.objective
    for t in range(1, config.T + 1):
        running = [row for row in rows if row.live.size]
        if not running:
            break
        x = _cat([row.x for row in running])
        # overflow here is how divergence manifests; detected just below
        with np.errstate(over="ignore", invalid="ignore"):
            loss = obj.value(x)
            g_true = obj.grad(x)
            gsq = np.vecdot(g_true, g_true)
        finite = np.isfinite(loss) & np.isfinite(gsq)
        start = 0
        for row in running:
            stop = start + row.live.size
            row.observe(t, loss[start:stop], gsq[start:stop], finite[start:stop])
            start = stop
        if t == config.T:
            break
        if not finite.all():
            x, g_true = x[finite], g_true[finite]
            running = [row for row in running if row.live.size]
            if not running:
                break
        g = stoch_grad(obj, config.noise, x,
                       _cat([row.seeds[row.live] for row in running]), t,
                       true_grad=g_true)
        del x, g_true  # not held while the rows step
        start = 0
        for row in running:
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
    they run as one lockstep loop and read each (seed, t) draw once. The
    betas run side by side (:func:`_run_configs`); every input is checked
    before the first of them starts.
    """
    betas = tuple(betas)
    if not betas:
        raise ValueError("a sweep needs at least one beta")
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
    noises = [NoiseModel(density_beta=float(beta), density_alpha=alpha)
              for beta in betas]
    configs = [ExperimentConfig(objective=obj, noise=noise, T=T, seeds=seeds,
                                record_every=T)
               for noise in noises]
    rows: list[SweepRow] = []
    for beta, results in zip(betas, _run_configs(configs, specs)):
        for (name, k, _), result in zip(jobs, results):
            metrics = np.array([s.mean_grad_norm_sq for s in result.summaries])
            rows.append(SweepRow(
                beta=float(beta), optimizer=name, subset_size=k,
                mean_metric=float(metrics.mean()),
                stderr=float(metrics.std(ddof=1) / math.sqrt(metrics.size)),
                n_diverged=sum(s.diverged for s in result.summaries)))
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on, as ``taskset`` and cpusets set
    them; 1 where the platform cannot fork or report them."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_configs(configs: list, specs: list) -> list:
    """``run_rows(config, specs)`` for every config, in order, on
    P = min(len(configs), usable CPUs) processes.

    The calling process runs ``configs[0::P]``; P - 1 forked children run
    ``configs[j::P]`` and send their results, or the exception that stopped
    them, back pickled over a pipe. The caller runs its share first, then
    reads each child to EOF and reaps it, and re-raises a child's exception
    as its own. A child that ends without a result raises
    ``ChildProcessError``. No child outlives the call.
    """
    n_proc = min(len(configs), _usable_cpus())  # 1: nothing is forked
    results = [None] * len(configs)
    children = []  # (pid, read end of its pipe, its share) of each unreaped child
    try:
        for j in range(1, n_proc):
            sys.stdout.flush()  # a child exits without flushing what it inherits
            sys.stderr.flush()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if not pid:
                _child(write_fd, configs[j::n_proc], specs)  # never returns
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), j))
        results[0::n_proc] = [run_rows(config, specs) for config in configs[0::n_proc]]
        while children:
            pid, reader, j = children[0]
            with reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            try:
                kind, value = pickle.loads(data)
            except Exception:  # nothing, or a cut-off payload
                betas = ", ".join(str(c.noise.density_beta) for c in configs[j::n_proc])
                raise ChildProcessError(
                    f"the process running beta {betas} ended without a result "
                    f"(wait status {status})") from None
            if kind == "err":
                raise value
            results[j::n_proc] = value
    finally:
        if children:
            import signal  # loaded only when a call is cut short

            for pid, reader, _ in children:
                reader.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # ended, not yet reaped
                    pass
                os.waitpid(pid, 0)
    return results


def _child(write_fd: int, configs: list, specs: list) -> None:
    """The body of a forked child of :func:`_run_configs`: run ``configs``,
    write ``("ok", results)`` or ``("err", exception)`` to ``write_fd`` and
    exit without returning into the caller's frames, flushing its stdio or
    running atexit handlers."""
    code = 1
    try:
        try:
            payload = ("ok", [run_rows(config, specs) for config in configs])
        except BaseException as exc:  # the caller re-raises it
            payload = ("err", exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception may pickle and still not load
                payload = ("err", RuntimeError(repr(exc)))
        with os.fdopen(write_fd, "wb") as writer:
            writer.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


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
    SGD-SM runs at the bound's step size eta* and momentum beta1.
    """
    L = 1.0
    mb = momentum_bound(delta1, L, sigma, T, beta1, fail_prob)
    obj = Quadratic(np.ones(d), shape=param_shape)
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
# shape manifests

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
    opt = Optimizer(spec, manifest.shapes, tags=manifest.tags)
    per_entry = []
    for entry, slot in zip(manifest.entries, opt.slots):
        state, frame = slot.state_elements()
        per_entry.append(dict(name=entry.name, tag=entry.tag,
                              shape="x".join(map(str, entry.shape)),
                              state_elems=state, frame_elems=frame))
    return dict(asdict(opt.state_size()), entries=per_entry)


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
