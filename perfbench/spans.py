"""Span tracing of the snsm layers from outside the package.

``install`` wraps each layer's public functions by replacing the name in
the namespace of the module that calls it (``snsm.harness.stoch_grad``,
``snsm.optim.sm_direction``, ``snsm.subspace.lift``, ``snsm.kernels.fwht``,
...), so nothing under ``src/`` changes. Every call records a span: name,
start, end, parent span and run id. Spans stay in compact in-memory arrays
until ``save`` writes them out. A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because a
workload is one thread. Every entry-point call runs inside a ``cli.main``
span, so the self times of a pass sum to its traced wall time (the closure
check in ``run.py``); a layer that lost its wrapper shows up as extra self
time of its caller.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "harness", "noise_models", "optim", "partition",
           "subsetnorm", "subspace", "linalg", "kernels")
FRAME_KINDS = ("svd", "srht")

# Spans whose self time and call count are reported as per-layer metrics.
SELF_S = (
    "cli.main", "harness.run", "harness.sweep_beta", "harness.mem_report",
    "noise_models.stoch_grad", "noise_models.NoiseModel.sample",
    "noise_models.Quadratic.grad", "noise_models.Quadratic.value",
    "optim.Optimizer.step", "optim.Optimizer.init", "optim.Optimizer.state_size",
    "partition.build", "partition.subset_sqnorms", "kernels.segment_sqnorms",
    "subsetnorm.sn_init", "subsetnorm.sn_accumulate", "subsetnorm.sn_denominators",
    "subspace.init", "subspace.sm_direction", "subspace.galore_direction",
    "subspace.sm_maybe_refresh", "subspace.galore_maybe_refresh",
    *(f"linalg.{fn}.{kind}" for fn in ("make_frame", "project", "lift")
      for kind in FRAME_KINDS),
    "kernels.fwht",
)
CALLS = (
    "harness.run", "noise_models.stoch_grad", "noise_models.Quadratic.grad",
    "optim.Optimizer.step", "optim.Optimizer.init", "optim.Optimizer.state_size",
    "partition.build", "partition.subset_sqnorms", "subspace.init",
    "subspace.sm_direction", "subspace.galore_direction",
    *(f"linalg.{fn}.{kind}" for fn in ("make_frame", "project", "lift")
      for kind in FRAME_KINDS),
    "kernels.fwht",
)
COUNTERS = ("subspace.refreshes", "kernels.fwht.flops_computed",
            "kernels.fwht.bytes_computed", "linalg.project.dense.flops_computed")


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name, on_return=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments; ``on_return(args, result)`` updates counters.
        """
        fn = getattr(owner, attr)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(self._name_id(name if isinstance(name, str) else name(args)))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, out)
            return out

        setattr(owner, attr, wrapper)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end),
                 run_id=np.full(len(self.start), self.run_id, dtype=np.int32))

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        names = self.names
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        calls = np.bincount(nid, minlength=len(names))
        self_by_name = np.bincount(nid, weights=self_time, minlength=len(names))
        ids = {n: i for i, n in enumerate(names)}

        def calls_of(name):
            return int(calls[ids[name]]) if name in ids else 0

        out = {}
        for name in SELF_S:
            out[f"{name}.self_s"] = float(self_by_name[ids[name]]) if name in ids else 0.0
        for name in CALLS:
            out[f"{name}.calls"] = calls_of(name)
        for module in MODULES[1:]:  # cli has one span, reported as cli.main.self_s
            out[f"{module}.self_s"] = float(sum(
                self_by_name[i] for n, i in ids.items() if n.split(".")[0] == module))
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        steps = calls_of("optim.Optimizer.step")
        out["noise_models.grad_evals_per_step"] = (
            calls_of("noise_models.Quadratic.grad") / steps if steps else 0.0)
        sm = calls_of("subspace.sm_direction")
        if sm:
            lift_ids = [ids[n] for n in ids if n.startswith("linalg.lift.")]
            is_lift = np.isin(nid, lift_ids)
            parent_is_sm = np.zeros(dur.size, dtype=bool)
            parent_is_sm[has_parent] = nid[parent[has_parent]] == ids["subspace.sm_direction"]
            out["linalg.lift_per_sm_direction"] = int(np.sum(is_lift & parent_is_sm)) / sm
        else:
            out["linalg.lift_per_sm_direction"] = 0.0
        out["trace.attributed_s"] = float(self_time.sum())
        step_ids = nid == ids.get("optim.Optimizer.step", -1)
        out["step_ms"] = (dur[step_ids] * 1e3).tolist()
        return out


def _fwht_counts(tracer):
    def on_return(args, out):
        a = args[0]
        n = a.shape[0]
        cols = a.size // n
        stages = int(math.log2(n))
        tracer.counters["kernels.fwht.flops_computed"] += n * stages * cols
        # every butterfly stage reads and writes the whole float64 array
        tracer.counters["kernels.fwht.bytes_computed"] += 2 * 8 * n * cols * stages
    return on_return


def _project_counts(tracer):
    def on_return(args, out):
        frame, G = args[0], args[1]
        if frame.rows is not None:
            m = frame.ambient_dim
            tracer.counters["linalg.project.dense.flops_computed"] += (
                2 * frame.rank * m * (np.size(G) // m))
    return on_return


def _refresh_counts(tracer):
    def on_return(args, refreshed):
        if refreshed:
            tracer.counters["subspace.refreshes"] += 1
    return on_return


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported snsm package."""
    from snsm import cli, harness, kernels, noise_models, optim, partition
    from snsm import subsetnorm, subspace

    w = tracer.wrap
    w(cli, "main", "cli.main")
    for fn in ("run", "sweep_beta", "mem_report", "load_manifest"):
        w(harness, fn, f"harness.{fn}")
    w(harness, "stoch_grad", "noise_models.stoch_grad")
    w(noise_models.NoiseModel, "sample", "noise_models.NoiseModel.sample")
    w(noise_models.Quadratic, "grad", "noise_models.Quadratic.grad")
    w(noise_models.Quadratic, "value", "noise_models.Quadratic.value")
    w(optim.Optimizer, "__init__", "optim.Optimizer.init")
    w(optim.Optimizer, "step", "optim.Optimizer.step")
    w(optim.Optimizer, "state_size", "optim.Optimizer.state_size")
    w(optim, "_build_partition", "partition.build")
    w(partition, "subset_sqnorms", "partition.subset_sqnorms")
    w(kernels, "segment_sqnorms", "kernels.segment_sqnorms")
    for fn in ("sn_init", "sn_accumulate", "sn_denominators"):
        w(subsetnorm, fn, f"subsetnorm.{fn}")
    w(optim, "sm_init", "subspace.init")
    w(optim, "galore_init", "subspace.init")
    w(optim, "sm_direction", "subspace.sm_direction")
    w(optim, "galore_direction", "subspace.galore_direction")
    w(optim, "sm_maybe_refresh", "subspace.sm_maybe_refresh", _refresh_counts(tracer))
    w(optim, "galore_maybe_refresh", "subspace.galore_maybe_refresh",
      _refresh_counts(tracer))
    w(subspace, "make_frame",
      lambda a: f"linalg.make_frame.{getattr(a[0], 'value', a[0])}")
    w(subspace, "project", lambda a: f"linalg.project.{a[0].kind.value}",
      _project_counts(tracer))
    w(subspace, "lift", lambda a: f"linalg.lift.{a[0].kind.value}")
    w(kernels, "fwht", "kernels.fwht", _fwht_counts(tracer))
