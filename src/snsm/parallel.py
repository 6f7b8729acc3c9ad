"""CPU policy of the harness, decided once per run by :func:`plan` from
measured thresholds and returned as a frozen :class:`CpuPlan`: the betas of
a sweep side by side on forked processes (:func:`_run_configs`), the noise
drawn a step ahead on a helper thread, the one worker of a
``ThreadPoolExecutor`` (:class:`_NoiseAhead`), and OpenBLAS held off the
helper's CPU, its thread count lowered and its idle worker threads parked.
Every thread and process of snsm is started here; the OpenBLAS it holds is
looked up in :mod:`snsm.openblas`. Nothing here imports
:mod:`snsm.harness`, whose ``run_rows`` is handed to :func:`_run_configs`.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from . import openblas
from .noise_models import Quadratic, draw
from .subspace import GaloreMomentum, SubspaceMomentum


def _usable_cpus() -> int:
    """The CPUs this process may run on, as ``taskset`` and cpusets set
    them; 1 where the platform cannot fork or report them."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# Normals per step below which a draw handed to the helper thread costs
# more than it saves. Draw-ahead over inline, Adam on a quadratic, in one
# interpreter on a 2-vCPU VM: 4096 normals 1.15-1.34x, 8192 0.84x on one
# seed but 1.11x on four, 16384 0.79x on one seed and 0.91x on four,
# 32768 and more 0.59-0.75x in every shape tried.
_DRAW_AHEAD_MIN = 32768

# (get, set, park) of the loaded OpenBLAS, or None (openblas.thread_calls)
_openblas_threads = openblas.thread_calls


@dataclass(frozen=True)
class CpuPlan:
    """How a run uses the CPUs (:func:`plan`): the processes its configs run
    on, whether each step's noise is drawn on a helper thread while the step
    before it runs, and, where it is, the thread count of the OpenBLAS held
    off the helper's CPU, as found and as held, and whether its idle worker
    threads are parked. The default runs in one process and draws inline."""

    processes: int = 1
    draws_ahead: bool = False
    threads_found: int | None = None
    threads_held: int | None = None
    parks: bool = False
    openblas: tuple | None = field(default=None, repr=False, compare=False)  # its calls


def plan(configs: list, specs: list, cpus: int | None = None, lookup=None) -> CpuPlan:
    """The plan of ``run_rows(config, specs)`` over every config: on
    min(len(configs), usable CPUs) processes, drawing ahead only when all
    of these hold:

    - two or more usable CPUs: the helper needs one that the loop and
      OpenBLAS leave it;
    - every objective is a quadratic: the matmuls of an ``MLP2`` ran slower
      beside the helper;
    - every step draws at least ``_DRAW_AHEAD_MIN`` normals;
    - a row that keeps a subspace frame (``SubspaceMomentum``,
      ``GaloreMomentum``) calls OpenBLAS every step, whose worker threads
      spin on every CPU after each call: such rows draw ahead only where
      OpenBLAS's thread count can be held. Parking the worker threads is
      not required: without it the hold only lowers the count.

    OpenBLAS is looked up only for a run that passes the first three, and
    held at the usable CPUs less one, which leaves the helper a CPU; a
    count already that low stays as it is. ``cpus``, and ``lookup``, which
    returns OpenBLAS's ``(get, set, park)`` or None, stand in for the usable
    CPUs and the loaded library.
    """
    cpus = _usable_cpus() if cpus is None else cpus
    processes = min(len(configs), cpus)
    if cpus < 2 or not all(
            isinstance(c.objective, Quadratic)
            and len(set(c.seeds)) * c.noise.prefix(c.objective.d)[0] >= _DRAW_AHEAD_MIN
            for c in configs):
        return CpuPlan(processes)
    calls = (lookup or _openblas_threads)()
    if calls is None:
        return CpuPlan(processes, draws_ahead=not any(
            isinstance(spec.momentum, (SubspaceMomentum, GaloreMomentum))
            for spec in specs))
    found = calls[0]()
    return CpuPlan(processes, True, found, min(found, cpus - 1),
                   calls[2] is not None, calls)


def _run_configs(run_rows, configs: list, specs: list, plan: CpuPlan) -> list:
    """``run_rows(config, specs)`` for every config, in order, on the
    plan's P processes.

    The calling process runs ``configs[0::P]``; P - 1 forked children run
    ``configs[j::P]`` and send their results, or the exception that stopped
    them, back pickled over a pipe. The caller runs its share first, then
    reads each child to EOF and reaps it, and re-raises a child's exception
    as its own. A child that ends without a result raises
    ``ChildProcessError``. No child outlives the call.
    """
    n_proc = plan.processes  # 1: nothing is forked
    results = [None] * len(configs)
    children = []  # (pid, read end of its pipe, its share) of each unreaped child
    try:
        for j in range(1, n_proc):
            sys.stdout.flush()  # a child exits without flushing what it inherits
            sys.stderr.flush()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if not pid:
                _child(write_fd, run_rows, configs[j::n_proc], specs)  # never returns
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


def _child(write_fd: int, run_rows, configs: list, specs: list) -> None:
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


class _NoiseAhead:
    """A helper thread, the one worker of a ``ThreadPoolExecutor``, that
    draws one step's noise while the loop runs the step before it, into a
    buffer of one row per distinct seed of the run that the calling thread
    allocates.

    :meth:`start` hands the helper the draw of ``(seeds, t)``; :meth:`take`
    waits for it and returns it when it is for the seeds and step asked
    for, else None, and the buffer is free again; a draw that failed raises
    its error there, through its future. The pool is made with the first
    draw: just before, from the calling thread, OpenBLAS is held and parked
    as the run's :class:`CpuPlan` says (:meth:`_hold_openblas`).
    :meth:`close` waits for a draw under way, shuts the pool down, which
    joins its thread, and restores OpenBLAS's thread count; the next
    multi-threaded OpenBLAS call starts its workers again.
    """

    def __init__(self, config, plan: CpuPlan):
        self._noise, self._d, self._plan = config.noise, config.objective.d, plan
        self._buf = np.empty((len(set(config.seeds)), self._d))
        self._pool = None
        self._job = None  # ((seeds, t), future) of the draw handed out and not yet taken
        self._restore = None  # (set, OpenBLAS's thread count before the hold), if held

    def start(self, seeds: list, t: int) -> None:
        if self._pool is None:
            self._hold_openblas()
            # imported here, not with the module: 4-9 ms and 0.25-0.4 MB of
            # peak RSS on a 2-vCPU VM, which only a run drawing ahead needs
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1)
        future = self._pool.submit(draw, self._noise, self._d, seeds, t,
                                   out=self._buf[:len(seeds)])
        self._job = (seeds, t), future

    def _hold_openblas(self) -> None:
        """Set OpenBLAS to the plan's held count, then park its worker
        threads: after a multi-threaded call they spin on their CPUs whatever
        the count, about 130 ms of CPU time on a 2-vCPU VM. The park took
        about 0.1 ms, and the next two-thread call about 1 ms longer than a
        warm one to start them again."""
        plan = self._plan
        if plan.threads_held != plan.threads_found:  # both None where none is held
            set_ = plan.openblas[1]
            set_(plan.threads_held)
            self._restore = set_, plan.threads_found
        if plan.parks:
            plan.openblas[2]()

    def take(self, seeds: list, t: int):
        if self._job is None:
            return None
        (job, future), self._job = self._job, None
        future.result()  # raises what stopped the draw
        # a seed that left the batch since the draw leaves it stale
        return self._buf[:len(seeds)] if job == (seeds, t) else None

    def close(self) -> None:
        if self._pool is not None:
            # waits for a draw under way; one not taken is dropped with its
            # error, since the loop ended, or raised its own, before it
            self._pool.shutdown()
        if self._restore is not None:  # also where the thread did not start
            set_, before = self._restore
            set_(before)
