"""CPU policy of the harness, each part with the measured threshold that
decides it: the betas of a sweep side by side on forked processes
(:func:`_run_configs`), the noise drawn a step ahead on a helper thread,
the one worker of a ``ThreadPoolExecutor``, where :func:`_draws_ahead`
holds (:class:`_NoiseAhead`), and OpenBLAS held off the helper's CPU, its
thread count lowered and its idle worker threads parked
(:func:`_openblas_threads`). Every thread and process of snsm is started
here; the OpenBLAS it holds is looked up in :mod:`snsm.openblas`. Nothing
here imports :mod:`snsm.harness`, whose ``run_rows`` is handed to
:func:`_run_configs`.
"""

from __future__ import annotations

import os
import pickle
import sys

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


def _run_configs(run_rows, configs: list, specs: list) -> list:
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


# Normals per step below which a draw handed to the helper thread costs
# more than it saves. Draw-ahead over inline, Adam on a quadratic, in one
# interpreter on a 2-vCPU VM: 4096 normals 1.15-1.34x, 8192 0.84x on one
# seed but 1.11x on four, 16384 0.79x on one seed and 0.91x on four,
# 32768 and more 0.59-0.75x in every shape tried.
_DRAW_AHEAD_MIN = 32768


def _draws_ahead(config, specs: list) -> bool:
    """Whether :func:`snsm.harness.run_rows` draws each step's noise on a
    helper thread while the step before it runs. Only when all of these hold:

    - two or more usable CPUs: the helper needs one that the loop and
      OpenBLAS leave it;
    - the objective is a quadratic: the matmuls of an ``MLP2`` ran slower
      beside the helper;
    - a step draws at least ``_DRAW_AHEAD_MIN`` normals;
    - a row that keeps a subspace frame (``SubspaceMomentum``,
      ``GaloreMomentum``) calls OpenBLAS every step, whose worker threads
      spin on every CPU after each call: such rows draw ahead only where
      :func:`_openblas_threads` can hold OpenBLAS off the helper's CPU.
      Parking the worker threads is not required: without it the hold
      only lowers the count.
    """
    d = config.objective.d
    normals = len(set(config.seeds)) * config.noise.prefix(d)[0]
    if not (normals >= _DRAW_AHEAD_MIN and isinstance(config.objective, Quadratic)
            and _usable_cpus() >= 2):
        return False
    return _openblas_threads() is not None or not any(
        isinstance(spec.momentum, (SubspaceMomentum, GaloreMomentum)) for spec in specs)


# ``(get, set, park)``, the thread-count calls and the worker-pool shutdown
# of the OpenBLAS this process has loaded (``park`` None where it is not
# exported), or None (:func:`snsm.openblas.thread_calls`): looked up once per
# process, on the first run that may draw ahead. Named here so that tests
# can stand in for it.
_openblas_threads = openblas.thread_calls


class _NoiseAhead:
    """A helper thread, the one worker of a ``ThreadPoolExecutor``, that
    draws one step's noise while the loop runs the step before it, into a
    buffer of one row per distinct seed of the run that the calling thread
    allocates.

    :meth:`start` hands the helper the draw of ``(seeds, t)``; :meth:`take`
    waits for it and returns it when it is for the seeds and step asked
    for, else None, and the buffer is free again; a draw that failed raises
    its error there, through its future. The pool is made with the first
    draw: just before, from the calling thread, OpenBLAS is set to run on
    at most the usable CPUs less one and its worker threads are parked
    (:meth:`_hold_openblas`). :meth:`close` waits for a draw under way,
    shuts the pool down, which joins its thread, and restores OpenBLAS's
    thread count; the next multi-threaded OpenBLAS call starts its workers
    again.
    """

    def __init__(self, config):
        self._noise, self._d = config.noise, config.objective.d
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
        """Cap OpenBLAS at the usable CPUs less one, which leaves the helper
        a CPU; a count already that low stays as it is. Then park its
        worker threads: after a multi-threaded call they spin on their CPUs
        whatever the count, about 130 ms of CPU time on a 2-vCPU VM. The
        park took about 0.1 ms, and the next two-thread call about 1 ms
        longer than a warm one to start them again."""
        calls = _openblas_threads()
        if calls is None:
            return
        get, set_, park = calls
        before = get()
        held = min(before, _usable_cpus() - 1)
        if held != before:
            set_(held)
            self._restore = set_, before
        if park is not None:
            park()

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
