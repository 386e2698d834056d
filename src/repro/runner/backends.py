"""Pluggable execution backends for the simulation runner.

A backend turns :class:`~repro.runner.job.SimulationJob` objects into
:class:`~repro.analysis.results.GanResult` objects.  Since the streaming
redesign the protocol is **incremental**: :meth:`ExecutionBackend.submit_jobs`
returns one :class:`JobFuture` per job, so the runner (and through it every
``as_completed()`` consumer) observes each job the moment it finishes instead
of waiting for the slowest job of the batch.  The blocking
:meth:`ExecutionBackend.run_jobs` is a convenience wrapper that drains the
futures in submission order.

The runner guarantees the batch it dispatches is already deduplicated and
cache-filtered, so a backend only ever sees work that must actually run.

* :class:`SerialBackend` — in-process, zero-thread reference implementation.
  Its futures are *deferred*: the job executes in the consumer's thread the
  first time the future is driven (``result()`` or the handle's iterators),
  so serial streaming has no scheduling overhead and completion order equals
  submission order.  All other backends must match it bit-for-bit (enforced
  by the parity tests in ``tests/test_runner.py`` / ``tests/test_streaming.py``).
* :class:`ProcessPoolBackend` — ``concurrent.futures.ProcessPoolExecutor``
  fan-out, one pool task per job.  Jobs and results are plain picklable
  dataclasses, and the analytical models are deterministic, so parallel
  results are byte-identical to serial ones.

The CLI picks :class:`SerialBackend` by default and
:class:`ProcessPoolBackend` under ``--parallel``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import CancelledError
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..analysis.results import GanResult
from ..telemetry import get_metrics
from .job import SimulationJob, execute_job

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_PENDING = "pending"
_RUNNING = "running"
_FINISHED = "finished"
_CANCELLED = "cancelled"


class JobFuture:
    """Minimal per-job future shared by every backend.

    Unlike :class:`concurrent.futures.Future`, done-callbacks are guaranteed
    to have finished running before any :meth:`result` call returns — the
    runner relies on this to make "the future is done" imply "the result is
    cached, accounted and published to the batch handle".

    Futures come in two flavours:

    * **passive** (``passive = True``) — nothing executes until a consumer
      *drives* the future (:meth:`drive`, or implicitly :meth:`result`); the
      job then runs synchronously in the consumer's thread.  This is how
      :class:`SerialBackend` streams without threads.
    * **active** — the backend executes the job elsewhere (a pool worker)
      and settles the future when it lands.
    """

    #: Whether a consumer must drive this future for the job to execute.
    passive = False

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._state = _PENDING
        self._result: Optional[GanResult] = None
        self._error: Optional[BaseException] = None
        self._settled = False  # state terminal AND all done-callbacks ran
        self._done_callbacks: List[Callable[["JobFuture"], None]] = []
        self._running_callbacks: List[Callable[["JobFuture"], None]] = []

    # -- observation ----------------------------------------------------
    def done(self) -> bool:
        with self._cond:
            return self._settled

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == _CANCELLED

    def exception(self) -> Optional[BaseException]:
        """The stored error (only meaningful once the future is done)."""
        with self._cond:
            return self._error

    def peek_result(self) -> Optional[GanResult]:
        """The stored result without blocking (None until finished)."""
        with self._cond:
            return self._result

    def result(self, timeout: Optional[float] = None) -> GanResult:
        """Block until the job finishes and return (or raise) its outcome.

        Driving a passive future executes the job in this thread.  Raises
        :class:`concurrent.futures.CancelledError` for cancelled jobs and
        re-raises the job's own exception for failed ones.
        """
        self.drive()
        with self._cond:
            if not self._cond.wait_for(lambda: self._settled, timeout):
                raise TimeoutError("job did not complete within the timeout")
            if self._state == _CANCELLED:
                raise CancelledError()
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result

    # -- callbacks ------------------------------------------------------
    def add_running_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Invoke ``fn(self)`` when the job starts (immediately if it has)."""
        with self._cond:
            if self._state == _PENDING:
                self._running_callbacks.append(fn)
                return
            already_started = self._state in (_RUNNING, _FINISHED)
        if already_started:
            fn(self)

    def add_done_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Invoke ``fn(self)`` once the future settles (immediately if done)."""
        with self._cond:
            if not self._settled:
                self._done_callbacks.append(fn)
                return
        fn(self)

    # -- transitions ----------------------------------------------------
    def set_running(self) -> bool:
        """Atomically move pending -> running; False if that race was lost."""
        with self._cond:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            callbacks = self._running_callbacks[:]
            del self._running_callbacks[:]
        for fn in callbacks:
            self._safe_call(fn)
        return True

    def set_result(self, result: GanResult) -> bool:
        return self._settle(_FINISHED, result=result)

    def set_exception(self, error: BaseException) -> bool:
        return self._settle(_FINISHED, error=error)

    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when (already) cancelled."""
        with self._cond:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
        return self._settle(_CANCELLED, only_from=(_PENDING,))

    def drive(self) -> None:
        """Execute a passive future's job in this thread (no-op otherwise)."""

    # -- internals ------------------------------------------------------
    def _settle(
        self,
        state: str,
        result: Optional[GanResult] = None,
        error: Optional[BaseException] = None,
        only_from: Optional[Tuple[str, ...]] = None,
    ) -> bool:
        with self._cond:
            if self._state in (_FINISHED, _CANCELLED):
                return False
            if only_from is not None and self._state not in only_from:
                return False
            self._state = state
            self._result = result
            self._error = error
        # Run every done-callback *before* waking result() waiters, looping
        # so callbacks registered concurrently are never dropped.
        try:
            while True:
                with self._cond:
                    if not self._done_callbacks:
                        self._settled = True
                        self._cond.notify_all()
                        return True
                    callbacks = self._done_callbacks[:]
                    del self._done_callbacks[:]
                for fn in callbacks:
                    self._safe_call(fn)
        finally:
            # A callback escaping with a BaseException (KeyboardInterrupt
            # unwinding a dying pool's callback thread, say) must still leave
            # the future settled: the terminal state is already recorded, and
            # an unsettled-forever future would hang every result() waiter
            # and as_completed() consumer.
            with self._cond:
                if not self._settled:
                    self._settled = True
                    self._cond.notify_all()

    def _safe_call(self, fn: Callable[["JobFuture"], None]) -> None:
        # A raising callback must not leave the future unsettled (that would
        # deadlock every waiter); the runner's callbacks never raise.  Only
        # Exception is swallowed — BaseException (interrupts) propagates, and
        # _settle's finally block keeps the future settled even then.
        try:
            fn(self)
        except Exception:
            pass


class DeferredJobFuture(JobFuture):
    """Passive future: the job runs when a consumer drives it (serial backend)."""

    passive = True

    def __init__(
        self,
        job: SimulationJob,
        fn: Callable[[SimulationJob], GanResult] = execute_job,
    ) -> None:
        super().__init__()
        self._job = job
        self._fn = fn

    def drive(self) -> None:
        if not self.set_running():  # already driven elsewhere, or cancelled
            return
        try:
            result = self._fn(self._job)
        except BaseException as exc:
            self.set_exception(exc)
        else:
            self.set_result(result)


def _execute_job_chunk(jobs: Sequence[SimulationJob]) -> List[Tuple[bool, object]]:
    """Run a chunk of jobs in one pool task; per-job (ok, result-or-error).

    Module-level so the process pool can pickle it.  Failures are captured
    per job instead of aborting the chunk, preserving the per-job failure
    attribution of the streaming protocol.
    """
    outcomes: List[Tuple[bool, object]] = []
    for job in jobs:
        try:
            outcomes.append((True, execute_job(job)))
        except BaseException as exc:
            outcomes.append((False, exc))
    return outcomes


class _ChunkMemberFuture(JobFuture):
    """One job's future inside a chunked pool submission.

    The whole chunk is one pool task, so members settle together when it
    lands; cancelling a member attempts to cancel the chunk (succeeds only
    while the chunk is still queued, cancelling every member with it).
    """

    def __init__(self) -> None:
        super().__init__()
        self._inner = None

    def _bind(self, inner) -> None:
        self._inner = inner

    def cancel(self) -> bool:
        if self._inner is not None and self._inner.cancel():
            return True  # the chunk's done-callback settles every member
        return self.cancelled()


def _settle_chunk(members: Sequence[_ChunkMemberFuture], inner) -> None:
    """Done-callback of a chunk's pool future: fan outcomes to the members."""
    if inner.cancelled():
        for member in members:
            member._settle(_CANCELLED)
        return
    error = inner.exception()
    if error is not None:  # the chunk itself failed (e.g. unpicklable)
        for member in members:
            member.set_exception(error)
        return
    for member, (ok, value) in zip(members, inner.result()):
        if ok:
            member.set_result(value)
        else:
            member.set_exception(value)


class _WrappedJobFuture(JobFuture):
    """Active future bridging a :class:`concurrent.futures.Future`.

    Used by the process-pool backend.  The worker-side start of a pooled job
    is not observable from this process, so the future never reports
    ``running`` (pooled jobs emit no ``started`` event) and cancellation
    defers entirely to the inner future — which only succeeds while the pool
    task is still queued, preserving the "cancel never discards an executing
    job's result" contract.  The inner future's completion settles this one,
    running our callbacks before any waiter wakes.
    """

    def __init__(self, inner) -> None:
        super().__init__()
        self._inner = inner
        inner.add_done_callback(self._absorb)

    def _absorb(self, inner) -> None:
        if inner.cancelled():
            self._settle(_CANCELLED)
            return
        error = inner.exception()
        if error is not None:
            self.set_exception(error)
        else:
            self.set_result(inner.result())

    def cancel(self) -> bool:
        if self._inner.cancel():  # _absorb settles us as cancelled
            return True
        return self.cancelled()


def _record_dispatch(backend_name: str, futures: Sequence[JobFuture]) -> None:
    """Account a dispatched batch: per-backend dispatch counter + in-flight gauge.

    The in-flight gauge decrements from each future's done-callback, which a
    :class:`JobFuture` guarantees runs before any ``result()`` returns — so
    the gauge never under-counts work a consumer can still be waiting on.
    No-op (one ``None`` check) when metrics are disabled.
    """
    if not futures:
        return
    registry = get_metrics()
    if registry is None:
        return
    registry.counter("backend.jobs.dispatched", backend=backend_name).inc(
        len(futures)
    )
    inflight = registry.gauge("backend.jobs.inflight", backend=backend_name)
    inflight.inc(len(futures))
    for future in futures:
        future.add_done_callback(lambda _f, g=inflight: g.dec())


class ExecutionBackend:
    """Interface of a runner execution backend (incremental protocol)."""

    #: Short identifier used in reports, benchmarks and metric labels.
    name: str = "abstract"

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        """Accept every job, returning one :class:`JobFuture` per job (in order).

        Must not block on job execution: futures resolve incrementally (or,
        for passive futures, when driven by the consumer).
        """
        raise NotImplementedError

    def run_jobs(self, jobs: Sequence[SimulationJob]) -> List[GanResult]:
        """Blocking convenience: execute every job, results in input order."""
        return [future.result() for future in self.submit_jobs(jobs)]

    def close(self) -> None:
        """Release any resources (pools, loops); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Execute jobs in the calling process, one at a time, on demand.

    ``submit_jobs`` returns deferred futures: nothing runs until a consumer
    drives them, and each job then executes synchronously in that consumer's
    thread.  Draining a batch in submission order is therefore exactly the
    pre-streaming serial loop — same order, same thread, no pool — which is
    what keeps this backend the bit-for-bit reference.
    """

    name = "serial"

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        futures: List[JobFuture] = [DeferredJobFuture(job) for job in jobs]
        _record_dispatch(self.name, futures)
        return futures


class ProcessPoolBackend(ExecutionBackend):
    """Execute jobs on a ``ProcessPoolExecutor``.

    Small batches dispatch one pool task per job, so every job streams back
    individually.  Large batches are **chunked** (the same
    ``len(jobs) // (4 * workers)`` bound the pre-streaming ``pool.map`` used)
    to keep per-task IPC overhead amortised on big sweeps — a chunk's jobs
    then settle together when the chunk lands, trading intra-chunk streaming
    granularity for dispatch cost exactly where the granularity is least
    visible (many chunks are still in flight at once).

    The pool is created lazily on the first batch and reused across batches,
    so repeated sweep submissions amortise the worker start-up cost.  Its
    ``multiprocessing`` machinery is imported then too, so serial runs never
    load it.  Call :meth:`close` (or use the backend as a context manager) to
    shut the workers down.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def _chunksize(self, job_count: int) -> int:
        workers = self._max_workers or os.cpu_count() or 1
        return max(1, job_count // (4 * workers))

    @staticmethod
    def _failed_future(error: BaseException) -> JobFuture:
        future = JobFuture()
        future.set_exception(error)
        return future

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        """Submit every job; never raises mid-batch on a dead pool.

        ``pool.submit`` raises once the pool is broken (a worker died — e.g.
        killed by the OOM killer or an interrupt) or shut down.  Propagating
        that from the middle of the loop would discard the already-submitted
        futures and strand any consumer iterating ``as_completed`` over them;
        instead the offending job and every remaining job settle immediately
        as failed, so the full one-future-per-job list is always returned and
        every future reaches a terminal state.
        """
        if not jobs:
            return []
        pool = self._ensure_pool()
        chunksize = self._chunksize(len(jobs))
        if chunksize == 1:
            futures: List[JobFuture] = []
            for index, job in enumerate(jobs):
                try:
                    inner = pool.submit(execute_job, job)
                except BaseException as exc:
                    futures.extend(
                        self._failed_future(exc) for _ in range(index, len(jobs))
                    )
                    _record_dispatch(self.name, futures)
                    return futures
                futures.append(_WrappedJobFuture(inner))
            _record_dispatch(self.name, futures)
            return futures
        members_list: List[JobFuture] = [_ChunkMemberFuture() for _ in jobs]
        for start in range(0, len(jobs), chunksize):
            members = members_list[start : start + chunksize]
            try:
                inner = pool.submit(
                    _execute_job_chunk, list(jobs[start : start + chunksize])
                )
            except BaseException as exc:
                for member in members_list[start:]:
                    member.set_exception(exc)
                _record_dispatch(self.name, members_list)
                return members_list
            for member in members:
                member._bind(inner)
            inner.add_done_callback(
                lambda f, members=members: _settle_chunk(members, f)
            )
        _record_dispatch(self.name, members_list)
        return members_list

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
