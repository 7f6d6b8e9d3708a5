"""Multi-process execution backend for the simulated runtime.

``LocalRuntime`` executes tasks serially in-process, which keeps wall
measurements clean but leaves real cores idle.  ``ParallelRuntime`` runs
map and reduce tasks in a process pool — the results (outputs, counters,
cost units) are identical by construction; only wall times change.  Use
it when the goal is answers rather than measurements.

The construction: a job is ``LocalRuntime._run_job`` — the one map ->
shuffle -> reduce loop and every book it keeps — and a worker runs a
task through the same ``LocalRuntime._run_task`` the serial runtime
calls.  What this module adds is a *phase executor*: how one phase's
tasks get executed (encode, submit, speculate, respawn, drain), and the
dispatch accounting that only exists when tasks cross a process boundary.

Implementation notes: tasks are dispatched per map block / per reducer;
the job object (mapper, reducer, partitioner and their captured plans)
must be picklable, which every built-in component is.  Failure injection,
retries, timeouts, and backoff run inside each worker, preserving
commit-on-success semantics.  The workers outlive the job (one pool per
runtime, see :class:`ParallelRuntime`), so everything a job needs —
runtime configuration, injector, scheduler, kernel — travels in its
context, never by having been forked in.

**Speculative execution** happens here, in the dispatching process: when
``SchedulerConfig.speculate`` is on, the phase monitor compares each
in-flight task's elapsed time against the median of completed tasks (the
same median-multiple rule :func:`repro.observability.report
.detect_stragglers` uses) and launches one duplicate attempt per flagged
straggler.  The first result to commit wins; the loser is cancelled —
logically, as on a real cluster: an attempt already running cannot be
preempted across a process boundary, so its eventual result is simply
discarded — and both the duplicate and the cancellation are recorded in
counters and the task's span.

**Dispatch** has one data plane, shared memory (see
:mod:`repro.mapreduce.shm`): a job's context and each phase's payloads
are written into segments once and tasks ship descriptors, so a retry
or a speculative duplicate resubmits a ~200-byte envelope instead of
re-pickling the partition.  The shuffle stays there too: each map
dispatch carries the name of a fresh spill segment, a worker writes its
task's output batches into it and returns row ranges, and on commit the
driver maps the spill and hands the job loop batch views of it, which
the reduce payloads then reference instead of copying.  Per-job
dispatch cost lands in ``JobResult.transport``, the ``transport``
counter group, and the task spans (``dispatch_bytes``; map tasks also
``spill_bytes``).
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing.connection import wait as wait_readable
from typing import Any, Dict, List, Sequence

from ..observability.tracing import Span
from ..params import check_whole
from .job import MapReduceJob
from .runtime import JobResult, LocalRuntime
from .scheduler import SPECULATIVE_ATTEMPT_BASE
from .shm import (
    ShmTransport,
    Spill,
    install_exit_cleanup,
    open_envelope,
    write_spill,
)

__all__ = ["ParallelRuntime", "make_runtime"]

#: Seconds between speculation checks while a phase has tasks in flight.
_POLL_SECONDS = 0.02

#: An attempt younger than this is never a straggler, whatever multiple
#: of the median it is.  On a warm pool small tasks finish in a
#: millisecond and their median is scheduling jitter; while every job
#: forked its own pool, the fork's latency sat in every duration and was
#: this floor implicitly.  A duplicate costs a dispatch and a poll to
#: notice it, so below this age it cannot pay.
_MIN_STRAGGLER_SECONDS = 0.1

#: Completed tasks of a phase before their median is trusted.
_SPECULATION_MIN_TASKS = 3


def _exit_with_driver() -> None:
    """Pool initializer: this worker dies when its driver does.

    A pool worker blocked on the call queue never learns that its parent
    is gone — it inherited both ends of that pipe, so no EOF arrives —
    and a runtime's workers now idle between jobs for the runtime's whole
    life.  The parent sentinel is the pipe ``multiprocessing`` gives every
    child for exactly this: it turns readable when the last process
    holding the driver's end (the driver, and siblings forked after this
    worker, which watch their own sentinel) has exited, however it died.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait_readable([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True, name="driver-watch").start()


class _PoolBox:
    """A replaceable process pool.

    A SIGKILLed worker breaks the *entire* ``ProcessPoolExecutor`` — every
    in-flight future raises :class:`BrokenProcessPool` and the executor
    refuses further submissions.  Wrapping the pool lets the phase loop
    swap in a fresh executor (``respawn``) without rebinding names across
    the dispatch bookkeeping, and lets the runtime that owns the box keep
    using it for its later jobs.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_driver
        )

    def submit(self, fn, arg):
        return self.pool.submit(fn, arg)

    def respawn(self) -> None:
        # Waits for the broken pool's survivors to be terminated, so none
        # of them writes a spill after its job has released the names.
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_exit_with_driver
        )

    def shutdown(self, wait: bool) -> None:
        self.pool.shutdown(wait=wait, cancel_futures=True)


def _run_task(args):
    """Worker entry: open the envelope and run its task's attempt loop.

    A map task's committed output goes into the spill the driver named
    for this dispatch, and a :class:`Spill` of row ranges rides back in
    its place — unless it is not all batches, then it returns in-band.
    The task span rides back with the result — spans are plain dataclass
    trees of builtins and use epoch timestamps, so they pickle cleanly
    and stay comparable with spans built in the parent process.
    """
    envelope, phase, speculative, attempt_base, spill = args
    runtime, job, task_id, payload = open_envelope(envelope)
    result = runtime._run_task(
        phase, job, task_id, payload, speculative, attempt_base
    )
    if spill is None:
        return result
    spilled = write_spill(spill, result[1])
    result[-1].annotate(spill_bytes=spilled.nbytes if spilled else 0)
    return result if spilled is None else (result[0], spilled, *result[2:])


class _Dispatch:
    """One phase's in-flight state: which attempts are out, which tasks
    have committed, and what it has cost to get there."""

    def __init__(self, pool: _PoolBox, transport: ShmTransport, phase: str,
                 envelopes, counters, phase_span: Span) -> None:
        self.pool = pool
        self.transport = transport
        self.phase = phase
        self.envelopes = envelopes    # task_id -> ShmEnvelope
        self.counters = counters
        self.phase_span = phase_span
        self.futures = {}             # future -> (task_id, is_speculative)
        self.live = set()
        self.primary = {}
        self.duplicates = {}          # task_id -> speculative future
        self.failed = {}              # task_id -> first exception seen
        self.submit_time = {}
        self.durations: List[float] = []
        self.committed = {}           # task_id -> worker result tuple
        self.resubmits = defaultdict(int)  # task_id -> pool-death re-dispatches

    def submit(self, tid: int, speculative: bool = False,
               attempt_base: int = 0) -> bool:
        """Hand one attempt of ``tid`` to the pool; False if it is broken
        (the completion loop then respawns it and re-dispatches everything
        uncommitted, this task included).  A duplicate reuses the encoded
        envelope — a descriptor, not a re-pickled partition — and is
        timed from its primary's submission.  Each map dispatch gets a
        spill name of its own, tracked before the worker can see it."""
        spill = self.transport.spill_name() if self.phase == "map" else None
        try:
            fut = self.pool.submit(
                _run_task,
                (self.envelopes[tid], self.phase, speculative, attempt_base,
                 spill),
            )
        except BrokenProcessPool:
            return False
        self.futures[fut] = (tid, speculative)
        self.live.add(fut)
        if speculative:
            self.duplicates[tid] = fut
        else:
            self.primary[tid] = fut
            self.submit_time[tid] = time.perf_counter()
        return True


class ParallelRuntime(LocalRuntime):
    """Drop-in LocalRuntime that fans tasks out to worker processes.

    The pool belongs to the runtime, not to a job: constructing a
    runtime forks nothing, the first ``run`` starts the workers, every
    later job reuses them (a pool broken by a dead worker is replaced in
    place), and ``close`` — or leaving the ``with`` block — stops them.
    One job at a time: jobs of one runtime share its workers.
    """

    def __init__(
        self,
        cluster=None,
        failure_injector=None,
        workers: int = 4,
        tracer=None,
        scheduler=None,
        transport: str = "shm",
    ) -> None:
        super().__init__(cluster, failure_injector, tracer, scheduler)
        workers = check_whole(workers, "workers")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Shared memory is the only transport.  The keyword survives
        # only because the perfbench workloads pass ``transport="shm"``.
        if transport != ShmTransport.name:
            raise ValueError(
                f"unknown transport {transport!r}; tasks reach the pool "
                "only through shared memory ('shm')"
            )
        self.workers = workers
        self.transport_label = ShmTransport.name
        # A killed process never reaches the transport's unlink-in-finally
        # path; the atexit/SIGTERM sweep is the backstop that keeps
        # /dev/shm clean for every survivable exit (`repro clean-shm`
        # handles the SIGKILL case, which no in-process hook survives).
        install_exit_cleanup()
        # Dispatch accounting summed over every job this runtime ran —
        # pipelines discard intermediate JobResults (e.g. the planning
        # job's), so per-job stats alone undercount a run's dispatches.
        self.transport_totals: Dict[str, Any] = {}
        # The worker pool: started by the first job, so a worker is
        # forked from the driver as that job finds it, then kept for
        # every later job until ``close``.
        self._pool: _PoolBox | None = None

    def _started_pool(self) -> _PoolBox:
        if self._pool is None:
            self._pool = _PoolBox(self.workers)
            # A runtime dropped without ``close`` must not leave workers
            # behind.  Not at interpreter exit: there the executor's own
            # exit hook has already joined them.
            self._finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
            self._finalizer.atexit = False
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; a later ``run`` starts a new one."""
        if self._pool is not None:
            self._finalizer.detach()
            self._pool.shutdown(wait=True)
            self._pool = None

    def run(
        self,
        job: MapReduceJob,
        input_data: Sequence,
        block_records: int | None = None,
    ) -> JobResult:
        blocks = self._resolve_blocks(input_data, block_records)
        job_span = self._job_span(
            job, workers=self.workers, transport=self.transport_label
        )
        # One retry-capable LocalRuntime travels to the workers; it only
        # carries configuration (cluster shape, injector, scheduler), not
        # state — the tracer stays home, task spans return with results.
        worker_rt = LocalRuntime(
            self.cluster, failure_injector=self.failure_injector,
            scheduler=self.scheduler,
        )
        worker_rt.transport_label = self.transport_label
        self._started_pool()
        transport = ShmTransport()
        transport.open_job(worker_rt, job)
        try:
            result = self._run_job(
                job, blocks, partial(self._run_phase, transport), job_span
            )
        finally:
            # Deterministic data-plane teardown: shared-memory segments
            # are unlinked here even when a task exhausts its attempts
            # and the job errors out mid-phase.
            transport.close()

        stats = transport.stats()
        result.transport = stats
        totals = self.transport_totals
        totals["name"] = stats["name"]
        for key, value in stats.items():
            if key != "name":
                totals[key] = totals.get(key, 0) + value
        result.counters.incr(
            "transport", "dispatch_bytes", int(stats["dispatch_bytes"])
        )
        result.counters.incr(
            "transport", "dispatch_us",
            int(stats["dispatch_seconds"] * 1e6),
        )
        result.counters.incr("transport", "tasks", int(stats["tasks"]))
        result.counters.incr(
            "transport", "segments", int(stats["segments"])
        )
        result.counters.incr(
            "transport", "segment_bytes", int(stats["segment_bytes"])
        )
        job_span.annotate(
            dispatch_bytes=int(stats["dispatch_bytes"]),
            dispatch_seconds=stats["dispatch_seconds"],
        )
        return self._commit_trace(result, job_span)

    # ------------------------------------------------------------------
    def _run_phase(self, transport, phase, job, payloads, counters,
                   phase_span):
        """The pool's phase executor: dispatch the phase's tasks,
        speculating on stragglers.

        Returns the worker result tuples sorted by task id — exactly one
        committed result per task, whichever attempt (primary or
        speculative duplicate) finished first.

        A dead worker (SIGKILL, OOM) breaks the whole pool: every live
        future raises :class:`BrokenProcessPool`.  The loop respawns the
        pool and resubmits the lost tasks with a bumped ``attempt_base``
        under the scheduler's backoff policy, failing a task only after
        ``max_attempts`` dispatches have died under it.
        """
        envelopes, dispatch_bytes = transport.encode_tasks(
            dict(enumerate(payloads))
        )
        state = _Dispatch(
            self._pool, transport, phase, envelopes, counters, phase_span
        )
        live, committed, failed = state.live, state.committed, state.failed
        try:
            for tid in envelopes:
                # A worker died while dispatch was still in flight, or
                # while the pool idled since the last job.
                if not state.submit(tid):
                    break
            while len(committed) < len(envelopes):
                # No live attempts with work outstanding means the pool
                # broke before (or while) dispatching — same respawn path
                # as a death observed through a future.
                broken = not live
                done = ()
                if live:
                    done, _ = wait(
                        live, timeout=_POLL_SECONDS,
                        return_when=FIRST_COMPLETED,
                    )
                for fut in done:
                    live.discard(fut)
                    tid, is_spec = state.futures[fut]
                    if tid in committed:
                        continue  # the cancelled loser finishing late
                    try:
                        out = fut.result()
                    except BrokenProcessPool:
                        # Not this task's failure: the pool died under it.
                        # Every sibling future is equally dead; respawn once
                        # after draining the done set.
                        broken = True
                        continue
                    except Exception as exc:
                        # The rival attempt (if any) may still commit this
                        # task; the job only fails once every attempt of a
                        # task has failed (checked below).
                        failed.setdefault(tid, exc)
                        continue
                    if isinstance(out[1], Spill):
                        out = (out[0], transport.open_spill(out[1]), *out[2:])
                    committed[tid] = self._committed(phase, out)
                    state.durations.append(
                        time.perf_counter() - state.submit_time[tid]
                    )
                    self._record_outcome(state, tid, is_spec, out[-1])
                if broken:
                    self._respawn(state)
                for tid, exc in failed.items():
                    if tid not in committed and not (
                        state.primary[tid] in live
                        or state.duplicates.get(tid) in live
                    ):
                        raise exc
                if self.scheduler.speculate:
                    self._speculate(state)
        finally:
            # Drain: what is still queued is cancelled, what is running —
            # a speculation loser, the siblings of a task that ran out of
            # attempts — is waited for, so no task of this job runs (or
            # writes a spill) once ``run`` has released its arena, and the
            # next job on this pool does not queue behind this one's
            # stragglers.
            for fut in live:
                fut.cancel()
            wait(live)
        for tid, out in committed.items():
            out[-1].annotate(dispatch_bytes=dispatch_bytes[tid])
        return sorted(committed.values(), key=lambda item: item[0])

    # ------------------------------------------------------------------
    def _respawn(self, state: _Dispatch) -> None:
        """Replace a broken pool and resubmit its uncommitted tasks.

        Tasks already in ``failed`` exhausted their own attempts before
        the pool broke; they are left to the failure policy rather than
        granted a fresh lease by someone else's death.
        """
        cfg, phase = self.scheduler, state.phase
        state.counters.incr("recovery", "worker_deaths")
        state.pool.respawn()
        state.live.clear()
        state.duplicates.clear()
        lost = sorted(
            tid for tid in state.envelopes
            if tid not in state.committed and tid not in state.failed
        )
        state.phase_span.child(
            "worker_death", "event", phase=phase, lost_tasks=lost,
        ).finish()
        delay = 0.0
        for tid in lost:
            state.resubmits[tid] += 1
            if state.resubmits[tid] >= cfg.max_attempts:
                raise BrokenProcessPool(
                    f"{phase} task {tid}: worker died under all "
                    f"{cfg.max_attempts} dispatches"
                )
            delay = max(
                delay, cfg.backoff_delay(phase, tid, state.resubmits[tid])
            )
        # One backoff pause per respawn (the deaths were correlated —
        # it was one pool), sized by the slowest task's schedule.
        if delay > 0:
            time.sleep(delay)
        for tid in lost:
            # If the replacement pool broke already (another instant
            # kill), the completion loop respawns once more, with this
            # cycle's resubmit counts still charged.
            if not state.submit(tid, attempt_base=state.resubmits[tid]):
                break
            state.counters.incr("recovery", "tasks_resubmitted")

    @staticmethod
    def _record_outcome(state: _Dispatch, tid, is_spec, span) -> None:
        """Book the commit: who won, who was cancelled, on span+counters."""
        loser = (state.primary if is_spec else state.duplicates).get(tid)
        if is_spec:
            state.counters.incr("runtime", "speculative_wins")
            span.annotate(speculative_winner=True)
        if loser is None:
            return
        loser.cancel()
        state.counters.incr("runtime", "cancelled_attempts")
        # The loser ran (or was queued) in another process; its spans are
        # discarded with its result, so record a tombstone attempt here.
        if is_spec:
            ghost = Span.begin(
                "attempt 0", "attempt", attempt=0, speculative=False
            )
        else:
            ghost = Span.begin(
                f"attempt {SPECULATIVE_ATTEMPT_BASE}", "attempt",
                attempt=SPECULATIVE_ATTEMPT_BASE, speculative=True,
            )
        ghost.finish(status="cancelled")
        span.add_child(ghost)

    def _speculate(self, state: _Dispatch) -> None:
        """Launch duplicate attempts for tasks flagged as stragglers.

        Elapsed time is measured from submission, so on a saturated pool
        queued tasks can be flagged early; the duplicates are harmless —
        attempts are deterministic and only the first commit counts.
        """
        cfg = self.scheduler
        if len(state.durations) < _SPECULATION_MIN_TASKS:
            return
        median = statistics.median(state.durations)
        if median <= 0:
            return
        limit = max(
            cfg.speculation_threshold * median, _MIN_STRAGGLER_SECONDS
        )
        now = time.perf_counter()
        for tid in state.envelopes:
            if (tid in state.committed or tid in state.duplicates
                    or tid in state.failed):
                continue
            if now - state.submit_time[tid] > limit:
                # If the pool died since the last poll, the wait loop
                # will notice and respawn — don't speculate into it.
                if not state.submit(tid, speculative=True):
                    return
                state.counters.incr("runtime", "speculative_attempts")


def make_runtime(
    cluster,
    workers: int = 0,
    scheduler=None,
) -> LocalRuntime:
    """A ``workers``-process pool when ``workers > 0``, else the serial
    runtime."""
    if workers > 0:
        return ParallelRuntime(
            cluster, workers=workers, scheduler=scheduler
        )
    return LocalRuntime(cluster, scheduler=scheduler)
