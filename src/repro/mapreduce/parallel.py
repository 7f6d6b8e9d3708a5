"""Multi-process execution backend for the simulated runtime.

``LocalRuntime`` executes tasks serially in-process, which keeps wall
measurements clean but leaves real cores idle.  ``ParallelRuntime`` runs
map and reduce tasks in a process pool — the results (outputs, counters,
cost units) are identical by construction; only wall times change.  Use
it when the goal is answers rather than measurements.

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

**Dispatch transport** is pluggable (``transport="pickle" | "shm"``, see
:mod:`repro.mapreduce.shm`): the pickle transport re-serializes the job
context and payload per task (the historical wire format, now measured),
while the shm transport writes everything into shared-memory segments
once and ships descriptors — speculative duplicates then resubmit a
~200-byte envelope instead of re-pickling the partition.  Results are
identical by construction either way; per-job dispatch cost lands in
``JobResult.transport``, the ``transport`` counter group, and the task
spans.
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
from multiprocessing.connection import wait as wait_readable
from typing import Any, Dict, List, Sequence

from ..observability.tracing import Span
from .counters import Counters
from .job import MapReduceJob
from .runtime import (
    JobResult,
    LocalRuntime,
    TaskStats,
    _empty_reduce_output,
    _record_count,
    _shuffle,
)
from .scheduler import SPECULATIVE_ATTEMPT_BASE
from .shm import (
    TRANSPORTS,
    install_exit_cleanup,
    make_transport,
    open_envelope,
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
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_exit_with_driver
        )

    def shutdown(self, wait: bool) -> None:
        self.pool.shutdown(wait=wait, cancel_futures=True)


def _run_map_task(args):
    """Worker entry: execute one map task attempt loop; return pickleables.

    The task span rides back with the result — spans are plain dataclass
    trees of builtins and use epoch timestamps, so they pickle cleanly
    and stay comparable with spans built in the parent process.
    ``attempt_base`` is nonzero only when the dispatcher resubmits a task
    whose previous worker died; it keeps attempt numbering monotonic
    across pool respawns.
    """
    envelope, speculative, attempt_base = args
    runtime, job, task_id, block = open_envelope(envelope)
    ctx, pairs, wall, span = runtime._run_attempts(
        "map", task_id,
        lambda ctx: runtime._map_attempt(job, block, ctx),
        empty=list, speculative=speculative, attempt_base=attempt_base,
    )
    return task_id, pairs, wall, ctx.cost_units, ctx.counters, span


def _run_reduce_task(args):
    envelope, speculative, attempt_base = args
    runtime, job, reducer_id, groups = open_envelope(envelope)
    ctx, (outputs, n_in), wall, span = runtime._run_attempts(
        "reduce", reducer_id,
        lambda ctx: runtime._reduce_attempt(job, groups, ctx),
        empty=_empty_reduce_output, speculative=speculative,
        attempt_base=attempt_base,
    )
    return (reducer_id, outputs, n_in, wall, ctx.cost_units,
            ctx.counters, span)


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
        max_attempts: int = 4,
        workers: int = 4,
        tracer=None,
        scheduler=None,
        transport: str = "pickle",
    ) -> None:
        super().__init__(cluster, failure_injector, max_attempts,
                         tracer=tracer, scheduler=scheduler)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; known: {TRANSPORTS}"
            )
        self.workers = workers
        self.transport = transport
        self.transport_label = transport
        # A killed driver never reaches the transports' unlink-in-finally
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
        result = JobResult(job.name, outputs=[], counters=Counters())
        job_span = Span.begin(
            f"job:{job.name}", "job",
            job=job.name, n_reducers=job.n_reducers,
            runtime=type(self).__name__, workers=self.workers,
            transport=self.transport,
        )
        # One retry-capable LocalRuntime travels to the workers; it only
        # carries configuration (cluster shape, injector, scheduler), not
        # state — the tracer stays home, task spans return with results.
        worker_rt = LocalRuntime(
            self.cluster, failure_injector=self.failure_injector,
            scheduler=self.scheduler,
        )
        worker_rt.transport_label = self.transport
        pool = self._started_pool()
        transport = make_transport(self.transport)
        transport.open_job(worker_rt, job)

        try:
            t0 = time.perf_counter()
            map_span = job_span.child(
                "map", "phase", n_tasks=len(blocks)
            )
            reducer_inputs: List[Dict[Any, List[Any]]] = [
                defaultdict(list) for _ in range(job.n_reducers)
            ]
            envelopes, task_bytes_map = transport.encode_tasks(
                dict(enumerate(blocks))
            )
            map_results = self._run_phase(
                pool, _run_map_task, envelopes, result.counters,
                "map", map_span,
            )
            for task_id, pairs, wall, cost_units, counters, span in (
                map_results
            ):
                task_bytes = _shuffle(job, pairs, reducer_inputs)
                n_out = _record_count(value for _, value in pairs)
                result.map_tasks.append(
                    TaskStats(task_id, "map", wall, cost_units,
                              len(blocks[task_id]), n_out)
                )
                result.counters.merge(counters)
                result.shuffle_records += n_out
                result.shuffle_bytes += task_bytes
                span.annotate(
                    input_records=len(blocks[task_id]),
                    output_records=n_out,
                    shuffle_bytes=task_bytes,
                    dispatch_bytes=task_bytes_map[task_id],
                )
                map_span.add_child(span)
            map_span.finish()
            result.phase_times["map"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            reduce_span = job_span.child(
                "reduce", "phase", n_tasks=job.n_reducers
            )
            envelopes, task_bytes_map = transport.encode_tasks(
                {
                    rid: dict(reducer_inputs[rid])
                    for rid in range(job.n_reducers)
                }
            )
            reduce_results = self._run_phase(
                pool, _run_reduce_task, envelopes, result.counters,
                "reduce", reduce_span,
            )
            for (rid, outputs, n_in, wall, cost_units, counters,
                 span) in reduce_results:
                result.outputs.extend(outputs)
                result.reduce_tasks.append(
                    TaskStats(rid, "reduce", wall, cost_units, n_in,
                              len(outputs))
                )
                result.counters.merge(counters)
                span.annotate(
                    input_records=n_in, output_records=len(outputs),
                    dispatch_bytes=task_bytes_map[rid],
                )
                reduce_span.add_child(span)
            reduce_span.finish()
            result.phase_times["reduce"] = time.perf_counter() - t0
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
    def _run_phase(self, pool, fn, payloads, counters, phase, phase_span):
        """Dispatch one phase's tasks, speculating on stragglers.

        ``payloads`` maps ``task_id`` to the transport envelope for that
        task.  Returns the worker result tuples sorted by task id —
        exactly one committed result per task, whichever attempt
        (primary or speculative duplicate) finished first.

        A dead worker (SIGKILL, OOM) breaks the whole pool: every live
        future raises :class:`BrokenProcessPool`.  The loop respawns the
        pool and resubmits the lost tasks with a bumped ``attempt_base``
        under the scheduler's backoff policy, failing a task only after
        ``max_attempts`` dispatches have died under it.
        """
        cfg = self.scheduler
        futures = {}          # future -> (task_id, is_speculative)
        live = set()
        primary = {}
        duplicates = {}       # task_id -> speculative future
        failed = {}           # task_id -> first exception seen
        submit_time = {}
        durations: List[float] = []
        committed = {}        # task_id -> worker result tuple
        resubmits = defaultdict(int)  # task_id -> pool-death re-dispatches

        try:
            for tid, envelope in payloads.items():
                try:
                    fut = pool.submit(fn, (envelope, False, 0))
                except BrokenProcessPool:
                    # A worker died while dispatch was still in flight, or
                    # while the pool idled since the last job; the
                    # completion loop below respawns and re-dispatches
                    # everything uncommitted, this task included.
                    break
                futures[fut] = (tid, False)
                primary[tid] = fut
                live.add(fut)
                submit_time[tid] = time.perf_counter()

            while len(committed) < len(payloads):
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
                    tid, is_spec = futures[fut]
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
                    committed[tid] = out
                    if phase == "reduce" and self.commit_listener is not None:
                        self.commit_listener(phase, tid, out[1])
                    durations.append(
                        time.perf_counter() - submit_time[tid]
                    )
                    self._record_outcome(
                        tid, is_spec, out[-1], primary, duplicates, counters
                    )
                if broken:
                    self._respawn(
                        pool, fn, payloads, cfg, futures, live, primary,
                        duplicates, submit_time, resubmits, committed,
                        failed, counters, phase, phase_span,
                    )
                for tid, exc in failed.items():
                    if tid not in committed and not (
                        primary[tid] in live
                        or duplicates.get(tid) in live
                    ):
                        raise exc
                if cfg.speculate:
                    self._speculate(
                        pool, fn, payloads, cfg, futures, live, duplicates,
                        failed, committed, submit_time, durations, counters,
                    )
        finally:
            # Drain: what is still queued is cancelled, what is running —
            # a speculation loser, the siblings of a task that ran out of
            # attempts — is waited for, so no task of this job runs once
            # ``run`` has released its arena, and the next job on this
            # pool does not queue behind this one's stragglers.
            for fut in live:
                fut.cancel()
            wait(live)
        return sorted(committed.values(), key=lambda item: item[0])

    # ------------------------------------------------------------------
    def _respawn(self, pool, fn, payloads, cfg, futures, live, primary,
                 duplicates, submit_time, resubmits, committed, failed,
                 counters, phase, phase_span):
        """Replace a broken pool and resubmit its uncommitted tasks.

        Tasks already in ``failed`` exhausted their own attempts before
        the pool broke; they are left to the failure policy rather than
        granted a fresh lease by someone else's death.
        """
        counters.incr("recovery", "worker_deaths")
        pool.respawn()
        live.clear()
        duplicates.clear()
        lost = sorted(
            tid for tid in payloads
            if tid not in committed and tid not in failed
        )
        phase_span.child(
            "worker_death", "event", phase=phase, lost_tasks=lost,
        ).finish()
        delay = 0.0
        for tid in lost:
            resubmits[tid] += 1
            if resubmits[tid] >= cfg.max_attempts:
                raise BrokenProcessPool(
                    f"{phase} task {tid}: worker died under all "
                    f"{cfg.max_attempts} dispatches"
                )
            delay = max(
                delay, cfg.backoff_delay(phase, tid, resubmits[tid])
            )
        # One backoff pause per respawn (the deaths were correlated —
        # it was one pool), sized by the slowest task's schedule.
        if delay > 0:
            time.sleep(delay)
        for tid in lost:
            try:
                fut = pool.submit(
                    fn, (payloads[tid], False, resubmits[tid])
                )
            except BrokenProcessPool:
                # The replacement pool broke already (another instant
                # kill); the completion loop respawns once more, with
                # this cycle's resubmit counts still charged.
                break
            futures[fut] = (tid, False)
            primary[tid] = fut
            live.add(fut)
            submit_time[tid] = time.perf_counter()
            counters.incr("recovery", "tasks_resubmitted")

    @staticmethod
    def _record_outcome(tid, is_spec, span, primary, duplicates, counters):
        """Book the commit: who won, who was cancelled, on span+counters."""
        loser = primary.get(tid) if is_spec else duplicates.get(tid)
        if is_spec:
            counters.incr("runtime", "speculative_wins")
            span.annotate(speculative_winner=True)
        if loser is None:
            return
        loser.cancel()
        counters.incr("runtime", "cancelled_attempts")
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

    @staticmethod
    def _speculate(pool, fn, payloads, cfg, futures, live, duplicates,
                   failed, committed, submit_time, durations, counters):
        """Launch duplicate attempts for tasks flagged as stragglers.

        Elapsed time is measured from submission, so on a saturated pool
        queued tasks can be flagged early; the duplicates are harmless —
        attempts are deterministic and only the first commit counts.
        """
        if len(durations) < cfg.speculation_min_tasks:
            return
        median = statistics.median(durations)
        if median <= 0:
            return
        limit = max(
            cfg.speculation_threshold * median, _MIN_STRAGGLER_SECONDS
        )
        now = time.perf_counter()
        for tid in payloads:
            if (tid in committed or tid in duplicates
                    or tid in failed):
                continue
            if now - submit_time[tid] > limit:
                # Speculative duplicates reuse the encoded envelope —
                # with the shm transport that is a descriptor, not a
                # re-pickled partition.
                try:
                    fut = pool.submit(fn, (payloads[tid], True, 0))
                except BrokenProcessPool:
                    # The pool died since the last poll; the wait loop
                    # will notice and respawn — don't speculate into it.
                    return
                futures[fut] = (tid, True)
                duplicates[tid] = fut
                live.add(fut)
                counters.incr("runtime", "speculative_attempts")


def make_runtime(
    cluster,
    workers: int = 0,
    transport: str = "pickle",
    scheduler=None,
) -> LocalRuntime:
    """A ``workers``-process pool over ``transport`` when ``workers > 0``,
    else the serial runtime (which dispatches nothing, so ``transport``
    does not apply)."""
    if workers > 0:
        return ParallelRuntime(
            cluster, workers=workers, transport=transport,
            scheduler=scheduler,
        )
    return LocalRuntime(cluster, scheduler=scheduler)
