"""The local MapReduce runtime: map -> shuffle/sort -> reduce.

Executes a :class:`~repro.mapreduce.job.MapReduceJob` over a
:class:`~repro.mapreduce.batch.RecordBatch` of points (or a list of
generic records), cut into blocks of ``ClusterConfig.hdfs_block_records``
the way the paper's input sits in HDFS ("points randomly distributed
over blocks", Sec. III-B).  Every phase is fully materialized in-process, but
the runtime keeps the books a real cluster would:

* one map task per block, one reduce task per reducer index;
* per-task wall time and reported cost units;
* shuffle volume between map and reduce (a batch counts its rows and
  its column bytes; generic pairs count one each and an estimate);
* a simulated *makespan* per phase from the cluster slot model.

This is the substrate every experiment in the paper runs on: the paper's
Figures 7-10 compare end-to-end and per-phase times, which here come from
:class:`JobResult.phase_times` (wall) and :meth:`JobResult.simulated_time`
(slot-model makespan over deterministic cost units).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

from ..observability.tracing import Span, Tracer
from ..params import check_whole
from .batch import RecordBatch
from .cluster import ClusterConfig
from .counters import Counters
from .job import MapReduceJob, TaskContext
from .scheduler import SchedulerConfig, TaskScheduler

__all__ = ["TaskStats", "JobResult", "LocalRuntime"]


@dataclass(frozen=True)
class TaskStats:
    """Accounting for one map or reduce task."""

    task_id: int
    phase: str  # "map" | "reduce"
    wall_seconds: float
    cost_units: float
    input_records: int
    output_records: int


@dataclass
class JobResult:
    """Everything a job run produced."""

    job_name: str
    outputs: List[Any]
    counters: Counters
    map_tasks: List[TaskStats] = field(default_factory=list)
    reduce_tasks: List[TaskStats] = field(default_factory=list)
    phase_times: Dict[str, float] = field(default_factory=dict)
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    trace: Span | None = None
    #: Dispatch accounting (``ShmTransport.stats()``) — empty for
    #: the serial runtime, which never crosses a process boundary.
    transport: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def simulated_time(
        self, cluster: ClusterConfig, metric: str = "units"
    ) -> float:
        """Slot-model makespan of the whole job.

        Map tasks are scheduled on the cluster's map slots and reduce tasks
        on its reduce slots (phases sequential, as in Hadoop without
        slow-start).  A task lasts its deterministic cost units
        (distance evaluations + index operations), machine-independent;
        ``metric`` names that clock and accepts ``"units"`` only.
        """
        return self.simulated_phase_time(
            "map", cluster, metric
        ) + self.simulated_phase_time("reduce", cluster, metric)

    def simulated_phase_time(
        self, phase: str, cluster: ClusterConfig, metric: str = "units"
    ) -> float:
        """Makespan of a single phase ("map" or "reduce")."""
        if metric != "units":
            raise ValueError(f"unknown metric: {metric!r}")
        if phase == "map":
            tasks, slots = self.map_tasks, cluster.map_slots
        elif phase == "reduce":
            tasks, slots = self.reduce_tasks, cluster.reduce_slots
        else:
            raise ValueError(f"unknown phase: {phase!r}")
        from .cluster import makespan

        return makespan([t.cost_units for t in tasks], slots)


class LocalRuntime:
    """Runs jobs against a simulated cluster.

    What a job is — the map -> shuffle -> reduce loop and its books —
    lives in :meth:`_run_job` and what a task is in :meth:`_run_task`,
    here only; a runtime differs from this one in how a phase's tasks
    get executed (:meth:`_run_phase`), nothing else.

    Fault tolerance follows Hadoop's contract: a task attempt's outputs
    commit only when the attempt succeeds; failed attempts (injected via
    ``failure_injector``, or real exceptions from user code) are retried
    up to ``scheduler.max_attempts`` times before the job errors out.
    Retried wall time is accounted in the task's stats, as it would be on
    a cluster.  The retry loop itself is a
    :class:`~repro.mapreduce.scheduler.TaskScheduler` under ``scheduler``
    (a :class:`~repro.mapreduce.scheduler.SchedulerConfig`: attempts,
    per-attempt timeouts, retry backoff).
    """

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        failure_injector=None,
        tracer: Tracer | None = None,
        scheduler: SchedulerConfig | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        self.failure_injector = failure_injector
        self.scheduler = scheduler or SchedulerConfig()
        self.tracer = tracer
        # "inline" = tasks run in-process, nothing crosses a pipe.
        # ParallelRuntime overrides this with "shm" so task spans record
        # how their payload actually travelled.
        self.transport_label = "inline"
        #: Optional ``(phase, task_id, outputs)`` hook fired the moment a
        #: task's outputs commit — the recovery layer journals partition
        #: verdicts from it.  Driver-side only; never crosses a pipe.
        self.commit_listener = None

    def close(self) -> None:
        """Release what the runtime holds between jobs — here nothing;
        whoever makes a runtime closes it, whichever kind it is."""

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        input_data: Sequence,
        block_records: int | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``input_data`` and return its result.

        ``input_data`` is a :class:`RecordBatch` or a record sequence,
        sliced into blocks of ``block_records`` records (default: the
        cluster's ``hdfs_block_records``), one map task each.
        """
        blocks = self._resolve_blocks(input_data, block_records)
        job_span = self._job_span(job)
        result = self._run_job(job, blocks, self._run_phase, job_span)
        return self._commit_trace(result, job_span)

    def _job_span(self, job: MapReduceJob, **attrs) -> Span:
        return Span.begin(
            f"job:{job.name}", "job",
            job=job.name, n_reducers=job.n_reducers,
            runtime=type(self).__name__, **attrs,
        )

    def _run_job(
        self, job: MapReduceJob, blocks: List[Sequence], run_phase,
        job_span: Span,
    ) -> JobResult:
        """The job: map -> shuffle -> reduce, and all of its books.

        A runtime decides only how a phase's tasks are executed:
        ``run_phase(phase, job, payloads, counters, phase_span)`` gives
        one :meth:`_run_task` result per payload in task-id order (and
        has told :meth:`_committed` of each as it committed).
        """
        result = JobResult(job.name, outputs=[], counters=Counters())
        # One spill per (map task, reducer): the shuffle routes each pair as
        # it is emitted, like Hadoop's map-side partitioned spill files.
        reducer_inputs: List[Dict[Any, List[Any]]] = [
            {} for _ in range(job.n_reducers)
        ]
        for phase, payloads, tasks in (
            ("map", blocks, result.map_tasks),
            ("reduce", reducer_inputs, result.reduce_tasks),
        ):
            t0 = time.perf_counter()
            phase_span = job_span.child(phase, "phase", n_tasks=len(payloads))
            for task_id, out, n_in, wall, cost_units, counters, span in (
                run_phase(phase, job, payloads, result.counters, phase_span)
            ):
                if phase == "map":
                    task_bytes = _shuffle(job, out, reducer_inputs)
                    n_out = _record_count(value for _, value in out)
                    result.shuffle_records += n_out
                    result.shuffle_bytes += task_bytes
                    volume = {"shuffle_bytes": task_bytes}
                else:
                    result.outputs.extend(out)
                    n_out, volume = len(out), {}
                span.annotate(
                    input_records=n_in, output_records=n_out, **volume
                )
                tasks.append(
                    TaskStats(task_id, phase, wall, cost_units, n_in, n_out)
                )
                result.counters.merge(counters)
                phase_span.add_child(span)
            phase_span.finish()
            result.phase_times[phase] = time.perf_counter() - t0
        return result

    def _run_phase(self, phase, job, payloads, counters, phase_span):
        """The serial phase executor: task after task, lazily — a map
        task's output is shuffled before the next task runs."""
        for task_id, payload in enumerate(payloads):
            yield self._committed(
                phase, self._run_task(phase, job, task_id, payload)
            )

    def _committed(self, phase: str, result: tuple) -> tuple:
        """Tell the commit listener of a reduce task's committed result."""
        if phase == "reduce" and self.commit_listener is not None:
            self.commit_listener(phase, result[0], result[1])
        return result

    # ------------------------------------------------------------------
    def _commit_trace(self, result: JobResult, job_span: Span) -> JobResult:
        """Finalize the job span and hand it to the tracer, if any."""
        job_span.finish(
            shuffle_records=result.shuffle_records,
            shuffle_bytes=result.shuffle_bytes,
            map_tasks=len(result.map_tasks),
            reduce_tasks=len(result.reduce_tasks),
        )
        result.trace = job_span
        if self.tracer is not None:
            self.tracer.record(job_span)
        return result

    def _run_task(self, phase: str, job: MapReduceJob, task_id: int,
                  payload, speculative: bool = False,
                  attempt_base: int = 0) -> tuple:
        """Execute one task under the scheduler; commit only on success.

        What the serial phase calls and what a pool worker calls on the
        envelope it opened.  Returns ``(task_id, out, input_records,
        wall, cost_units, counters, task_span)``.  Failed attempts are
        recorded on the *successful* attempt's context counters, so they
        survive the trip back from worker processes; the task span
        carries one ``attempt`` child per attempt (failed ones annotated
        with the error) and, via ``ctx.span``, any spans user code
        attached.  ``speculative`` marks a duplicate straggler copy;
        ``attempt_base`` is nonzero only when a pool resubmits a task
        whose previous worker died, and keeps attempt numbering
        monotonic across pool respawns.
        """
        attempt = self._map_attempt if phase == "map" else self._reduce_attempt
        ctx, (out, n_in), wall, span = TaskScheduler(
            self.scheduler, self.failure_injector
        ).run_task(
            phase, task_id, lambda ctx: attempt(job, payload, ctx),
            speculative=speculative, transport=self.transport_label,
            attempt_base=attempt_base,
        )
        return task_id, out, n_in, wall, ctx.cost_units, ctx.counters, span

    def _map_attempt(self, job: MapReduceJob, block, ctx: TaskContext):
        return list(job.mapper.map_block(block, ctx)), len(block)

    def _reduce_attempt(self, job: MapReduceJob, groups, ctx: TaskContext):
        n_in = sum(_record_count(values) for values in groups.values())
        return list(job.reducer.reduce_block(groups, ctx)), n_in

    # ------------------------------------------------------------------
    def _resolve_blocks(
        self, input_data, block_records: int | None
    ) -> List[Sequence]:
        size = (
            self.cluster.hdfs_block_records if block_records is None
            else check_whole(block_records, "block_records")
        )
        if size < 1:
            raise ValueError("block size must be at least one record")
        if not isinstance(input_data, (RecordBatch, list, tuple)):
            input_data = list(input_data)
        # Slices: a block of a batch is a view of its columns.  Empty
        # input still schedules one (empty) map task.
        return [
            input_data[i:i + size]
            for i in range(0, max(len(input_data), 1), size)
        ]


def _record_count(values: Iterable) -> int:
    """Records in a run of shuffle values: a batch is its rows."""
    return sum(
        len(value) if isinstance(value, RecordBatch) else 1
        for value in values
    )


def _shuffle(
    job: MapReduceJob,
    pairs: Sequence[tuple],
    reducer_inputs: List[Dict[Any, List[Any]]],
) -> int:
    """Group one map task's output into the reducers' inputs.

    The partitioner is asked, and its answer range-checked, once per
    distinct key of the task: a key's destination is a function of the
    key alone, or its values would not meet in one reduce call.  Returns
    the task's shuffle bytes: the column bytes of its batches, or for
    generic pairs an estimate, records x the width of the first record.
    """
    values_of: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        values = values_of.get(key)
        if values is None:
            dest = job.partitioner.partition(key, job.n_reducers)
            if not 0 <= dest < job.n_reducers:
                raise ValueError(
                    f"partitioner returned {dest} for key {key!r}; "
                    f"must be in [0, {job.n_reducers})"
                )
            values = values_of[key] = reducer_inputs[dest].setdefault(
                key, []
            )
        values.append(value)
    if not pairs:
        return 0
    key, value = pairs[0]
    if isinstance(value, RecordBatch):
        return sum(batch.nbytes for _, batch in pairs)
    return len(pairs) * (_approx_size(key) + _approx_size(value))


def _approx_size(obj: Any) -> int:
    """Cheap shuffle-byte estimate; tuples/lists recurse one level."""
    if isinstance(obj, (tuple, list)):
        return sum(sys.getsizeof(x) for x in obj)
    return sys.getsizeof(obj)
