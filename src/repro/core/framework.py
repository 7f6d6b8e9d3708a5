"""The DOD distributed detection framework (Sec. III, Figs. 2-3).

Two pipelines are provided, both run by
:func:`~repro.core.detect_outliers` (a plan whose ``strategy`` is
``"Domain"`` takes the second):

* :func:`_run_framework` — the paper's single-job framework.  The mapper
  emits each point once as a *core* record for its own partition (tag 0)
  and once as a *support* record for every partition whose ``r``-expansion
  contains it (tag 1, Def. 3.3).  Each reducer receives one partition's
  core ∪ support points and runs a centralized detector in total isolation;
  by Lemma 3.1 the result is exact.

* :func:`_run_baseline` — the paper's baseline without supporting areas
  (Sec. VI-A).  Job 1 detects locally and marks border candidates; job 2
  re-checks each candidate against the border points of the partitions its
  ``r``-ball intersects; a final client-side merge sums the partial
  neighbor counts.  This pipeline is also exact but pays a second pass of
  reading/shuffling — the overhead Fig. 7/8 charges against Domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List

import numpy as np

from ..mapreduce import (
    DictPartitioner,
    HashPartitioner,
    JobResult,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..partitioning import PartitionPlan
from .config import RunConfig
from .execute import (
    _MAP_EMIT_COST,
    _MAP_RECORD_COST,
    _detect_partition,
    _DODReducer,
    _id_array,
    route,
)
from .outliers import OutlierParams, neighbor_counts

__all__ = ["DetectionRun"]

@dataclass
class DetectionRun:
    """Result of a distributed detection run."""

    outlier_ids: set[int]
    plan: PartitionPlan
    jobs: List[JobResult] = field(default_factory=list)
    detector_usage: Dict[str, int] = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def map_task_costs(self) -> List[float]:
        """Per-map-task cost units, job by job."""
        return [t.cost_units for job in self.jobs for t in job.map_tasks]

    def reduce_task_costs(self) -> List[float]:
        """Per-reducer cost units, job by job."""
        return [
            t.cost_units for job in self.jobs for t in job.reduce_tasks
        ]

    def total_shuffle_records(self) -> int:
        return sum(job.shuffle_records for job in self.jobs)


# ----------------------------------------------------------------------
# Single-job DOD framework
# ----------------------------------------------------------------------
class _DODMapper(Mapper):
    """Fig. 3 map function: core record + zero or more support records.

    ``certified_ids``/``dropped_ids`` are the fast tier's pre-cleared
    inliers, demoted to support records or skipped outright as
    :func:`~repro.core.execute.route` describes.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        r: float | np.ndarray,
        certified_ids: Collection[int] = (),
        dropped_ids: Collection[int] = (),
    ) -> None:
        self.plan = plan
        self.r = r
        self.certified_ids = _id_array(certified_ids)
        self.dropped_ids = _id_array(dropped_ids)

    def map(self, key, value, ctx: TaskContext):
        pid, point = key, value
        if pid in self.dropped_ids:
            ctx.counters.incr("dod", "dropped_records")
            ctx.add_cost(_MAP_RECORD_COST)
            return
        point_t = tuple(float(x) for x in point)
        core = self.plan.core_pid(point_t)
        core_tag = 1 if pid in self.certified_ids else 0
        emitted = 1
        yield core, (core_tag, pid, point_t)
        for support_pid in self.plan.support_pids(point_t, self.r):
            yield support_pid, (1, pid, point_t)
            emitted += 1
            ctx.counters.incr("dod", "support_records")
        ctx.add_cost(_MAP_RECORD_COST + _MAP_EMIT_COST * emitted)

    def map_block(self, records, ctx: TaskContext):
        """Vectorized block path: the records :meth:`map` emits, as one
        batch per partition."""
        if not records:
            return []
        n_kept = len(records)
        if len(self.dropped_ids):
            n_kept -= int(np.isin(records.ids, self.dropped_ids).sum())
            ctx.counters.incr(
                "dod", "dropped_records", len(records) - n_kept
            )
        pairs = route(
            self.plan, records, self.r, self.certified_ids, self.dropped_ids
        )
        n_out = sum(len(batch) for _, batch in pairs)
        if pairs:
            ctx.counters.incr("dod", "support_records", n_out - n_kept)
        ctx.add_cost(
            _MAP_RECORD_COST * len(records) + _MAP_EMIT_COST * n_out
        )
        return pairs


def _support_job(
    name: str,
    plan: PartitionPlan,
    r: float | np.ndarray,
    reducer: Reducer,
    n_reducers: int,
    certified_ids: Collection[int] = (),
    dropped_ids: Collection[int] = (),
) -> MapReduceJob:
    """A supporting-area job (Fig. 3): the DOD mapper routes each point
    to its core partition and to every partition whose ``r``-expansion
    contains it (``r`` is one radius or one per partition, as
    :meth:`~repro.partitioning.PartitionPlan.assign_batch` takes it),
    and ``reducer`` sees one partition's tagged pool per call.

    Detection and every extension (DBSCAN, LOCI, kNN refinement) differ
    only in the reducer they hand in.
    """
    partitioner = (
        DictPartitioner(plan.allocation)
        if plan.allocation is not None
        else HashPartitioner()
    )
    return MapReduceJob(
        name=name,
        mapper=_DODMapper(
            plan, r, certified_ids=certified_ids, dropped_ids=dropped_ids,
        ),
        reducer=reducer,
        n_reducers=n_reducers,
        partitioner=partitioner,
    )


def _run_framework(
    runtime: LocalRuntime,
    input_data,
    plan: PartitionPlan,
    cfg: RunConfig,
    certified_ids: Collection[int] = (),
    dropped_ids: Collection[int] = (),
) -> DetectionRun:
    """The single-pass framework: one MapReduce job end to end."""
    job = _support_job(
        f"dod-detect-{plan.strategy}", plan, cfg.params.r,
        _DODReducer(cfg, plan.algorithm_plan), cfg.n_reducers,
        certified_ids, dropped_ids,
    )
    result = runtime.run(job, input_data)
    usage = {
        name.removeprefix("algorithm_"): count
        for name, count in result.counters.group("dod").items()
        if name.startswith("algorithm_")
    }
    return DetectionRun(
        outlier_ids={outlier_id for _, outlier_id in result.outputs},
        plan=plan,
        jobs=[result],
        detector_usage=usage,
    )


# ----------------------------------------------------------------------
# Domain baseline: two jobs + client-side merge
# ----------------------------------------------------------------------
class _LocalOnlyMapper(Mapper):
    """Job 1 map: route each point to its core partition only."""

    def __init__(self, plan: PartitionPlan) -> None:
        self.plan = plan

    def map(self, key, value, ctx: TaskContext):
        pid, point = key, value
        point_t = tuple(float(x) for x in point)
        ctx.add_cost(_MAP_RECORD_COST + _MAP_EMIT_COST)
        yield self.plan.core_pid(point_t), (pid, point_t)

    def map_block(self, records, ctx: TaskContext):
        """Vectorized block path: the records :meth:`map` emits, as one
        batch per partition."""
        if not records:
            return []
        ctx.add_cost((_MAP_RECORD_COST + _MAP_EMIT_COST) * len(records))
        return RecordBatch(
            records.ids, records.points,
            keys=self.plan.core_pids_batch(records.points),
        ).group_by_key()


class _LocalDetectReducer(Reducer):
    """Job 1 reduce: local detection, candidate + border extraction.

    Runs the configured centralized detector on the partition's points
    alone (no supporting area exists in the Domain baseline), then derives
    exact local neighbor counts for the few locally-detected outliers —
    those are the points whose verdict a neighbor partition could overturn.

    Emits three record kinds:
    ``("outlier", id)`` — confirmed (interior) outliers;
    ``("candidate", partition, id, point, local_count)`` — local outliers
    near the border, needing confirmation;
    ``("border", partition, id, point)`` — points near the border, which
    job 2 uses as neighbor candidates for other partitions' candidates.
    """

    def __init__(self, plan: PartitionPlan, cfg: RunConfig) -> None:
        self.plan = plan
        self.cfg = cfg

    def reduce(self, key, values, ctx: TaskContext):
        params = self.cfg.params
        rows = RecordBatch.concat(values)
        ids, pts = rows.ids, rows.points
        result = _detect_partition(
            ctx, self.cfg, self.cfg.detector, key,
            pts, ids, np.empty((0, pts.shape[1])),
        )
        local_outliers = set(result.outlier_ids)

        # Exact local counts for the local outliers only (one scan each).
        outlier_rows = np.asarray(
            [i for i in range(len(ids)) if int(ids[i]) in local_outliers],
            dtype=np.int64,
        )
        exact = {}
        if outlier_rows.size:
            counts = neighbor_counts(
                pts[outlier_rows], pts, params.r, exclude_self=True
            )
            ctx.add_cost(float(outlier_rows.size * pts.shape[0]))
            ctx.counters.incr(
                "dod", "distance_evals",
                int(outlier_rows.size * pts.shape[0]),
            )
            exact = {
                int(ids[row]): int(c)
                for row, c in zip(outlier_rows, counts)
            }

        rect = self.plan.partition(key).rect
        for i in range(pts.shape[0]):
            pid = int(ids[i])
            near_border = (
                rect.distance_to_boundary(pts[i]) <= params.r
            )
            if pid in local_outliers:
                if near_border:
                    yield (
                        "candidate", key, pid, tuple(pts[i]), exact[pid]
                    )
                else:
                    yield ("outlier", pid)
            if near_border:
                yield ("border", key, pid, tuple(pts[i]))


class _ConfirmMapper(Mapper):
    """Job 2 map: route candidates to every partition their ball touches
    and border points to their own partition."""

    def __init__(self, plan: PartitionPlan, r: float) -> None:
        self.plan = plan
        self.r = r

    def map(self, key, value, ctx: TaskContext):
        kind = value[0]
        if kind == "candidate":
            _, home_pid, pid, point, count = value
            emitted = 0
            for other in self.plan.support_pids(point, self.r):
                yield other, ("c", pid, point)
                emitted += 1
            ctx.add_cost(_MAP_RECORD_COST + _MAP_EMIT_COST * emitted)
        elif kind == "border":
            _, home_pid, pid, point = value
            ctx.add_cost(_MAP_RECORD_COST + _MAP_EMIT_COST)
            yield home_pid, ("p", pid, point)


class _ConfirmReducer(Reducer):
    """Job 2 reduce: per partition, count this partition's border points
    that neighbor each visiting candidate."""

    def __init__(self, params: OutlierParams) -> None:
        self.params = params

    def reduce(self, key, values, ctx: TaskContext):
        own = np.asarray(
            [v[2] for v in values if v[0] == "p"], dtype=float
        )
        candidates = [(v[1], v[2]) for v in values if v[0] == "c"]
        if not candidates or own.size == 0:
            return
        pts = np.asarray([c[1] for c in candidates], dtype=float)
        counts = neighbor_counts(pts, own, self.params.r)
        ctx.add_cost(float(pts.shape[0] * own.shape[0]))
        ctx.counters.incr(
            "dod", "distance_evals", int(pts.shape[0] * own.shape[0])
        )
        for (pid, _), count in zip(candidates, counts):
            yield ("partial", pid, int(count))


def _run_baseline(
    runtime: LocalRuntime, input_data, plan: PartitionPlan, cfg: RunConfig
) -> DetectionRun:
    """The two-job Domain pipeline (exact, but pays a second pass)."""
    params = cfg.params
    job1 = MapReduceJob(
        name="domain-detect-local",
        mapper=_LocalOnlyMapper(plan),
        reducer=_LocalDetectReducer(plan, cfg),
        n_reducers=cfg.n_reducers,
    )
    result1 = runtime.run(job1, input_data)

    outliers: set[int] = set()
    candidates: Dict[int, int] = {}  # id -> local count
    job2_input: List[tuple] = []
    for record in result1.outputs:
        if record[0] == "outlier":
            outliers.add(record[1])
        else:
            if record[0] == "candidate":
                candidates[record[2]] = record[4]
            job2_input.append((None, record))

    job2 = MapReduceJob(
        name="domain-detect-confirm",
        mapper=_ConfirmMapper(plan, params.r),
        reducer=_ConfirmReducer(params),
        n_reducers=cfg.n_reducers,
    )
    result2 = runtime.run(job2, job2_input)

    totals = dict(candidates)
    for _, pid, partial in result2.outputs:
        totals[pid] = totals.get(pid, 0) + partial
    for pid, total in totals.items():
        if total < params.k:
            outliers.add(pid)

    return DetectionRun(
        outlier_ids=outliers,
        plan=plan,
        jobs=[result1, result2],
        detector_usage={"nested_loop_local": len(candidates)},
    )
