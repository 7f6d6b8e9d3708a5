"""The routed-execution core every entry point shares (Fig. 3).

:func:`~repro.core.detect_outliers`,
:func:`~repro.recovery.run_checkpointed` and
:class:`~repro.streaming.StreamingDetector` differ in *when* they route
records and *which* partitions they detect, not in how.  This module
holds the three steps they have in common, each taking the resolved
:class:`~repro.core.config.RunConfig`:

* :func:`route` — the Fig. 3 map function: one core record per point
  plus a support record for every partition whose ``r``-expansion
  contains it, as one :class:`~repro.mapreduce.RecordBatch` per
  partition.  Batch runs call it inside map tasks, checkpointed and
  streaming runs on the driver;
* :func:`run_routed` — the detection job over records that are already
  routed: pack the partitions onto reducers, detect, report
  ``(partition, outlier_id)``;
* :func:`run_tier_prelude` — the fast tier's certification pass
  (mini-bucket stats → tier choice → sensitivity sample → certify).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from ..allocation import allocate
from ..detectors import make_partition_detector, run_partitions
from ..mapreduce import (
    DictPartitioner,
    JobResult,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..partitioning import PartitionPlan
from ..sampling import collect_minibucket_stats
from ..tiers import (
    SensitivitySample,
    TierCertification,
    build_sensitivity_sample,
    pick_tier,
    run_certification,
)
from .config import RunConfig
from .dataset import Dataset

__all__ = ["TierPass", "annotate_tier", "route", "run_routed",
           "run_tier_prelude"]

#: Cost units charged per mapper input record (plan lookup) and per emitted
#: record (serialization into the shuffle).  One constant for every
#: strategy, matching Fig. 10's observation that the map stage costs are
#: nearly identical across approaches.
_MAP_RECORD_COST = 1.0
_MAP_EMIT_COST = 1.0


def _id_array(ids: Collection[int]) -> np.ndarray:
    """An id collection (set, list or array) as an int64 array."""
    if isinstance(ids, np.ndarray):
        return ids
    return np.fromiter(ids, dtype=np.int64, count=len(ids))


def route(
    plan: PartitionPlan,
    batch: RecordBatch,
    r: float | np.ndarray,
    certified: Collection[int] = (),
    dropped: Collection[int] = (),
) -> List[Tuple[int, RecordBatch]]:
    """Route a block through ``plan``: ``[(pid, tagged batch)]``, one
    pair per partition the block touches, in ascending ``pid``.

    Every point yields one record for its core partition, and one
    support record (tag 1, Def. 3.3) for each partition whose
    ``r``-expansion contains it (``r`` may be one radius per partition,
    as ``plan.assign_batch`` takes it); a partition's batch holds its core
    records in block order, then its support records in block order.
    ``certified`` ids are the fast tier's pre-cleared inliers: they
    enter their *own* partition demoted from core (tag 0) to support,
    so every pool stays complete (Lemma 3.1) but no detector re-decides
    them.  ``dropped`` ids (certified points farther than ``r`` from
    every residue point) can witness no remaining query and are not
    routed at all.
    """
    if len(dropped):
        batch = batch[~np.isin(batch.ids, _id_array(dropped))]
    if not len(batch):
        return []
    core, support_pairs = plan.assign_batch(batch.points, r)
    rows = np.concatenate([np.arange(len(batch)), support_pairs[:, 0]])
    tags = np.ones(rows.shape[0], dtype=np.int8)
    tags[:len(batch)] = np.isin(batch.ids, _id_array(certified))
    return RecordBatch(
        batch.ids[rows], batch.points[rows], tags,
        np.concatenate([core, support_pairs[:, 1]]),
    ).group_by_key()


def _charge_kernel_counters(ctx: TaskContext, result) -> None:
    """Roll a detection result's kernel work into the ``kernel`` counter
    group — the distance-backend twin of the runtime's ``transport``
    group: which backend ran, what it charged (scalar-faithful evals),
    and what it actually computed (tile overshoot included, candidates
    the numpy sweep skips not)."""
    extras = result.extras
    if "kernel" not in extras:
        return  # index-structure detectors (kdtree, pivot) bypass the ABI
    ctx.counters.incr("kernel", f"backend_{extras['kernel']}")
    ctx.counters.incr("kernel", "tasks")
    ctx.counters.incr(
        "kernel", "evals_charged", int(result.distance_evals)
    )
    ctx.counters.incr(
        "kernel", "evals_computed",
        int(extras.get("kernel_evals_computed", 0)),
    )
    # Deliberately no wall time here: counters must stay deterministic
    # (the transport-equivalence suite compares them bit-for-bit).
    # benchmarks/test_kernel_speedup.py measures backend wall by handing
    # a serial run one Kernel instance and reading its wall_seconds.


def _charge_graph_counters(ctx: TaskContext, result) -> None:
    """Roll a proximity-graph result into the ``graph`` counter group:
    how many core points the neighbor graph certified for free, how many
    fell through to the exact residue scan, and what the graph build
    itself charged.  All deterministic (certification is a pure function
    of the seeded graph)."""
    extras = result.extras
    if "graph_certified" not in extras:
        return  # not a proximity-graph result
    ctx.counters.incr("graph", "tasks")
    ctx.counters.incr("graph", "certified", int(extras["graph_certified"]))
    ctx.counters.incr("graph", "residue", int(extras["graph_residue"]))
    ctx.counters.incr(
        "graph", "graph_distance_evals",
        int(extras["graph_distance_evals"]),
    )


def _detect_partition(
    ctx: TaskContext,
    cfg: RunConfig,
    algorithm: str,
    key: int,
    core_points: np.ndarray,
    core_ids: np.ndarray,
    support_points: np.ndarray,
):
    """Run ``algorithm`` on one partition and charge the task for it."""
    # Seeded per partition: partitions must not share one scan
    # permutation (correlated early-termination across reducers).
    detector = make_partition_detector(
        algorithm, key, kernel=cfg.kernel, metric=cfg.metric
    )
    result = detector.run(core_points, core_ids, support_points, cfg.params)
    _charge_detection(ctx, key, result)
    return result


def _charge_detection(ctx: TaskContext, key: int, result) -> None:
    """Charge the task for one partition's detection: cost units, the
    detector span, ``dod/distance_evals`` and the ``kernel`` / ``graph``
    counter groups."""
    ctx.add_cost(result.cost_units)
    if result.span is not None and ctx.span is not None:
        result.span.annotate(partition=key)
        ctx.span.add_child(result.span)
    ctx.counters.incr("dod", "distance_evals", int(result.distance_evals))
    _charge_kernel_counters(ctx, result)
    _charge_graph_counters(ctx, result)


class _DODReducer(Reducer):
    """Fig. 3 reduce function: split by tag, detect, report each core
    outlier as ``(partition, outlier_id)``.

    The partition tag lets the driver journal, or replace, exactly one
    partition's verdicts when merging job output.  A reduce task hands
    all of its partitions to the detectors at once
    (:meth:`reduce_block`), so detectors of one tactic can scan them in
    one kernel batch; :meth:`reduce` is its block of one key.
    """

    def __init__(
        self, cfg: RunConfig, algorithm_plan: Dict[int, Optional[str]]
    ) -> None:
        self.cfg = cfg
        self.algorithm_plan = algorithm_plan

    def reduce(self, key, values, ctx: TaskContext):
        return self.reduce_block({key: values}, ctx)

    def reduce_block(self, groups, ctx: TaskContext):
        keys, algorithms, detectors, inputs = [], [], [], []
        for key, *partition in _split_task(groups):
            algorithm = self.algorithm_plan.get(key) or self.cfg.detector
            keys.append(key)
            algorithms.append(algorithm)
            detectors.append(make_partition_detector(
                algorithm, key,
                kernel=self.cfg.kernel, metric=self.cfg.metric,
            ))
            inputs.append(partition)
        results = run_partitions(detectors, inputs, self.cfg.params)
        # Charged in pid order, as one block per key charges them: the
        # same counters in the same order, and the task's cost units the
        # same float sum.
        for key, algorithm, result in zip(keys, algorithms, results):
            ctx.counters.incr("dod", f"algorithm_{algorithm}")
            ctx.counters.incr("dod", "partitions_processed")
            _charge_detection(ctx, key, result)
            for outlier_id in result.outlier_ids:
                yield key, outlier_id


def _split_task(groups):
    """``(key, core_points, core_ids, support_points)`` per key of one
    reduce task's groups that holds a core record, in key order.

    A key's records are its batches concatenated in order, split by tag
    with each side keeping that order.  Routing lays a partition's batch
    out as its core rows, then its support rows (:func:`route`), so the
    usual key is one batch already in that order and its sides are
    slices of it; only a key whose rows are not is sorted (stably, by
    tag)."""
    for key in sorted(groups):
        rows = RecordBatch.concat(groups[key])
        ids, points, tags = rows.ids, rows.points, rows.tags
        n_core = int(np.count_nonzero(tags == 0))
        if not n_core:
            continue
        if np.count_nonzero(tags[:n_core]):  # a support row among them
            order = np.argsort(tags, kind="stable")
            ids, points = ids.take(order), points.take(order, axis=0)
        yield key, points[:n_core], ids[:n_core], points[n_core:]


class _RoutedMapper(Mapper):
    """Identity mapper for records already routed to their partition.

    Checkpointed and streaming runs keep each partition's tagged
    batches, so their job's map side only re-emits a block's rows into
    the shuffle under the keys they carry — the plan lookup was paid
    once, on the driver.
    """

    def map_block(self, records, ctx: TaskContext):
        ctx.add_cost((_MAP_RECORD_COST + _MAP_EMIT_COST) * len(records))
        return records.group_by_key()


def run_routed(
    runtime: LocalRuntime,
    name: str,
    cfg: RunConfig,
    plan: PartitionPlan,
    partition_records: Dict[int, List[RecordBatch]],
    pids: Iterable[int],
    on_commit: Optional[Callable] = None,
) -> Optional[JobResult]:
    """Detect partitions ``pids`` over their already-routed records.

    The partitions are re-packed onto reducers by their *actual* record
    counts — the per-job equivalent of Sec. V-A step 3 — and the job's
    outputs are ``(pid, outlier_id)`` pairs.  Returns ``None`` without
    scheduling anything when the partitions hold no records.
    ``on_commit(task_id, owned_pids, outliers_by_pid)`` fires in the
    driver as each reduce task's outputs commit, *before* any listener
    already on the runtime (the service worker hangs its lease heartbeat
    there), so what that one observes is always already handled.
    """
    target = sorted(pids)
    batches = [partition_records.get(pid, ()) for pid in target]
    sizes = [sum(map(len, held)) for held in batches]
    if not any(sizes):
        return None
    # One keyed batch, partitions in pid order: the runtime cuts map
    # tasks at record boundaries, whatever partition they fall in.
    rows = RecordBatch.concat([b for held in batches for b in held])
    records = RecordBatch(
        rows.ids, rows.points, rows.tags, np.repeat(target, sizes)
    )
    alloc = allocate(sizes, min(cfg.n_reducers, len(target)))
    table = {pid: alloc.assignment[i] for i, pid in enumerate(target)}
    job = MapReduceJob(
        name=f"{name}-detect-{plan.strategy}",
        mapper=_RoutedMapper(),
        reducer=_DODReducer(cfg, plan.algorithm_plan),
        n_reducers=len(alloc.bin_loads),
        partitioner=DictPartitioner(table),
    )
    if on_commit is None:
        return runtime.run(job, records)
    owned: Dict[int, List[int]] = defaultdict(list)
    for pid, reducer in table.items():
        owned[reducer].append(pid)
    prev_listener = runtime.commit_listener

    def listener(phase: str, task_id: int, outputs) -> None:
        if phase != "reduce":
            return
        outs: Dict[int, List[int]] = defaultdict(list)
        for pid, outlier_id in outputs:
            outs[pid].append(outlier_id)
        on_commit(task_id, owned.get(task_id, []), outs)
        if prev_listener is not None:
            prev_listener(phase, task_id, outputs)

    runtime.commit_listener = listener
    try:
        return runtime.run(job, records)
    finally:
        runtime.commit_listener = prev_listener


@dataclass
class TierPass:
    """What the tier prelude decided and pre-cleared."""

    tier: str = "exact"
    sample: Optional[SensitivitySample] = None
    certified: frozenset = frozenset()
    dropped: frozenset = frozenset()
    certification: Optional[TierCertification] = None
    #: The certification job; part of the detection phase, so its
    #: counters, cost units and trace roll up with the run's jobs.
    job: Optional[JobResult] = None


def run_tier_prelude(
    runtime: LocalRuntime,
    dataset: Dataset,
    cfg: RunConfig,
    certify: bool = True,
) -> TierPass:
    """Resolve ``cfg.tier`` against the data and run the fast pass.

    ``"auto"`` consults the cost model with the measured mini-bucket
    density.  Everything here is a deterministic function of the dataset
    and the config, so a resumed run recomputes the identical demotions.
    A stream certifies each batch as it routes it (``certify=False``):
    it needs the witness sample, not a certification job.
    """
    if cfg.tier == "exact":
        return TierPass()
    stats = collect_minibucket_stats(
        runtime, dataset.batch(), dataset.bounds,
        n_buckets=cfg.n_buckets, rate=cfg.sample_rate, seed=cfg.seed,
        n_reducers=cfg.n_reducers,
    )
    tier = pick_tier(
        cfg.tier, dataset.n, dataset.bounds.area, cfg.params,
        dataset.ndim, stats=stats,
    )
    if tier != "fast":
        return TierPass(tier)
    sample = build_sensitivity_sample(
        dataset.points, dataset.ids, stats, cfg.params, seed=cfg.seed
    )
    if not certify:
        return TierPass(tier, sample)
    certified, dropped, certification, job = run_certification(
        runtime, dataset.batch(), sample, cfg
    )
    return TierPass(
        tier, sample, frozenset(certified), frozenset(dropped),
        certification, job,
    )


def annotate_tier(
    span, requested: str, tier: str,
    certification: Optional[TierCertification] = None,
) -> None:
    """Record the tier a run resolved to on its ``run`` span (only when
    a non-default tier was requested or chosen)."""
    if tier != "exact" or requested != "exact":
        span.annotate(tier=tier)
    if certification is not None:
        span.annotate(
            tier_certified=certification.certified,
            tier_residue_fraction=certification.residue_fraction,
            tier_bound=certification.bound,
            tier_sample_size=certification.sample_size,
            tier_dropped=certification.dropped,
        )
