"""Incremental micro-batch detection over the DOD framework.

:class:`StreamingDetector` maintains the exact distance-threshold outlier
set of an append-only point stream.  Batch pipelines re-sample, re-plan,
and re-scan everything on every call; the streaming detector exploits the
locality the paper's own geometry provides (Sec. III):

**Dirty-partition rule.**  A new point ``q`` can only change the outlier
status of points within distance ``r`` of ``q``.  Every such point is a
core point of a partition whose ``r``-extension contains ``q`` — that is,
of a partition for which ``q`` is a core or support point (Def. 3.3).  So
after routing a micro-batch through the cached plan, only the partitions
that received a new core or support record (*dirty* partitions) are
re-detected; every untouched partition's verdicts provably still hold.
The maintained outlier set therefore stays byte-identical to a
from-scratch run on all points seen so far.

**Plan reuse.**  Partitioning plans come from a
:class:`~repro.streaming.plan_cache.DMTPlanCache`: the plan (and the
sampling job that priced it) is reused across batches until the live
mini-bucket histogram drifts past a threshold or a point lands outside
the plan's domain, at which point the plan is recomputed from all points
seen, a ``plan_invalidation`` span and counter are emitted, and every
partition is re-detected once under the new tiling.

Per-batch re-detection is an ordinary MapReduce job over the pre-routed
records of the dirty partitions, so it runs unchanged on
:class:`~repro.mapreduce.LocalRuntime` and
:class:`~repro.mapreduce.parallel.ParallelRuntime` — scheduler retries,
speculation, and the shm transport all apply per batch.  Dirty partitions
are re-packed onto reducers with the Sec. V-A allocator each batch (an
all-clean batch schedules no reducers at all).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..core.config import RunConfig, resolve_strategy
from ..core.dataset import Dataset
from ..core.execute import (
    annotate_tier,
    route,
    run_routed,
    run_tier_prelude,
)
from ..mapreduce import ClusterConfig, Counters, LocalRuntime, RecordBatch
from ..geometry import Rect, UniformGrid
from ..kernels import KERNEL_CHOICES, Kernel
from ..observability import Span, Tracer
from ..params import OutlierParams
from ..partitioning import PartitionPlan, plan_from_dict, plan_to_dict
from ..recovery.snapshot import (
    SnapshotError,
    decode_array,
    encode_array,
    read_artifact,
    write_artifact,
)
from ..tiers import SensitivitySample, certified_mask
from .plan_cache import DMTPlanCache, _check_drift_threshold

#: Versioned schema of :meth:`StreamingDetector.save` artifacts.
#: Version 2 stores the array columns as bytes
#: (:func:`~repro.recovery.snapshot.encode_array`); :meth:`load` reads
#: version 1's JSON lists too.
SNAPSHOT_KIND = "streaming-snapshot"
SNAPSHOT_VERSION = 2

__all__ = ["StreamBatchReport", "StreamingDetector"]


def _restore_identity(cfg: RunConfig) -> tuple:
    """The part of the run identity a restore checks against a
    snapshot: ``(r, k, strategy, detector, metric, tier)``, the tier
    compared as requested (``auto`` matches ``auto``)."""
    identity = cfg.identity(cfg.tier)
    return (
        identity["r"], identity["k"], identity["strategy"],
        identity["detector"], identity.get("metric"),
        identity.get("tier", "exact"),
    )


@dataclass
class StreamBatchReport:
    """What one :meth:`StreamingDetector.ingest` call did."""

    batch_index: int
    n_points: int
    n_seen: int
    dirty_partitions: int
    total_partitions: int
    cache_hit: bool
    invalidation_reason: Optional[str]
    drift: float
    outlier_ids: frozenset[int]
    new_outliers: frozenset[int]
    resolved_outliers: frozenset[int]
    wall_seconds: float = 0.0
    jobs: List = field(default_factory=list)
    trace: Optional[Span] = None

    @property
    def dirty_ratio(self) -> float:
        """Fraction of partitions re-detected (1.0 = full re-run)."""
        if self.total_partitions <= 0:
            return 0.0
        return self.dirty_partitions / self.total_partitions


class StreamingDetector:
    """Maintains the exact outlier set of an append-only stream.

    Parameters mirror :func:`repro.core.detect_outliers`; sizing defaults
    (reducers, partitions, buckets, sample rate) are re-derived from the
    stream's current cardinality at every plan (re)build.  ``strategy``
    must carry supporting areas (every strategy except ``Domain``): the
    dirty-partition rule relies on support routing for exactness.
    """

    def __init__(
        self,
        params: OutlierParams,
        strategy="DMT",
        detector: str = "nested_loop",
        runtime: Optional[LocalRuntime] = None,
        cluster: Optional[ClusterConfig] = None,
        n_partitions: Optional[int] = None,
        n_reducers: Optional[int] = None,
        drift_threshold: float = 0.25,
        seed: int = 1,
        tracer: Optional[Tracer] = None,
        kernel: Optional[str] = None,
        metric: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> None:
        strategy = resolve_strategy(strategy)
        if not strategy.uses_support_area:
            raise ValueError(
                f"streaming needs a supporting-area strategy; "
                f"{strategy.name!r} runs the two-job baseline "
                "instead and cannot localize a batch's effect"
            )
        _check_drift_threshold(drift_threshold)
        self.cluster = cluster or ClusterConfig()
        # Resolved like a batch run's; under a non-Euclidean metric the
        # strategy degrades the same way, and the dirty-partition rule
        # still holds because the metric-safe support rule depends only
        # on the pivots (a new point routes identically whether it
        # arrived at plan time or in a later batch).  ``n_buckets`` and
        # ``sample_rate`` stay open: they follow the stream's size.
        self.config = RunConfig.resolve(
            params, strategy=strategy, detector=detector,
            cluster=self.cluster, n_partitions=n_partitions,
            n_reducers=n_reducers, seed=seed, kernel=kernel,
            metric=metric, tier=tier,
        )
        self.params = params
        self.strategy = self.config.strategy
        self.metric = self.config.metric
        self.runtime = runtime or LocalRuntime(self.cluster)
        self.drift_threshold = drift_threshold
        # ``auto`` re-resolves at every plan (re)build, when fresh
        # mini-bucket stats exist; ``tier`` holds the current concrete
        # tier ("exact" until the first build decides otherwise).
        self.tier = (
            "exact" if self.config.tier == "auto" else self.config.tier
        )
        #: Certification witnesses; rebuilt with the plan.  Sound for a
        #: stream because neighbors only accumulate: a point certified
        #: against real stream points keeps its k witnesses forever.
        self._sample: Optional[SensitivitySample] = None
        #: The caller's tracer, if any: it collects one root per batch.
        #: Without one each batch's tree lives on its report only.
        self.tracer = tracer or self.runtime.tracer
        self.counters = Counters()

        self._ids: np.ndarray | None = None  # (n,) int64
        self._points: np.ndarray | None = None  # (n, d) float
        self._cache: DMTPlanCache | None = None
        #: pid -> tagged batches in arrival order, the reducer input
        #: shape.  Derived from plan + points + sample, so never persisted.
        self._partition_records: Dict[int, List[RecordBatch]] = {}
        self._outliers_by_pid: Dict[int, Set[int]] = {}
        #: The union of ``_outliers_by_pid``, kept current by
        #: :meth:`_detect` (each point is core in one partition, so the
        #: sets are disjoint); replaced, never mutated.
        self._outliers: frozenset = frozenset()
        self._batch_index = 0

    # ------------------------------------------------------------------
    @property
    def kernel(self):
        """The distance backend (not run identity: a restored stream
        adopts the requested one)."""
        return self.config.kernel

    @property
    def n_seen(self) -> int:
        return 0 if self._ids is None else int(self._ids.shape[0])

    @property
    def plan(self) -> Optional[PartitionPlan]:
        return None if self._cache is None else self._cache.plan

    @property
    def outlier_ids(self) -> frozenset:
        """The exact outlier set of all points ingested so far."""
        return self._outliers

    def dataset(self, name: str = "stream") -> Dataset:
        """All points seen so far as one :class:`Dataset`."""
        if self._ids is None:
            raise ValueError("no points ingested yet")
        return Dataset(self._points, self._ids, name)

    # ------------------------------------------------------------------
    def ingest(self, batch) -> StreamBatchReport:
        """Fold one micro-batch into the maintained outlier set.

        ``batch`` is a :class:`Dataset` or a sequence of ``(id, point)``
        records; ids must be new (the stream is append-only).  Returns a
        :class:`StreamBatchReport` (the detector keeps no copy); the
        cumulative answer is :attr:`outlier_ids`.  A call that raises —
        a task out of attempts, a broken pool — leaves the stream as it
        was before the call, so the same batch can be retried.
        """
        ids, points = self._coerce(batch)
        start = time.perf_counter()
        previous_outliers = self.outlier_ids
        tracer = self.tracer or Tracer()
        before = self._capture()

        prev_tracer = self.runtime.tracer
        self.runtime.tracer = tracer
        try:
            self._batch_index += 1
            with tracer.span(
                "stream_batch", "run",
                batch=self._batch_index, n_points=int(ids.shape[0]),
                r=self.params.r, k=self.params.k,
            ) as span:
                report = self._ingest_traced(ids, points, span)
        except BaseException:
            self._rollback(before)
            raise
        finally:
            self.runtime.tracer = prev_tracer

        report.wall_seconds = time.perf_counter() - start
        outliers = self.outlier_ids
        report.outlier_ids = outliers
        report.new_outliers = frozenset(outliers - previous_outliers)
        report.resolved_outliers = frozenset(previous_outliers - outliers)
        report.trace = span
        span.annotate(
            dirty_partitions=report.dirty_partitions,
            total_partitions=report.total_partitions,
            dirty_ratio=report.dirty_ratio,
            cache_hit=report.cache_hit,
            n_outliers=len(outliers),
        )
        annotate_tier(span, self.config.tier, self.tier)
        return report

    # ------------------------------------------------------------------
    def _capture(self) -> tuple:
        """The state one batch can change, for :meth:`_rollback`.  The
        arrays, the cache, the sample, the outlier set and each
        partition's record list and verdict set are replaced, never
        mutated in place, so references (and shallow copies of the two
        maps) are enough; the cache's live histogram and the counters
        are mutated, so copied."""
        cache = self._cache
        histogram = None if cache is None else (
            cache.live_counts.copy(), cache.batches_served
        )
        return (
            self._ids, self._points, cache, self._sample, self.tier,
            self._batch_index, dict(self._partition_records),
            dict(self._outliers_by_pid), self._outliers,
            Counters().merge(self.counters), histogram,
        )

    def _rollback(self, before: tuple) -> None:
        (self._ids, self._points, self._cache, self._sample, self.tier,
         self._batch_index, self._partition_records,
         self._outliers_by_pid, self._outliers, self.counters,
         histogram) = before
        if histogram is not None:
            self._cache.live_counts, self._cache.batches_served = histogram

    # ------------------------------------------------------------------
    def _ingest_traced(
        self, ids: np.ndarray, points: np.ndarray, span: Span
    ) -> StreamBatchReport:
        counters = self.counters
        counters.incr("streaming", "batches")
        counters.incr("streaming", "points", int(ids.shape[0]))

        if ids.shape[0] == 0:
            if self._cache is not None:
                counters.incr("streaming", "plan_cache_hits")
            return self._report(0, 0, set(), True, None, [])

        self._append(ids, points)

        reason: Optional[str]
        if self._cache is None:
            reason = "initial"
        else:
            reason = self._cache.check(points)

        jobs: List = []
        if reason is None:
            counters.incr("streaming", "plan_cache_hits")
            dirty = self._route(ids, points)
            cache_hit = True
        else:
            if reason != "initial":
                counters.incr("streaming", "plan_invalidations")
                counters.incr("streaming", f"plan_invalidation_{reason}")
                drift = self._cache.drift() if self._cache else 0.0
                span.child(
                    "plan_invalidation", "event",
                    reason=reason, drift=drift,
                ).finish()
            counters.incr("streaming", "plan_builds")
            self._rebuild()
            dirty = {p.pid for p in self._cache.plan.partitions}
            cache_hit = False

        counters.incr("streaming", "dirty_partitions", len(dirty))
        counters.incr(
            "streaming", "partitions_total", self._cache.plan.n_partitions
        )
        jobs.extend(self._detect(dirty))
        return self._report(
            int(ids.shape[0]),
            len(dirty),
            dirty,
            cache_hit,
            None if reason == "initial" else reason,
            jobs,
        )

    def _report(
        self, n_points, n_dirty, dirty, cache_hit, reason, jobs
    ) -> StreamBatchReport:
        plan = self.plan
        return StreamBatchReport(
            batch_index=self._batch_index,
            n_points=n_points,
            n_seen=self.n_seen,
            dirty_partitions=n_dirty,
            total_partitions=0 if plan is None else plan.n_partitions,
            cache_hit=cache_hit,
            invalidation_reason=reason,
            drift=0.0 if self._cache is None else self._cache.drift(),
            outlier_ids=frozenset(),
            new_outliers=frozenset(),
            resolved_outliers=frozenset(),
            jobs=jobs,
        )

    # ------------------------------------------------------------------
    def _coerce(self, batch) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(batch, Dataset):
            records = list(batch)
            if not records:
                ndim = 2 if self._points is None else self._points.shape[1]
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty((0, ndim), dtype=float),
                )
            # A Dataset checks shape, unique ids and finite coordinates.
            batch = Dataset(
                np.asarray([r[1] for r in records], dtype=float),
                np.asarray([r[0] for r in records], dtype=np.int64),
            )
        ids, points = batch.ids, batch.points
        if self._ids is not None:
            if points.shape[1] != self._points.shape[1]:
                raise ValueError(
                    f"batch has {points.shape[1]} dims, stream has "
                    f"{self._points.shape[1]}"
                )
            if np.isin(ids, self._ids).any():
                raise ValueError(
                    "batch re-uses ids already in the stream "
                    "(the stream is append-only)"
                )
        return ids, points

    def _append(self, ids: np.ndarray, points: np.ndarray) -> None:
        if self._ids is None:
            self._ids = np.array(ids, dtype=np.int64)
            self._points = np.array(points, dtype=float)
        else:
            self._ids = np.concatenate([self._ids, ids])
            self._points = np.vstack([self._points, points])

    # ------------------------------------------------------------------
    def _routed(
        self, ids: np.ndarray, points: np.ndarray
    ) -> tuple[List[tuple[int, RecordBatch]], Dict[str, int]]:
        """Route points through the current plan, certifying them
        against the witness sample when there is one: ``(one batch per
        partition touched, tier counter increments)``.  A pure function
        of plan, points and sample — the live path applies both halves,
        :meth:`load` re-derives the records and leaves the counters."""
        certified = ids[:0]
        tier_work: Dict[str, int] = {}
        if self._sample is not None and points.shape[0]:
            mask, evals = certified_mask(
                points, ids, self._sample, self.config
            )
            certified = ids[mask]
            tier_work = {
                "certified": len(certified),
                "residue": int(points.shape[0] - len(certified)),
                "distance_evals": int(evals),
            }
        routed = route(
            self._cache.plan, RecordBatch(ids, points), self.params.r,
            certified,
        )
        return routed, tier_work

    def _route(self, ids: np.ndarray, points: np.ndarray) -> Set[int]:
        """Append routed records for a batch; return the dirty pids."""
        routed, tier_work = self._routed(ids, points)
        for name, amount in tier_work.items():
            self.counters.incr("tier", name, amount)
        for pid, batch in routed:
            # A new list, so a failed batch rolls back by reference.
            self._partition_records[pid] = (
                self._partition_records.get(pid, []) + [batch]
            )
        return {pid for pid, _ in routed}

    def _rebuild(self) -> None:
        """Re-plan from every point seen; re-route all records."""
        dataset = self.dataset()
        cfg = self.config.sized(dataset.n)
        plan = self.strategy.timed_plan(
            self.runtime, dataset.batch(),
            cfg.plan_request(dataset.bounds),
        )
        self._cache = DMTPlanCache.build(
            plan, self._points,
            n_buckets=cfg.n_buckets,
            drift_threshold=self.drift_threshold,
        )
        self._partition_records = {}
        self._outliers_by_pid = {}
        self._outliers = frozenset()
        # The stream certifies each batch as it routes it, so it needs
        # the witness sample, not a certification job.
        tier_pass = run_tier_prelude(
            self.runtime, dataset, cfg, certify=False
        )
        self.tier, self._sample = tier_pass.tier, tier_pass.sample
        self._route(self._ids, self._points)

    # ------------------------------------------------------------------
    def _detect(self, dirty: Set[int]) -> List:
        """Re-detect exactly the dirty partitions; merge the verdicts."""
        result = run_routed(
            self.runtime, "stream", self.config, self._cache.plan,
            self._partition_records, dirty,
        )
        stale = [self._outliers_by_pid.get(pid, ()) for pid in dirty]
        fresh: Dict[int, Set[int]] = {pid: set() for pid in dirty}
        if result is not None:
            self.counters.merge(result.counters)
            for pid, outlier_id in result.outputs:
                fresh[pid].add(outlier_id)
        self._outliers_by_pid.update(fresh)
        self._outliers = self._outliers.difference(*stale).union(
            *fresh.values()
        )
        # An all-pruned batch: nothing to re-check, nothing ran.
        return [] if result is None else [result]

    # ------------------------------------------------------------------
    def ingest_points(
        self, points: np.ndarray, ids: Optional[Sequence[int]] = None
    ) -> StreamBatchReport:
        """Convenience: ingest a bare point array, auto-assigning ids
        that continue the stream's current ``0..n-1`` numbering."""
        points = np.asarray(points, dtype=float)
        if ids is None:
            start = 0 if self._ids is None else int(self._ids.max()) + 1
            ids = np.arange(
                start, start + points.shape[0], dtype=np.int64
            )
        return self.ingest(
            Dataset(points, np.asarray(ids, dtype=np.int64))
        )

    # ------------------------------------------------------------------
    # Durability: streaming snapshots
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the detector's full state as a checksummed artifact.

        Everything the dirty-partition rule depends on and the stream
        cannot recompute is included — the points, the cached plan, the
        live mini-bucket histogram, the witness sample and the
        per-partition verdicts — so :meth:`load` resumes the stream
        exactly where it stopped, with the cache's drift bookkeeping
        intact.  The routed records are a function of plan, points and
        sample (Def. 3.3) and are re-derived at load, not stored.
        Writes are atomic: a crash mid-save leaves the previous snapshot.
        """
        cache = None
        if self._cache is not None:
            cache = {
                "plan": plan_to_dict(self._cache.plan),
                "grid_shape": [int(s) for s in self._cache.grid.shape],
                "baseline_counts":
                    encode_array(self._cache.baseline_counts),
                "live_counts": encode_array(self._cache.live_counts),
                "batches_served": int(self._cache.batches_served),
                "drift_threshold": float(self._cache.drift_threshold),
            }
        cfg = self.config
        payload = {
            "params": {
                "r": float(self.params.r), "k": int(self.params.k)
            },
            "strategy": self.strategy.name,
            "detector": cfg.detector,
            # A shared backend instance is stored by its name.
            "kernel": (
                cfg.kernel.name if isinstance(cfg.kernel, Kernel)
                else cfg.kernel
            ),
            "metric": self.metric,
            "seed": cfg.seed,
            "drift_threshold": float(self.drift_threshold),
            "n_partitions": cfg.n_partitions,
            "n_reducers": cfg.n_reducers,
            "tier": cfg.tier,
            "tier_resolved": self.tier,
            "sample": (
                None if self._sample is None else {
                    "ids": encode_array(self._sample.ids),
                    "points": encode_array(self._sample.points),
                    # The mini-bucket grid the sample was drawn on: it
                    # only prunes certification candidates, so snapshots
                    # predating it load fine (full-scan fallback).
                    "grid": (
                        None if self._sample.grid is None else {
                            "low": [
                                float(x)
                                for x in self._sample.grid.domain.low
                            ],
                            "high": [
                                float(x)
                                for x in self._sample.grid.domain.high
                            ],
                            "shape": [
                                int(s) for s in self._sample.grid.shape
                            ],
                        }
                    ),
                }
            ),
            "batch_index": int(self._batch_index),
            "ids": None if self._ids is None else encode_array(self._ids),
            "points": (
                None if self._points is None
                else encode_array(self._points)
            ),
            "cache": cache,
            "outliers_by_pid": {
                str(pid): sorted(int(x) for x in outliers)
                for pid, outliers in self._outliers_by_pid.items()
            },
            "counters": self.counters.as_dict(),
        }
        write_artifact(path, SNAPSHOT_KIND, SNAPSHOT_VERSION, payload)
        self.counters.incr("recovery", "snapshot_saves")

    @classmethod
    def load(
        cls,
        path: str,
        runtime: Optional[LocalRuntime] = None,
        cluster: Optional[ClusterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`save` artifact.

        Raises :class:`~repro.recovery.snapshot.SnapshotError` when the
        file is missing, corrupt, or written under a schema version it
        does not read (it reads 1 and 2) — callers that prefer
        degradation over failure use :meth:`restore`.  Runtime objects
        (process pools, tracers) are deliberately not persisted; pass
        fresh ones.
        """
        payload = read_artifact(path, SNAPSHOT_KIND, (1, SNAPSHOT_VERSION))
        # The stored kernel is a hint, not identity: a backend this
        # build does not register loads on the default.
        kernel = payload.get("kernel")
        detector = cls(
            OutlierParams(
                r=payload["params"]["r"], k=payload["params"]["k"]
            ),
            strategy=payload["strategy"],
            detector=payload["detector"],
            kernel=kernel if kernel in KERNEL_CHOICES else None,
            metric=payload.get("metric"),
            runtime=runtime,
            cluster=cluster,
            n_partitions=payload["n_partitions"],
            n_reducers=payload["n_reducers"],
            drift_threshold=payload["drift_threshold"],
            seed=payload["seed"],
            tracer=tracer,
            tier=payload.get("tier", "exact"),
        )
        detector.tier = payload.get(
            "tier_resolved", payload.get("tier", "exact")
        )
        sample = payload.get("sample")
        if sample is not None:
            sample_grid = sample.get("grid")
            detector._sample = SensitivitySample(
                ids=decode_array(sample["ids"], np.int64),
                points=decode_array(sample["points"], float),
                grid=(
                    None if sample_grid is None else UniformGrid(
                        Rect(
                            tuple(sample_grid["low"]),
                            tuple(sample_grid["high"]),
                        ),
                        tuple(sample_grid["shape"]),
                    )
                ),
            )
        detector._batch_index = int(payload["batch_index"])
        if payload["ids"] is not None:
            detector._ids = decode_array(payload["ids"], np.int64)
            detector._points = decode_array(payload["points"], float)
        cache = payload["cache"]
        if cache is not None:
            plan = plan_from_dict(cache["plan"])
            rebuilt = DMTPlanCache(
                plan,
                UniformGrid(plan.domain, tuple(cache["grid_shape"])),
                decode_array(cache["baseline_counts"], float),
                drift_threshold=cache["drift_threshold"],
            )
            rebuilt.live_counts = decode_array(cache["live_counts"], float)
            rebuilt.batches_served = int(cache["batches_served"])
            detector._cache = rebuilt
            routed, _ = detector._routed(detector._ids, detector._points)
            detector._partition_records = {
                pid: [batch] for pid, batch in routed
            }
        detector._outliers_by_pid = {
            int(pid): set(outliers)
            for pid, outliers in payload["outliers_by_pid"].items()
        }
        detector._outliers = frozenset().union(
            *detector._outliers_by_pid.values()
        )
        for group, names in payload.get("counters", {}).items():
            for name, value in names.items():
                detector.counters.incr(group, name, value)
        detector.counters.incr("recovery", "snapshot_loads")
        return detector

    @classmethod
    def restore(
        cls,
        path: str,
        params: OutlierParams,
        strategy="DMT",
        detector: str = "nested_loop",
        runtime: Optional[LocalRuntime] = None,
        cluster: Optional[ClusterConfig] = None,
        n_partitions: Optional[int] = None,
        n_reducers: Optional[int] = None,
        drift_threshold: float = 0.25,
        seed: int = 1,
        tracer: Optional[Tracer] = None,
        kernel: Optional[str] = None,
        metric: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> "StreamingDetector":
        """Load a snapshot if one is trustworthy, else start fresh.

        ``kernel`` is *not* part of the snapshot's identity — backends
        are observationally identical by the ABI contract — so a
        restored stream adopts the requested kernel (falling back to the
        snapshot's recorded one when ``None``, and to the default when
        that one is not registered).  ``metric`` *is*
        identity: it defines the answer, so a snapshot taken under a
        different metric raises ``ValueError`` like any other parameter
        mismatch.  ``tier`` joins the identity the same way (compared as
        requested — ``auto`` matches ``auto``): the verdicts are tier-
        invariant, but the routed-record tags and the cached witness
        sample are not, so silently switching tiers mid-stream would mix
        bookkeeping from two disciplines.

        The degradation policy of the recovery layer, applied to
        streams: a missing snapshot silently starts a fresh detector
        (first run); a corrupt or version-mismatched one is *discarded*
        with a ``RuntimeWarning``, a warning span (on the caller's
        tracer, when one was passed), and a
        ``recovery/snapshot_fallbacks`` counter — the stream re-runs
        from scratch rather than trusting damaged state.  A snapshot
        whose detection parameters contradict the requested ones raises
        ``ValueError``: that is a configuration error, not corruption.
        """
        # One resolution serves the fresh-start fallbacks and the
        # identity comparison alike.
        fresh = cls(
            params, strategy=strategy, detector=detector,
            runtime=runtime, cluster=cluster,
            n_partitions=n_partitions, n_reducers=n_reducers,
            drift_threshold=drift_threshold, seed=seed,
            tracer=tracer, kernel=kernel, metric=metric, tier=tier,
        )
        try:
            loaded = cls.load(
                path, runtime=runtime, cluster=cluster, tracer=tracer
            )
        except SnapshotError as exc:
            if exc.reason == "missing":
                return fresh
            warnings.warn(
                f"streaming snapshot unusable ({exc}); starting the "
                "stream from scratch",
                RuntimeWarning,
                stacklevel=2,
            )
            fresh.counters.incr("recovery", "snapshot_fallbacks")
            if fresh.tracer is not None:
                span = Span.begin(
                    "snapshot_fallback", "event",
                    path=path, reason=exc.reason,
                )
                span.finish(warning=str(exc))
                fresh.tracer.record(span)
            return fresh
        requested = _restore_identity(fresh.config)
        found = _restore_identity(loaded.config)
        if requested != found:
            raise ValueError(
                f"snapshot {path} was taken with "
                f"(r, k, strategy, detector, metric, tier)={found}, "
                f"requested {requested}; pass matching parameters or a "
                "fresh snapshot path"
            )
        if kernel is not None:
            loaded.config = replace(loaded.config, kernel=kernel)
        return loaded
