"""Tests for incremental micro-batch detection (repro.streaming).

The contract under test is exactness: after any sequence of ingested
micro-batches, the maintained outlier set equals a from-scratch
detection — and the brute-force oracle — over every point seen so far,
on the serial and parallel runtimes alike.  The efficiency claims
(dirty-partition ratio < 1, plan-cache hits) are asserted on localized
append workloads where they must hold.
"""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.data import region_dataset
from repro.geometry import Rect, UniformGrid
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    ParallelRuntime,
    SchedulerConfig,
)
from repro.partitioning import PlanRequest
from repro.core.pipeline import resolve_strategy
from repro.recovery import canonical_bytes, read_artifact
from repro.streaming import DMTPlanCache, StreamingDetector

PARAMS = OutlierParams(r=2.0, k=4)
CLUSTER = ClusterConfig(nodes=4)


def make_detector(runtime=None, **kwargs):
    kwargs.setdefault("n_partitions", 8)
    kwargs.setdefault("n_reducers", 4)
    kwargs.setdefault("seed", 3)
    return StreamingDetector(
        PARAMS, runtime=runtime, cluster=CLUSTER, **kwargs
    )


def full_run(points, runtime=None):
    return detect_outliers(
        Dataset.from_points(points), PARAMS,
        n_partitions=8, n_reducers=4, cluster=CLUSTER,
        runtime=runtime, seed=3,
    ).outlier_ids


def cluster_stream(seed=0, n=600):
    """A clustered base set: most points packed, a thin outlier dust."""
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal((10.0, 10.0), 1.2, size=(n - n // 10, 2)),
        rng.uniform(0.0, 40.0, size=(n // 10, 2)),
    ])


def make_plan(points, n_partitions=8):
    dataset = Dataset.from_points(points)
    strategy = resolve_strategy("DMT")
    request = PlanRequest(
        domain=dataset.bounds, params=PARAMS,
        n_partitions=n_partitions, n_reducers=4,
        n_buckets=64, sample_rate=0.5, seed=3,
    )
    return strategy.timed_plan(
        LocalRuntime(CLUSTER), dataset.batch(), request
    )


class TestPlanCache:
    def test_pure_growth_is_zero_drift(self):
        points = cluster_stream(1)
        cache = DMTPlanCache.build(make_plan(points), points, n_buckets=64)
        # Replaying the same distribution scales every bucket equally.
        cache.update(points)
        cache.update(points)
        assert cache.drift() == pytest.approx(0.0, abs=1e-12)

    def test_shape_change_registers_drift(self):
        points = cluster_stream(2)
        cache = DMTPlanCache.build(make_plan(points), points, n_buckets=64)
        corner = np.full((3 * len(points), 2), 1.0)
        corner += np.random.default_rng(5).uniform(0, 0.5, corner.shape)
        cache.update(corner)
        assert cache.drift() > 0.5

    def test_check_verdicts(self):
        points = cluster_stream(3)
        cache = DMTPlanCache.build(
            make_plan(points), points, n_buckets=64, drift_threshold=0.25
        )
        inside = points[:20] * 0.0 + points.mean(axis=0)
        assert cache.check(inside) is None
        assert cache.batches_served == 1
        outside = points.max(axis=0) + 100.0
        assert cache.check(outside[None, :]) == "domain_expansion"
        heavy = np.tile(points.min(axis=0) + 0.25, (20 * len(points), 1))
        assert cache.check(heavy) == "density_drift"

    def test_invalid_threshold_rejected(self):
        points = cluster_stream(4)
        plan = make_plan(points)
        with pytest.raises(ValueError):
            DMTPlanCache.build(plan, points, drift_threshold=0.0)
        with pytest.raises(ValueError):
            DMTPlanCache.build(plan, points, drift_threshold=1.5)


class TestExactness:
    def test_matches_full_run_and_oracle_every_batch(self):
        points = cluster_stream(7)
        detector = make_detector()
        for lo in range(0, len(points), 150):
            batch = points[lo:lo + 150]
            detector.ingest_points(batch)
            seen = points[:lo + len(batch)]
            oracle = brute_force_outliers(
                Dataset.from_points(seen), PARAMS
            )
            assert detector.outlier_ids == full_run(seen) == oracle

    def test_degenerate_all_duplicates_stream(self):
        """Zero-area stream: the k-th copy flips everyone to inlier."""
        point = np.array([[6.0, 6.0]])
        detector = make_detector()
        for i in range(PARAMS.k + 2):
            detector.ingest_points(point)
            n = i + 1
            expected = set(range(n)) if n - 1 < PARAMS.k else set()
            assert detector.outlier_ids == expected

    def test_outlier_resolved_by_new_neighbors(self):
        """A lone point stops being an outlier once neighbors stream in."""
        detector = make_detector()
        base = cluster_stream(8, n=300)
        detector.ingest_points(base)
        lone = np.array([[39.0, 39.0]])
        report = detector.ingest_points(lone)
        lone_id = max(detector.dataset().ids)
        assert lone_id in report.outlier_ids
        neighbors = lone + np.random.default_rng(9).uniform(
            -0.5, 0.5, size=(PARAMS.k + 2, 2)
        )
        report = detector.ingest_points(neighbors)
        assert lone_id in report.resolved_outliers
        assert detector.outlier_ids == full_run(detector.dataset().points)

    def test_domain_strategy_rejected(self):
        with pytest.raises(ValueError, match="supporting-area"):
            make_detector(strategy="Domain")

    @pytest.mark.parametrize("threshold", [0.0, 1.5])
    def test_invalid_drift_threshold_rejected_at_construction(
        self, threshold
    ):
        """The plan cache's rule, applied before the first ingest."""
        with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
            make_detector(drift_threshold=threshold)


class TestIncrementality:
    def test_localized_batch_dirties_few_partitions(self):
        points = cluster_stream(11, n=800)
        detector = make_detector()
        detector.ingest_points(points)
        # A tight batch well inside the domain: plan reuse, few dirty.
        batch = np.random.default_rng(12).normal(
            (10.0, 10.0), 0.4, size=(40, 2)
        )
        report = detector.ingest_points(batch)
        assert report.cache_hit
        assert report.invalidation_reason is None
        assert 0 < report.dirty_ratio < 1.0
        assert detector.outlier_ids == full_run(detector.dataset().points)

    def test_domain_expansion_invalidates(self):
        detector = make_detector()
        points = cluster_stream(13, n=400)
        detector.ingest_points(points)
        outside = points.max(axis=0) + np.array([5.0, 5.0])
        report = detector.ingest_points(outside[None, :])
        assert not report.cache_hit
        assert report.invalidation_reason == "domain_expansion"
        assert report.dirty_ratio == 1.0
        assert detector.counters.get(
            "streaming", "plan_invalidation_domain_expansion"
        ) == 1
        assert detector.outlier_ids == full_run(detector.dataset().points)

    def test_density_drift_invalidates(self):
        detector = make_detector(drift_threshold=0.2)
        points = cluster_stream(14, n=400)
        detector.ingest_points(points)
        # Pile far more mass than the base set into one in-domain spot.
        lo = points.min(axis=0)
        pile = np.tile(lo + 0.5, (4 * len(points), 1))
        pile += np.random.default_rng(15).uniform(0, 0.2, pile.shape)
        report = detector.ingest_points(pile)
        assert report.invalidation_reason == "density_drift"
        assert detector.counters.get(
            "streaming", "plan_invalidation_density_drift"
        ) == 1
        assert detector.outlier_ids == full_run(detector.dataset().points)

    def test_empty_batch_is_a_noop(self):
        detector = make_detector()
        detector.ingest_points(cluster_stream(16, n=200))
        before = detector.outlier_ids
        report = detector.ingest_points(np.empty((0, 2)))
        assert report.jobs == []
        assert report.cache_hit
        assert report.dirty_partitions == 0
        assert detector.outlier_ids == before

    def test_counters_account_for_every_batch(self):
        detector = make_detector()
        points = cluster_stream(17, n=450)
        for lo in range(0, len(points), 150):
            detector.ingest_points(points[lo:lo + 150])
        counters = detector.counters.group("streaming")
        assert counters["batches"] == 3
        assert counters["points"] == len(points)
        assert (
            counters["plan_builds"] + counters.get("plan_cache_hits", 0)
            == 3
        )
        assert counters["dirty_partitions"] <= counters["partitions_total"]

    def test_invalidation_span_emitted(self):
        detector = make_detector()
        points = cluster_stream(18, n=300)
        detector.ingest_points(points)
        outside = points.max(axis=0) + 10.0
        report = detector.ingest_points(outside[None, :])
        events = [
            s for s in report.trace.walk()
            if s.name == "plan_invalidation"
        ]
        assert len(events) == 1
        assert events[0].attrs["reason"] == "domain_expansion"


class TestAppendOnlyContract:
    def test_duplicate_ids_rejected(self):
        detector = make_detector()
        detector.ingest(Dataset.from_points(cluster_stream(21, n=100)))
        with pytest.raises(ValueError, match="append-only"):
            detector.ingest(
                Dataset(np.array([[1.0, 1.0]]), np.array([0]))
            )

    def test_duplicate_ids_within_batch_rejected(self):
        detector = make_detector()
        with pytest.raises(ValueError, match="unique"):
            detector.ingest(
                Dataset(np.zeros((2, 2)), np.array([5, 5]))
            )

    def test_dimension_mismatch_rejected(self):
        detector = make_detector()
        detector.ingest_points(cluster_stream(22, n=100))
        with pytest.raises(ValueError, match="dims"):
            detector.ingest_points(np.zeros((1, 3)))

    @pytest.mark.parametrize("as_records", [False, True])
    def test_nonfinite_batch_refused_and_stream_unchanged(
        self, tmp_path, as_records
    ):
        detector = make_detector()
        detector.ingest_points(cluster_stream(23, n=200))
        snap = str(tmp_path / "stream.snap")
        before = _persisted(detector, snap)
        points = np.array([[5.0, 5.0], [6.0, np.inf], [np.nan, 1.0]])
        ids = [500, 501, 502]
        with pytest.raises(ValueError, match="row 1 has NaN/inf"):
            if as_records:
                detector.ingest(list(zip(ids, points.tolist())))
            else:
                detector.ingest_points(points, ids)
        assert detector.n_seen == 200
        assert _persisted(detector, snap) == before
        report = detector.ingest_points(points[:1], ids[:1])
        assert report.batch_index == 2
        assert detector.outlier_ids == brute_force_outliers(
            detector.dataset(), PARAMS
        )

    def test_record_batches_and_auto_ids(self):
        detector = make_detector()
        detector.ingest([(7, [1.0, 1.0]), (9, [2.0, 2.0])])
        report = detector.ingest_points(np.array([[3.0, 3.0]]))
        assert 10 in report.outlier_ids  # auto id continues past max


class _BreakableRuntime(LocalRuntime):
    """Raises from every stream detection job while ``broken`` is set."""

    broken = False

    def run(self, job, input_data, block_records=None):
        if self.broken and "stream" in job.name:
            raise RuntimeError("injected: the detection job failed")
        return super().run(job, input_data, block_records)


def _persisted(detector, path):
    """Everything ``save`` persists (less the count of saves itself),
    canonically serialised, plus the records derived from it."""
    detector.save(path)
    payload = read_artifact(path, "streaming-snapshot", 2)
    payload["counters"].pop("recovery", None)
    return (
        canonical_bytes(payload),
        {pid: list(r) for pid, r in detector._partition_records.items()},
    )


class TestFailedBatch:
    """A raising ``ingest`` leaves the stream exactly as it was, so the
    batch can be retried — on the append path and on a rebuild."""

    @pytest.mark.parametrize("tier", ["exact", "fast"])
    @pytest.mark.parametrize("path", ["append", "rebuild"])
    def test_stream_is_unchanged_and_batch_retryable(
        self, tmp_path, path, tier
    ):
        params = OutlierParams(r=2.0, k=6)
        points = region_dataset("MA", base_n=1500, seed=4).points
        # The head spans the data's bounding box, so the plain tail is
        # served from the cached plan...
        extremes = np.unique(np.concatenate(
            [points.argmin(axis=0), points.argmax(axis=0)]
        ))
        rest = np.setdiff1d(np.arange(len(points)), extremes)
        points = points[np.concatenate([extremes, rest])]
        if path == "rebuild":
            # ...and one point outside it forces a re-plan.
            points[-1] = points.max(axis=0) + 5.0
        data = Dataset.from_points(points)
        head = data.subset(np.arange(1000))
        tail = data.subset(np.arange(1000, data.n))

        runtime = _BreakableRuntime(CLUSTER)
        detector = StreamingDetector(
            params, runtime=runtime, cluster=CLUSTER, tier=tier,
            n_partitions=8, n_reducers=4, seed=3,
        )
        detector.ingest(head)
        snap = str(tmp_path / "stream.snap")
        before = _persisted(detector, snap)

        runtime.broken = True
        with pytest.raises(RuntimeError, match="injected"):
            detector.ingest(tail)
        assert detector.n_seen == head.n
        assert detector.outlier_ids == brute_force_outliers(head, params)
        assert _persisted(detector, snap) == before

        runtime.broken = False
        report = detector.ingest(tail)
        assert report.cache_hit == (path == "append")
        assert report.batch_index == 2
        assert detector.n_seen == data.n
        assert detector.outlier_ids == brute_force_outliers(data, params)


@pytest.mark.parametrize("transport", ["shm"])
def test_parallel_runtimes_match_serial(transport):
    """Incremental detection is runtime-invariant, with retries and
    speculation enabled (acceptance criterion)."""
    points = cluster_stream(31, n=500)
    serial = make_detector()
    scheduler = SchedulerConfig(
        max_attempts=3, timeout=30.0, speculate=True,
        speculation_threshold=1.5, seed=3,
    )
    parallel = make_detector(
        runtime=ParallelRuntime(
            CLUSTER, workers=2, scheduler=scheduler, transport=transport
        )
    )
    for lo in range(0, len(points), 250):
        batch = points[lo:lo + 250]
        serial.ingest_points(batch)
        parallel.ingest_points(batch)
        assert parallel.outlier_ids == serial.outlier_ids
    assert serial.outlier_ids == full_run(points)


def test_region_append_workload_hits_cache_with_low_dirty_ratio():
    """The acceptance workload: append-heavy stream with locality keeps
    the plan cached and re-detects a strict subset of partitions."""
    dataset = region_dataset("MA", base_n=1200, seed=4)
    n_initial = 900
    detector = make_detector(n_partitions=16, n_reducers=8)
    detector.ingest(dataset.subset(np.arange(n_initial)))
    rest = np.arange(n_initial, dataset.n)
    # Batches sorted by y keep each one spatially local *and* inside the
    # initial bounds often enough to exercise cache hits.
    rest = rest[np.argsort(dataset.points[rest, 1], kind="stable")]
    hits = []
    for idx in np.array_split(rest, 3):
        report = detector.ingest(dataset.subset(idx))
        if report.cache_hit:
            hits.append(report)
    assert hits, "workload never reused the plan"
    assert all(r.dirty_ratio < 1.0 for r in hits)
    full = detect_outliers(
        dataset, PARAMS, n_partitions=16, n_reducers=8,
        cluster=CLUSTER, seed=3,
    )
    assert detector.outlier_ids == full.outlier_ids


class TestEdgeRouting:
    """Boundary regression: domain-max points before/after expansion."""

    def test_max_edge_lands_in_last_cell(self):
        domain = Rect.from_arrays([0.0, 0.0], [8.0, 8.0])
        grid = UniformGrid.with_cells(domain, 16)
        edge = np.array([[8.0, 8.0]])
        cell = grid.cells_of(edge)[0]
        assert tuple(cell) == tuple(np.array(grid.shape) - 1)

    def test_max_edge_stays_routable_across_expansion(self):
        detector = make_detector()
        base = cluster_stream(41, n=300)
        detector.ingest_points(base)
        # A point exactly on the current domain max corner must route
        # into the last partition tier, not fall off the tiling.
        edge = np.array(detector.plan.domain.high)[None, :]
        detector.ingest_points(edge)
        assert detector.outlier_ids == full_run(detector.dataset().points)
        # Expand the domain past the old corner, then hit the *new* max
        # edge: the rebuilt plan must cover it exactly the same way.
        detector.ingest_points(edge + 3.0)
        new_edge = np.array(detector.plan.domain.high)[None, :]
        detector.ingest_points(new_edge)
        assert detector.outlier_ids == full_run(detector.dataset().points)
