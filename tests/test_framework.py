"""Unit tests for the DOD framework internals (Sec. III mechanics)."""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.core.config import RunConfig
from repro.core.execute import _DODReducer, route
from repro.core.framework import _DODMapper, _LocalOnlyMapper
from repro.data import clustered_mixture
from repro.geometry import Rect
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    ParallelRuntime,
    TaskContext,
)
from repro.partitioning import Partition, PartitionPlan
from repro.recovery import run_checkpointed

from .helpers import batch_rows

CLUSTER = ClusterConfig(nodes=2, hdfs_block_records=512)
DOMAIN = Rect((0.0, 0.0), (10.0, 10.0))


def halves_plan(algorithms=(None, None), strategy="test"):
    return PartitionPlan(
        DOMAIN,
        [
            Partition(0, Rect((0.0, 0.0), (5.0, 10.0)),
                      algorithm=algorithms[0]),
            Partition(1, Rect((5.0, 0.0), (10.0, 10.0)),
                      algorithm=algorithms[1]),
        ],
        strategy=strategy,
    )


def run_plan(data, params, plan, **kwargs):
    """Run a hand-built plan through the public entry point: the
    single-pass job, or the two-job baseline for a ``"Domain"`` plan."""
    return detect_outliers(
        data, params, plan=plan, n_reducers=2, cluster=CLUSTER, **kwargs
    ).run


def grid_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_points(rng.uniform(0, 10, size=(n, 2)))


class TestDODMapper:
    def test_core_record_per_point(self):
        plan = halves_plan()
        mapper = _DODMapper(plan, r=1.0)
        ctx = TaskContext(0)
        pairs = list(mapper.map(3, np.array([2.0, 2.0]), ctx))
        assert pairs == [(0, (0, 3, (2.0, 2.0)))]

    def test_support_record_near_boundary(self):
        plan = halves_plan()
        mapper = _DODMapper(plan, r=1.0)
        ctx = TaskContext(0)
        pairs = list(mapper.map(9, np.array([4.5, 5.0]), ctx))
        kinds = sorted((dest, tag) for dest, (tag, _, _) in pairs)
        assert kinds == [(0, 0), (1, 1)]

    def test_batch_path_equals_scalar_path(self):
        plan = halves_plan()
        mapper = _DODMapper(plan, r=1.2)
        data = grid_data(300, seed=1)
        records = data.batch()
        scalar = []
        for pid, point in records:
            scalar.extend(mapper.map(pid, point, TaskContext(0)))
        batch = [
            (dest, row)
            for dest, rows in mapper.map_block(records, TaskContext(1))
            for row in batch_rows(rows)
        ]

        def norm(pairs):
            return sorted(
                (dest, tag, pid, tuple(np.round(pt, 9)))
                for dest, (tag, pid, pt) in pairs
            )

        assert norm(scalar) == norm(batch)

    def test_local_only_mapper_batch_equals_scalar(self):
        plan = halves_plan()
        mapper = _LocalOnlyMapper(plan)
        data = grid_data(200, seed=2)
        records = data.batch()
        scalar = []
        for pid, point in records:
            scalar.extend(mapper.map(pid, point, TaskContext(0)))
        batch = [
            (dest, row)
            for dest, rows in mapper.map_block(records, TaskContext(1))
            for row in batch_rows(rows)
        ]

        def norm(pairs):
            return sorted(
                (dest, pid, tuple(np.round(pt, 9)))
                for dest, (pid, pt) in pairs
            )

        assert norm(scalar) == norm(batch)


def _accounting(job):
    return {
        "shuffle_records": job.shuffle_records,
        "map": [
            (t.input_records, t.output_records, t.cost_units)
            for t in job.map_tasks
        ],
        "reduce": [
            (t.input_records, t.output_records, t.cost_units)
            for t in job.reduce_tasks
        ],
        "support_records": job.counters.get("dod", "support_records"),
    }


@pytest.mark.parametrize("transport", [None, "shm"])
class TestRecordAccounting:
    """A record is a row, and is counted as one.  The literals are what
    the tuple-per-record shuffle of PR 20 reported for these two runs:
    1 500 clustered points in six 256-record blocks through one DMT
    plan (18 partitions, 3 reducers), map-side and driver-side routed."""

    DATA = clustered_mixture(
        1500, Rect((0.0, 0.0), (60.0, 60.0)), n_clusters=3, seed=3
    )
    PARAMS = OutlierParams(r=2.0, k=4)
    SIZING = dict(strategy="DMT", n_partitions=6, n_reducers=3, seed=3)

    def _detect(self, transport):
        cluster = ClusterConfig(nodes=2, hdfs_block_records=256)
        runtime = LocalRuntime(cluster) if transport is None else (
            ParallelRuntime(cluster, workers=2, transport=transport)
        )
        result = detect_outliers(
            self.DATA, self.PARAMS, cluster=cluster, runtime=runtime,
            sample_rate=0.5, **self.SIZING,
        )
        return result, cluster, runtime

    def test_single_pass_job(self, transport):
        result, _, _ = self._detect(transport)
        assert _accounting(result.run.jobs[-1]) == {
            "shuffle_records": 3350,
            "map": [
                (256, 630, 886.0), (256, 615, 871.0), (256, 623, 879.0),
                (256, 615, 871.0), (256, 545, 801.0), (220, 322, 542.0),
            ],
            "reduce": [
                (171, 118, 20483.0), (1270, 124, 22022.0),
                (1909, 34, 28518.0),
            ],
            "support_records": 1850,
        }
        assert (result.map_units, result.reduce_units) == (4850.0, 71023.0)
        assert len(result.outlier_ids) == 276

    def test_routed_job(self, transport, tmp_path):
        """``run_routed``: map tasks cut every 256 *records* of the
        pid-sorted rows, wherever partitions begin and end."""
        result, cluster, runtime = self._detect(transport)
        ckpt = run_checkpointed(
            self.DATA, self.PARAMS, checkpoint_dir=str(tmp_path),
            cluster=cluster, runtime=runtime, plan=result.run.plan,
            **self.SIZING,
        )
        assert _accounting(ckpt.jobs[-1]) == {
            "shuffle_records": 3350,
            "map": [(256, 256, 512.0)] * 13 + [(22, 22, 44.0)],
            "reduce": [
                (1121, 61, 17808.0), (1118, 92, 18428.0),
                (1111, 123, 34787.0),
            ],
            "support_records": 0,
        }
        assert ckpt.outlier_ids == result.outlier_ids


def test_batches_out_of_block_order_are_a_different_scan():
    """The order contract can fail: a reducer concatenates its batches
    as they arrive, and the detectors' seeded scans charge by position.
    Partition 7's six batches in block order are the 20 483 units the
    single-pass literal above pins for reducer 0; reversed, the verdicts
    stand and the charge does not."""
    cls = TestRecordAccounting
    cluster = ClusterConfig(nodes=2, hdfs_block_records=256)
    plan = detect_outliers(
        cls.DATA, cls.PARAMS, cluster=cluster, sample_rate=0.5, **cls.SIZING
    ).run.plan
    rows = cls.DATA.batch()
    batches = [
        batch
        for lo in range(0, len(rows), 256)
        for pid, batch in route(plan, rows[lo:lo + 256], cls.PARAMS.r)
        if pid == 7
    ]
    assert len(batches) == 6
    reducer = _DODReducer(
        RunConfig.resolve(cls.PARAMS, cluster=cluster, n=len(rows)),
        plan.algorithm_plan,
    )
    in_order, reverse = TaskContext(0), TaskContext(1)
    verdicts = sorted(reducer.reduce(7, batches, in_order))
    assert sorted(reducer.reduce(7, batches[::-1], reverse)) == verdicts
    assert in_order.cost_units == 20483.0
    assert reverse.cost_units == 20527.0


class TestDODFramework:
    def test_detector_usage_counters(self):
        data = grid_data(500, seed=3)
        params = OutlierParams(r=1.0, k=4)
        plan = halves_plan(algorithms=("nested_loop", "cell_based"))
        run = run_plan(data, params, plan)
        assert run.detector_usage == {"nested_loop": 1, "cell_based": 1}

    def test_default_algorithm_used_when_plan_has_none(self):
        data = grid_data(300, seed=4)
        params = OutlierParams(r=1.0, k=4)
        run = run_plan(data, params, halves_plan(), detector="cell_based")
        assert run.detector_usage == {"cell_based": 2}

    def test_support_records_counted(self):
        data = grid_data(500, seed=5)
        params = OutlierParams(r=2.0, k=4)
        run = run_plan(data, params, halves_plan())
        support = run.jobs[0].counters.get("dod", "support_records")
        # Points within r=2 of the x=5 boundary: roughly 40% of the data.
        assert 0 < support < data.n
        assert run.total_shuffle_records() == data.n + support

    def test_single_job(self):
        data = grid_data(200, seed=6)
        params = OutlierParams(r=1.0, k=3)
        run = run_plan(data, params, halves_plan())
        assert run.n_jobs == 1


class TestDomainBaseline:
    def test_two_jobs(self):
        data = grid_data(400, seed=7)
        params = OutlierParams(r=1.0, k=4)
        run = run_plan(data, params, halves_plan(strategy="Domain"))
        assert run.n_jobs == 2

    def test_exactness_with_border_candidates(self):
        """A point whose inlier status depends on the neighbor partition."""
        # Cluster of 5 points straddling the x=5 boundary.
        left = np.array([[4.9, 5.0], [4.8, 5.1]])
        right = np.array([[5.1, 5.0], [5.2, 5.1], [5.05, 4.9]])
        filler = np.random.default_rng(8).uniform(0, 10, size=(100, 2))
        data = Dataset.from_points(np.vstack([left, right, filler]))
        params = OutlierParams(r=0.6, k=3)
        oracle = brute_force_outliers(data, params)
        run = run_plan(data, params, halves_plan(strategy="Domain"))
        assert run.outlier_ids == oracle

    @pytest.mark.parametrize("algorithm", ["nested_loop", "cell_based"])
    def test_exact_under_both_detectors(self, algorithm):
        data = grid_data(600, seed=9)
        params = OutlierParams(r=0.8, k=5)
        oracle = brute_force_outliers(data, params)
        run = run_plan(
            data, params, halves_plan(strategy="Domain"), detector=algorithm
        )
        assert run.outlier_ids == oracle
