"""Unit tests for the DOD framework internals (Sec. III mechanics)."""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.core.framework import _DODMapper, _LocalOnlyMapper
from repro.geometry import Rect
from repro.mapreduce import ClusterConfig, TaskContext
from repro.partitioning import Partition, PartitionPlan

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
        records = list(data.records())
        scalar = []
        for pid, point in records:
            scalar.extend(mapper.map(pid, point, TaskContext(0)))
        batch = mapper.map_block(records, TaskContext(1))

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
        records = list(data.records())
        scalar = []
        for pid, point in records:
            scalar.extend(mapper.map(pid, point, TaskContext(0)))
        batch = mapper.map_block(records, TaskContext(1))

        def norm(pairs):
            return sorted(
                (dest, pid, tuple(np.round(pt, 9)))
                for dest, (pid, pt) in pairs
            )

        assert norm(scalar) == norm(batch)


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
