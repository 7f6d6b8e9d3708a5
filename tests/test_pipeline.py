"""Unit tests for the high-level pipeline API and its timing model."""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
    resolve_strategy,
)
from repro.core.pipeline import PipelineResult
from repro.mapreduce import ClusterConfig
from repro.params import JOB_STARTUP_SECONDS
from repro.partitioning import DMTPartitioner, PartitioningStrategy

CLUSTER = ClusterConfig(nodes=2, hdfs_block_records=512)


def small_data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_points(rng.uniform(0, 40, size=(n, 2)))


class TestResolveStrategy:
    def test_by_name_case_insensitive(self):
        assert resolve_strategy("dmt").name == "DMT"
        assert resolve_strategy("UNISPACE").name == "uniSpace"

    def test_instance_passthrough(self):
        strategy = DMTPartitioner()
        assert resolve_strategy(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_strategy("kmeans")

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_strategy(42)


class TestDetectOutliers:
    def test_basic_run(self):
        data = small_data()
        params = OutlierParams(r=2.0, k=5)
        oracle = brute_force_outliers(data, params)
        result = detect_outliers(
            data, params, strategy="uniSpace", n_partitions=9,
            n_reducers=4, cluster=CLUSTER, sample_rate=0.5,
        )
        assert result.outlier_ids == oracle
        assert result.strategy == "uniSpace"

    def test_defaults_resolve(self):
        data = small_data(300, seed=1)
        params = OutlierParams(r=2.0, k=3)
        result = detect_outliers(
            data, params, strategy="uniSpace", cluster=CLUSTER,
            sample_rate=0.5,
        )
        assert isinstance(result, PipelineResult)

    def test_breakdown_keys(self):
        data = small_data(400, seed=2)
        params = OutlierParams(r=2.0, k=4)
        result = detect_outliers(
            data, params, strategy="CDriven", n_partitions=6,
            n_reducers=3, cluster=CLUSTER, n_buckets=36, sample_rate=0.5,
        )
        bd = result.breakdown()
        assert set(bd) == {"preprocess", "map", "reduce"}
        assert all(v >= 0 for v in bd.values())

    def test_total_includes_startup(self):
        data = small_data(400, seed=3)
        params = OutlierParams(r=2.0, k=4)
        single = detect_outliers(
            data, params, strategy="uniSpace", n_partitions=4,
            n_reducers=2, cluster=CLUSTER, sample_rate=0.5,
        )
        double = detect_outliers(
            data, params, strategy="Domain", n_partitions=4,
            n_reducers=2, cluster=CLUSTER, sample_rate=0.5,
        )
        assert single.job_startup_seconds == JOB_STARTUP_SECONDS
        assert double.job_startup_seconds == 2 * JOB_STARTUP_SECONDS
        assert single.simulated_total_seconds >= (
            single.breakdown()["reduce"] + JOB_STARTUP_SECONDS
        )

    def test_units_and_loads_exposed(self):
        data = small_data(600, seed=4)
        params = OutlierParams(r=2.0, k=4)
        result = detect_outliers(
            data, params, strategy="DMT", n_partitions=8, n_reducers=4,
            cluster=CLUSTER, n_buckets=64, sample_rate=0.5,
        )
        assert result.map_units > 0
        assert result.reduce_units > 0
        assert len(result.reducer_loads()) == 4
        assert result.load_imbalance >= 1.0

    def test_units_never_read_the_clock(self):
        """Fast tier: a reduce task whose partitions hold support rows
        only charges nothing — and must cost that zero, not its wall
        time, in a job whose other tasks report units."""
        from repro.data import region_dataset

        data = region_dataset("NE", 4000, seed=3)
        params = OutlierParams(r=2.0, k=12)
        runs = [
            detect_outliers(data, params, strategy="DMT", tier="fast")
            for _ in range(2)
        ]
        reported = [
            sum(
                task.cost_units
                for job in result.run.jobs
                for task in job.map_tasks + job.reduce_tasks
            )
            for result in runs
        ]
        detect_job = runs[0].run.jobs[-1]
        assert any(
            t.cost_units == 0 and t.input_records > 0
            for t in detect_job.reduce_tasks
        )
        units = [r.map_units + r.reduce_units for r in runs]
        assert units[0] == units[1] == reported[0] == reported[1]

    def test_wall_metrics_positive(self):
        data = small_data(400, seed=5)
        params = OutlierParams(r=2.0, k=4)
        result = detect_outliers(
            data, params, strategy="uniSpace", n_partitions=4,
            n_reducers=2, cluster=CLUSTER, sample_rate=0.5,
        )
        assert result.detect_wall > 0
        for job in result.run.jobs:
            assert job.phase_times["map"] > 0
            assert job.phase_times["reduce"] > 0

    def test_custom_strategy_instance(self):
        class OneBox(PartitioningStrategy):
            name = "OneBox"
            uses_support_area = True

            def build_plan(self, runtime, input_data, request):
                from repro.partitioning import Partition, PartitionPlan

                return PartitionPlan(
                    request.domain,
                    [Partition(0, request.domain)],
                    strategy=self.name,
                )

        data = small_data(300, seed=6)
        params = OutlierParams(r=2.0, k=4)
        oracle = brute_force_outliers(data, params)
        result = detect_outliers(
            data, params, strategy=OneBox(), n_reducers=2,
            cluster=CLUSTER, sample_rate=0.5,
        )
        assert result.outlier_ids == oracle
        assert result.strategy == "OneBox"

    def test_detector_override(self):
        data = small_data(500, seed=7)
        params = OutlierParams(r=2.0, k=4)
        result = detect_outliers(
            data, params, strategy="uniSpace", detector="cell_based",
            n_partitions=4, n_reducers=2, cluster=CLUSTER,
            sample_rate=0.5,
        )
        assert result.run.detector_usage.get("cell_based", 0) > 0


class TestPrecomputedPlan:
    def test_plan_reuse_skips_preprocessing(self, tmp_path):
        import numpy as np
        from repro.partitioning import load_plan, save_plan

        data = small_data(1000, seed=9)
        params = OutlierParams(r=2.0, k=5)
        first = detect_outliers(
            data, params, strategy="CDriven", n_partitions=8,
            n_reducers=4, cluster=CLUSTER, sample_rate=0.5,
        )
        path = tmp_path / "plan.json"
        save_plan(first.run.plan, str(path))

        plan = load_plan(str(path))
        second = detect_outliers(
            data, params, n_reducers=4, cluster=CLUSTER, plan=plan
        )
        assert second.outlier_ids == first.outlier_ids
        assert second.strategy == "CDriven"
        assert second.preprocess_wall == 0.0

    def test_domain_plan_triggers_two_jobs(self):
        from repro.partitioning import DomainPartitioner, PlanRequest
        from repro.mapreduce import LocalRuntime

        data = small_data(600, seed=10)
        params = OutlierParams(r=2.0, k=4)
        runtime = LocalRuntime(CLUSTER)
        request = PlanRequest(
            domain=data.bounds, params=params, n_partitions=4,
            n_reducers=2, sample_rate=0.5,
        )
        plan = DomainPartitioner().build_plan(
            runtime, data.batch(), request
        )
        result = detect_outliers(
            data, params, n_reducers=2, cluster=CLUSTER, plan=plan
        )
        assert result.run.n_jobs == 2
