"""Tests for partition-plan JSON serialization."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.geometry import Rect
from repro.mapreduce import ClusterConfig, LocalRuntime
from repro.params import OutlierParams
from repro.partitioning import (
    DMTPartitioner,
    PlanRequest,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)


def build_dmt_plan(seed=0):
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, 50, size=(3000, 2)))
    runtime = LocalRuntime(ClusterConfig(nodes=2))
    request = PlanRequest(
        domain=data.bounds, params=OutlierParams(r=2.0, k=4),
        n_partitions=9, n_reducers=4, n_buckets=64, sample_rate=0.5,
        seed=1,
    )
    return DMTPartitioner().build_plan(
        runtime, data.batch(), request
    ), data


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self):
        plan, _ = build_dmt_plan()
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.strategy == plan.strategy
        assert restored.domain == plan.domain
        assert restored.allocation == plan.allocation
        assert len(restored.partitions) == plan.n_partitions
        for a, b in zip(plan.partitions, restored.partitions):
            assert (a.pid, a.rect, a.algorithm) == (
                b.pid, b.rect, b.algorithm
            )
            assert a.est_cost == pytest.approx(b.est_cost)

    def test_restored_plan_routes_identically(self):
        plan, data = build_dmt_plan(seed=1)
        restored = plan_from_dict(plan_to_dict(plan))
        np.testing.assert_array_equal(
            plan.core_pids_batch(data.points),
            restored.core_pids_batch(data.points),
        )
        for p in data.points[:100]:
            assert plan.support_pids(tuple(p), 2.0) == (
                restored.support_pids(tuple(p), 2.0)
            )

    def test_file_roundtrip(self, tmp_path):
        plan, _ = build_dmt_plan(seed=2)
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        restored = load_plan(str(path))
        assert restored.allocation == plan.allocation
        assert restored.n_partitions == plan.n_partitions

    def test_version_check(self):
        plan, _ = build_dmt_plan(seed=3)
        data = plan_to_dict(plan)
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            plan_from_dict(data)

    def test_none_allocation_roundtrip(self):
        from repro.partitioning import Partition, PartitionPlan

        domain = Rect((0.0, 0.0), (1.0, 1.0))
        plan = PartitionPlan(domain, [Partition(0, domain)])
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.allocation is None
