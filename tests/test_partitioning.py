"""Unit tests for partition plans and the five strategies."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.geometry import Rect
from repro.mapreduce import ClusterConfig, LocalRuntime
from repro.params import OutlierParams
from repro.partitioning import (
    CDrivenPartitioner,
    DDrivenPartitioner,
    DMTPartitioner,
    DomainPartitioner,
    Partition,
    PartitionPlan,
    PlanRequest,
    UniSpacePartitioner,
)

DOMAIN = Rect((0.0, 0.0), (10.0, 10.0))


def quad_plan():
    """2x2 equal split of DOMAIN."""
    rects = [
        Rect((0.0, 0.0), (5.0, 5.0)),
        Rect((5.0, 0.0), (10.0, 5.0)),
        Rect((0.0, 5.0), (5.0, 10.0)),
        Rect((5.0, 5.0), (10.0, 10.0)),
    ]
    return PartitionPlan(
        DOMAIN,
        [Partition(pid=i, rect=r) for i, r in enumerate(rects)],
    )


def make_dataset(n=3000, seed=0, side=40.0):
    rng = np.random.default_rng(seed)
    return Dataset.from_points(rng.uniform(0, side, size=(n, 2)))


class TestPartitionPlan:
    def test_core_pid_interior(self):
        plan = quad_plan()
        assert plan.core_pid((1.0, 1.0)) == 0
        assert plan.core_pid((6.0, 1.0)) == 1
        assert plan.core_pid((1.0, 6.0)) == 2
        assert plan.core_pid((6.0, 6.0)) == 3

    def test_shared_boundary_unique_owner(self):
        plan = quad_plan()
        # On the shared face: belongs to exactly one (the upper) partition.
        assert plan.core_pid((5.0, 2.0)) == 1
        assert plan.core_pid((2.0, 5.0)) == 2
        assert plan.core_pid((5.0, 5.0)) == 3

    def test_domain_corner(self):
        plan = quad_plan()
        assert plan.core_pid((10.0, 10.0)) == 3

    def test_batch_matches_scalar(self):
        plan = quad_plan()
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(500, 2))
        batch = plan.core_pids_batch(pts)
        for p, pid in zip(pts, batch):
            assert plan.core_pid(tuple(p)) == pid

    def test_support_pids_near_boundary(self):
        plan = quad_plan()
        # A point just left of x=5 supports the right partitions within r.
        pids = set(plan.support_pids((4.9, 2.0), r=0.5))
        assert pids == {1}
        pids = set(plan.support_pids((4.9, 4.9), r=0.5))
        assert pids == {1, 2, 3}

    def test_support_excludes_core(self):
        plan = quad_plan()
        for p in [(1.0, 1.0), (4.9, 4.9), (5.1, 5.1)]:
            core = plan.core_pid(p)
            assert core not in plan.support_pids(p, r=1.0)

    def test_assign_batch_matches_scalar_support(self):
        plan = quad_plan()
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, size=(300, 2))
        core, pairs = plan.assign_batch(pts, r=0.8)
        batch_support = {}
        for row, pid in pairs:
            batch_support.setdefault(int(row), set()).add(int(pid))
        for i, p in enumerate(pts):
            expected = set(plan.support_pids(tuple(p), 0.8))
            assert batch_support.get(i, set()) == expected, i

    def test_interior_point_supports_nothing(self):
        plan = quad_plan()
        assert plan.support_pids((2.5, 2.5), r=1.0) == []

    def test_point_outside_domain_snaps_to_nearest(self):
        plan = quad_plan()
        assert plan.core_pid((-1.0, -1.0)) == 0
        assert plan.core_pid((11.0, 11.0)) == 3

    def test_duplicate_pids_rejected(self):
        with pytest.raises(ValueError):
            PartitionPlan(
                DOMAIN,
                [Partition(0, DOMAIN), Partition(0, DOMAIN)],
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            PartitionPlan(DOMAIN, [])

    def test_validate_tiling_detects_overlap(self):
        bad = PartitionPlan(
            DOMAIN,
            [
                Partition(0, Rect((0.0, 0.0), (6.0, 10.0))),
                Partition(1, Rect((4.0, 0.0), (10.0, 10.0))),
            ],
        )
        with pytest.raises(ValueError, match="overlap"):
            bad.validate_tiling()

    def test_validate_tiling_ok(self):
        quad_plan().validate_tiling(
            np.random.default_rng(0).uniform(0, 10, size=(100, 2))
        )


def build(strategy, data, **kwargs):
    runtime = LocalRuntime(
        ClusterConfig(nodes=2, hdfs_block_records=1024)
    )
    request = PlanRequest(
        domain=data.bounds,
        params=OutlierParams(r=2.0, k=4),
        n_partitions=kwargs.pop("n_partitions", 9),
        n_reducers=kwargs.pop("n_reducers", 4),
        n_buckets=kwargs.pop("n_buckets", 64),
        sample_rate=kwargs.pop("sample_rate", 0.5),
        seed=1,
    )
    return strategy.build_plan(runtime, data.batch(), request)


STRATEGIES = [
    DomainPartitioner(),
    UniSpacePartitioner(),
    DDrivenPartitioner(),
    CDrivenPartitioner(),
    DMTPartitioner(),
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
class TestStrategiesCommon:
    def test_plan_tiles_domain(self, strategy):
        data = make_dataset(seed=3)
        plan = build(strategy, data)
        plan.validate_tiling(data.points)
        total = sum(p.rect.area for p in plan.partitions)
        assert total == pytest.approx(data.bounds.area, rel=1e-6)

    def test_every_point_has_exactly_one_core(self, strategy):
        data = make_dataset(seed=4)
        plan = build(strategy, data)
        pids = plan.core_pids_batch(data.points)
        valid = {p.pid for p in plan.partitions}
        assert set(np.unique(pids)) <= valid

    def test_strategy_name_recorded(self, strategy):
        data = make_dataset(seed=5, n=800)
        plan = build(strategy, data)
        assert plan.strategy == strategy.name


class TestStrategySpecifics:
    def test_domain_has_no_support_area(self):
        assert DomainPartitioner.uses_support_area is False
        assert UniSpacePartitioner.uses_support_area is True

    def test_grid_strategies_have_no_allocation(self):
        data = make_dataset(seed=6, n=500)
        for strategy in (DomainPartitioner(), UniSpacePartitioner()):
            plan = build(strategy, data)
            assert plan.allocation is None

    def test_sampled_strategies_have_allocation(self):
        data = make_dataset(seed=7, n=2000)
        for strategy in (
            DDrivenPartitioner(), CDrivenPartitioner(), DMTPartitioner()
        ):
            plan = build(strategy, data)
            assert plan.allocation is not None
            assert set(plan.allocation) == {
                p.pid for p in plan.partitions
            }
            assert all(0 <= v < 4 for v in plan.allocation.values())

    def test_ddriven_balances_cardinality(self):
        data = make_dataset(seed=8, n=8000)
        plan = build(DDrivenPartitioner(), data, sample_rate=1.0)
        counts = [p.est_points for p in plan.partitions]
        assert max(counts) <= 3.5 * (sum(counts) / len(counts))

    def test_cdriven_respects_algorithm(self):
        data = make_dataset(seed=9, n=2000)
        plan = build(CDrivenPartitioner("cell_based"), data)
        assert all(p.algorithm == "cell_based" for p in plan.partitions)

    def test_dmt_assigns_mixed_algorithms_on_skewed_data(self):
        # Left half: mid-band density (Nested-Loop territory for r=2,
        # k=4: band is rho in [0.163, 0.889)); right half: a large
        # dense-pruned region (rho ~ 2) whose partitions are big enough
        # that Cell-Based's linear cost beats Nested-Loop's k*n/E trials.
        from repro.dshc import DSHCConfig

        rng = np.random.default_rng(10)
        mid = rng.uniform((0, 0), (50, 100), size=(2000, 2))  # rho 0.4
        dense = rng.uniform((50, 0), (100, 100), size=(10_000, 2))
        data = Dataset.from_points(np.vstack([mid, dense]))
        strategy = DMTPartitioner(DSHCConfig(t_max_fraction=0.6))
        plan = build(strategy, data, n_buckets=100)
        algorithms = {p.algorithm for p in plan.partitions
                      if p.est_points > 100}
        assert algorithms == {"nested_loop", "cell_based"}

    def test_dmt_partition_estimates_positive(self):
        data = make_dataset(seed=11, n=3000)
        plan = build(DMTPartitioner(), data)
        assert sum(p.est_points for p in plan.partitions) == (
            pytest.approx(data.n, rel=0.35)
        )
        assert all(p.est_cost >= 0 for p in plan.partitions)
