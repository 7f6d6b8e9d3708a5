"""The two geometry-only strategies: Domain (baseline) and uniSpace.

Both tile the domain with an equi-width grid of roughly ``n_partitions``
cells.  They differ in one crucial bit:

* **Domain** is the paper's baseline: *no supporting areas*.  A partition
  cannot decide border points locally, so the detection pipeline must run
  an additional MapReduce job to confirm edge candidates (Sec. VI-A).
* **uniSpace** is the same grid *with* supporting areas (the Sec. III-A
  framework), so detection completes in a single job — but it inherits the
  grid's load imbalance on skewed data.

Neither runs a pre-processing job, matching Fig. 10(a) where both show
zero pre-processing cost.
"""

from __future__ import annotations

from ..geometry import Rect, UniformGrid
from ..mapreduce import LocalRuntime
from .base import Partition, PartitionPlan
from .strategy import PartitioningStrategy, PlanRequest

__all__ = ["DomainPartitioner", "UniSpacePartitioner"]


def _grid_plan(
    domain: Rect, n_partitions: int, strategy_name: str
) -> PartitionPlan:
    """An equi-width grid of about ``n_partitions`` cells over ``domain``;
    also the plan the extensions (DBSCAN, LOCI, kNN) run on."""
    grid = UniformGrid.with_cells(domain, n_partitions)
    partitions = [
        Partition(pid=grid.flat_index(idx), rect=grid.cell_rect(idx))
        for idx in grid.iter_cells()
    ]
    return PartitionPlan(
        domain=domain,
        partitions=partitions,
        allocation=None,  # hash partitioning, as in stock Hadoop
        strategy=strategy_name,
    )


class DomainPartitioner(PartitioningStrategy):
    """Equi-width grid, no supporting areas -> two-job detection."""

    name = "Domain"
    uses_support_area = False

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        return _grid_plan(request.domain, request.n_partitions, self.name)


class UniSpacePartitioner(PartitioningStrategy):
    """Equi-width grid with supporting areas -> single-job detection."""

    name = "uniSpace"
    uses_support_area = True

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        return _grid_plan(request.domain, request.n_partitions, self.name)
