"""Partition plans and the five partitioning strategies of Sec. VI."""

from .base import Partition, PartitionPlan
from .grid_strategies import DomainPartitioner, UniSpacePartitioner
from .metric_strategies import MetricSafePartitioner, MetricSafePlan
from .sampled_strategies import (
    CDrivenPartitioner,
    DDrivenPartitioner,
    DMTPartitioner,
)
from .serialize import load_plan, plan_from_dict, plan_to_dict, save_plan
from .splitter import split_by_cost
from .strategy import PartitioningStrategy, PlanRequest

#: Registry used by the high-level API: name -> constructor.
STRATEGY_REGISTRY = {
    DomainPartitioner.name: DomainPartitioner,
    UniSpacePartitioner.name: UniSpacePartitioner,
    DDrivenPartitioner.name: DDrivenPartitioner,
    CDrivenPartitioner.name: CDrivenPartitioner,
    DMTPartitioner.name: DMTPartitioner,
    MetricSafePartitioner.name: MetricSafePartitioner,
}

#: Strategies whose plans stay exact under any metric (the rectangle
#: strategies assume Euclidean boxes and r-expansions).
METRIC_SAFE_STRATEGIES = (MetricSafePartitioner.name,)

__all__ = [
    "Partition",
    "PartitionPlan",
    "PartitioningStrategy",
    "PlanRequest",
    "DomainPartitioner",
    "UniSpacePartitioner",
    "DDrivenPartitioner",
    "CDrivenPartitioner",
    "DMTPartitioner",
    "MetricSafePartitioner",
    "MetricSafePlan",
    "STRATEGY_REGISTRY",
    "METRIC_SAFE_STRATEGIES",
    "split_by_cost",
    "plan_to_dict",
    "plan_from_dict",
    "save_plan",
    "load_plan",
]
