"""Partitioning strategy interface (the map-side half of Sec. VI-A).

A strategy turns a dataset (plus the outlier parameters and a target
partition/reducer count) into a :class:`~repro.partitioning.base.
PartitionPlan`.  Strategies that need data statistics run the sampling
pre-processing job on the provided runtime; strategies that don't (Domain,
uniSpace) build their plan from the domain geometry alone — which is
exactly why they appear with zero pre-processing cost in Fig. 10(a).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

from ..params import OutlierParams
from ..geometry import Rect
from ..mapreduce import LocalRuntime
from .base import PartitionPlan

__all__ = ["PlanRequest", "PartitioningStrategy"]


@dataclass(frozen=True)
class PlanRequest:
    """Everything a strategy needs to build a plan.

    ``metric`` is the metric spec of the run (``None`` means Euclidean);
    grid strategies ignore it — the pipeline swaps them for the
    metric-safe strategy before planning a non-Euclidean run — while
    :class:`~repro.partitioning.metric_strategies.MetricSafePartitioner`
    partitions under it.  The sizes are checked where they are resolved,
    in :meth:`repro.core.config.RunConfig.resolve`.
    """

    domain: Rect
    params: OutlierParams
    n_partitions: int
    n_reducers: int
    n_buckets: int = 1024
    sample_rate: float = 0.005
    seed: int = 1
    metric: str | None = None


class PartitioningStrategy(abc.ABC):
    """Base class for the five strategies of the experimental study."""

    #: Identifier used in experiment tables ("Domain", "uniSpace", ...).
    name: str = "strategy"

    #: Whether plans carry supporting areas (False only for Domain, which
    #: pays a second MapReduce job instead).
    uses_support_area: bool = True

    def __eq__(self, other) -> bool:
        """Strategies are configuration: same class, same settings."""
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(type(self))

    @abc.abstractmethod
    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        """Build the partition plan for ``input_data``.

        ``input_data`` is the points as one
        :class:`~repro.mapreduce.RecordBatch` — ``.ids``, ``.points``
        (used only by strategies that sample).
        """

    def timed_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        """Build a plan, recording wall-clock pre-processing time."""
        start = time.perf_counter()
        plan = self.build_plan(runtime, input_data, request)
        plan.preprocess_cost = time.perf_counter() - start
        return plan
