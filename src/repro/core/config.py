"""One resolved run configuration for every entry point.

:func:`~repro.core.detect_outliers`,
:func:`~repro.recovery.run_checkpointed` and
:class:`~repro.streaming.StreamingDetector` accept the same keyword
arguments; :meth:`RunConfig.resolve` turns them into one frozen value —
the only place that normalizes the metric, checks detector legality,
degrades the strategy, applies the tier rules and derives the sizing
defaults.  Everything below the public signatures takes the config.
See the "Run configuration" table in ``docs/api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..detectors import DETECTOR_REGISTRY, METRIC_GENERIC_DETECTORS
from ..geometry import Rect
from ..kernels import resolve_kernel
from ..mapreduce import ClusterConfig
from ..metrics import MetricUnsupported, resolve_metric
from ..params import OutlierParams
from ..partitioning import (
    METRIC_SAFE_STRATEGIES,
    STRATEGY_REGISTRY,
    MetricSafePartitioner,
    PartitioningStrategy,
    PlanRequest,
)
from ..tiers import resolve_tier

__all__ = ["RunConfig", "resolve_strategy"]


def resolve_strategy(strategy) -> PartitioningStrategy:
    """Accept a strategy instance or a registry name (case-insensitive)."""
    if isinstance(strategy, PartitioningStrategy):
        return strategy
    if isinstance(strategy, str):
        for name, cls in STRATEGY_REGISTRY.items():
            if name.lower() == strategy.lower():
                return cls()
        raise ValueError(
            f"unknown strategy {strategy!r}; known: "
            f"{sorted(STRATEGY_REGISTRY)}"
        )
    raise TypeError("strategy must be a name or a PartitioningStrategy")


@dataclass(frozen=True)
class RunConfig:
    """What a detection run was asked to do, resolved exactly once.

    ``metric`` is ``None`` for Euclidean (the default path stays
    byte-identical to a metric-unaware run) and a registry spec
    otherwise.  ``kernel`` is carried as passed — a name, a shared
    :class:`~repro.kernels.Kernel` instance, or ``None`` — because
    backends are observationally identical; it never joins
    :meth:`identity`.  ``tier`` is the *requested* tier (``"auto"``
    resolves against measured density in the tier prelude).
    ``n_buckets``/``sample_rate`` stay ``None`` until the cardinality is
    known (:meth:`sized`); a stream re-derives them at every plan build.
    """

    params: OutlierParams
    strategy: PartitioningStrategy
    detector: str
    n_partitions: int
    n_reducers: int
    n_buckets: Optional[int]
    sample_rate: Optional[float]
    seed: int
    kernel: Any
    metric: Optional[str]
    tier: str

    @classmethod
    def resolve(
        cls,
        params: OutlierParams,
        strategy="DMT",
        detector: str = "nested_loop",
        cluster: Optional[ClusterConfig] = None,
        n: Optional[int] = None,
        n_partitions: Optional[int] = None,
        n_reducers: Optional[int] = None,
        n_buckets: Optional[int] = None,
        sample_rate: Optional[float] = None,
        seed: int = 1,
        kernel=None,
        metric: Optional[str] = None,
        tier: Optional[str] = None,
        plan=None,
    ) -> "RunConfig":
        """Resolve the entry points' keyword arguments.

        The arguments are the whole request: ``None`` means the
        library default, never a value read from the environment.  An
        unknown kernel backend fails here, not inside a reducer
        subprocess.  ``n`` is the dataset cardinality when known;
        ``plan`` a precomputed partition plan, whose own support-area
        convention and metric then apply.
        Every rejection fires before any job runs.
        """
        resolve_kernel(kernel)
        metric_obj = resolve_metric(metric)
        metric = None if metric_obj.is_euclidean else metric_obj.spec()
        strategy = resolve_strategy(strategy)
        if detector not in DETECTOR_REGISTRY:
            raise ValueError(
                f"unknown detector {detector!r}; known: "
                f"{sorted(DETECTOR_REGISTRY)}"
            )
        if metric is not None:
            if detector not in METRIC_GENERIC_DETECTORS:
                raise MetricUnsupported(
                    f"detector {detector!r} assumes Euclidean geometry; "
                    f"metric-generic detectors: "
                    f"{sorted(METRIC_GENERIC_DETECTORS)}"
                )
            if strategy.name not in METRIC_SAFE_STRATEGIES:
                # Graceful degrade: grid tactics are meaningless in a
                # general metric space, so plan with pivot balls.
                strategy = MetricSafePartitioner(metric=metric)
            if plan is not None:
                _check_plan_metric(plan, metric)
        if n_reducers is None:
            cluster = cluster or ClusterConfig()
            n_reducers = min(cluster.reduce_slots, 64)
        if n_partitions is None:
            n_partitions = 2 * n_reducers
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if n_reducers < 1:
            raise ValueError("need at least one reducer")
        config = cls(
            params=params, strategy=strategy, detector=detector,
            n_partitions=int(n_partitions), n_reducers=int(n_reducers),
            n_buckets=n_buckets, sample_rate=sample_rate, seed=int(seed),
            kernel=kernel, metric=metric, tier=resolve_tier(tier),
        )
        if config.tier != "exact" and not config.uses_support_area(plan):
            if config.tier == "fast":
                raise ValueError(
                    "the fast tier pre-clears points inside the "
                    "supporting-area framework; the Domain baseline "
                    "has no supporting areas — use --tier exact or "
                    "a supporting-area strategy"
                )
            config = replace(config, tier="exact")  # auto stays exact
        return config if n is None else config.sized(n)

    def uses_support_area(self, plan=None) -> bool:
        """Whether detection runs inside the supporting-area framework
        (a precomputed plan's own convention wins over the strategy's)."""
        if plan is not None:
            return plan.strategy != "Domain"
        return self.strategy.uses_support_area

    def sized(self, n: int) -> "RunConfig":
        """Fill the cardinality-dependent defaults: ~n/20 mini buckets
        (within [64, 1024]) and a sample rate targeting ~2000 points
        (the paper's 0.5% is calibrated for billions of records)."""
        n_buckets, sample_rate = self.n_buckets, self.sample_rate
        if n_buckets is None:
            n_buckets = int(min(1024, max(64, n // 20)))
        if sample_rate is None:
            sample_rate = min(0.5, max(0.005, 2000 / max(n, 1)))
        return replace(self, n_buckets=n_buckets, sample_rate=sample_rate)

    def plan_request(self, domain: Rect) -> PlanRequest:
        """The planning inputs of a :meth:`sized` config."""
        return PlanRequest(
            domain=domain,
            params=self.params,
            n_partitions=self.n_partitions,
            n_reducers=self.n_reducers,
            n_buckets=self.n_buckets,
            sample_rate=self.sample_rate,
            seed=self.seed,
            metric=self.metric,
        )

    def identity(self, tier: str = "exact") -> Dict[str, Any]:
        """What makes two runs over the same data *the same run*.

        With the dataset fingerprint added this is the checkpoint
        manifest's config dict; it keys the service's warm-plan memo,
        and a stream restore compares its ``r, k, strategy, detector,
        metric, tier`` entries.  ``tier`` is the tier the run resolved
        to — omit it for the tier-independent part (plans are).  The
        metric and the tier join only when non-default, so Euclidean /
        exact manifests keep the config dict they always had.
        """
        identity: Dict[str, Any] = {
            "r": float(self.params.r),
            "k": int(self.params.k),
            "strategy": self.strategy.name,
            "detector": self.detector,
            "seed": self.seed,
            "n_partitions": self.n_partitions,
            "n_reducers": self.n_reducers,
        }
        if self.metric is not None:
            identity["metric"] = self.metric
        if tier != "exact":
            identity["tier"] = tier
        return identity


def _check_plan_metric(plan, metric: str) -> None:
    plan_metric = getattr(plan, "metric_spec", None)
    if plan_metric is None:
        raise MetricUnsupported(
            "precomputed rectangle plans assume Euclidean geometry; "
            "build the plan with the MetricSafe strategy for "
            "non-Euclidean metrics"
        )
    if plan_metric != metric:
        raise ValueError(
            f"plan was built under metric {plan_metric!r} but the run "
            f"requested {metric!r}"
        )
