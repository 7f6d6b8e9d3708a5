"""End-to-end DOD pipeline (Fig. 6): pre-processing job + detection job.

:func:`detect_outliers` is the library's main entry point.  It

1. hands the runtime the dataset's columns as one record batch, which
   it slices into blocks of ``ClusterConfig.hdfs_block_records`` (one
   map task each),
2. asks the chosen partitioning strategy for a plan (strategies that need
   statistics run the sampling pre-processing job here),
3. runs the detection MapReduce job (or the two-job Domain baseline), and
4. returns the exact outlier id set plus a full timing/cost breakdown.

Timing model
------------
Each phase is reported two ways:

* **simulated** (the headline metric): every task reports deterministic
  *cost units* — distance evaluations plus calibration-weighted index and
  cell operations (:mod:`repro.params`) — modeling the scalar
  per-operation execution the paper's cost lemmas count.  Those task
  costs are scheduled onto the cluster's map/reduce slots and converted
  to seconds at the nominal ``UNIT_SECONDS`` rate.  This is
  machine-independent, reflects parallel execution on the paper's
  40-node cluster, and is what reproduces the figures.
* **wall**: measured in-process seconds per phase (this implementation's
  vectorized numpy kernels have very different constants from a scalar
  implementation, so wall times are reported as a secondary check).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..kernels import resolve_kernel
from ..mapreduce import ClusterConfig, LocalRuntime
from ..observability import RunReport, Span, Tracer
from ..params import JOB_STARTUP_SECONDS, UNIT_SECONDS
from ..tiers import TierCertification
from .config import RunConfig, resolve_strategy
from .dataset import Dataset
from .execute import annotate_tier, run_tier_prelude
from .framework import DetectionRun, _run_baseline, _run_framework
from .outliers import OutlierParams

__all__ = ["PipelineResult", "detect_outliers", "resolve_strategy"]


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    outlier_ids: set[int]
    run: DetectionRun
    strategy: str
    params: OutlierParams
    cluster: ClusterConfig
    preprocess_wall: float = 0.0
    detect_wall: float = 0.0
    trace: Optional[Span] = None
    tier: str = "exact"
    certification: Optional[TierCertification] = None

    @property
    def residue_fraction(self) -> Optional[float]:
        """Deterministic fast-tier residue fraction (``None`` when exact)."""
        if self.certification is None:
            return None
        return self.certification.residue_fraction

    # ------------------------------------------------------------------
    @property
    def map_units(self) -> float:
        """Deterministic map-side cost units across all jobs."""
        return sum(self.run.map_task_costs())

    @property
    def reduce_units(self) -> float:
        """Deterministic reduce-side cost units across all jobs."""
        return sum(self.run.reduce_task_costs())

    @property
    def simulated_map_seconds(self) -> float:
        """Cluster makespan of all map phases (cost units x UNIT_SECONDS)."""
        return UNIT_SECONDS * sum(
            job.simulated_phase_time("map", self.cluster)
            for job in self.run.jobs
        )

    @property
    def simulated_reduce_seconds(self) -> float:
        """Cluster makespan of all reduce phases (cost units x
        UNIT_SECONDS)."""
        return UNIT_SECONDS * sum(
            job.simulated_phase_time("reduce", self.cluster)
            for job in self.run.jobs
        )

    @property
    def job_startup_seconds(self) -> float:
        """Simulated startup cost of the detection job(s).

        The Domain baseline pays this twice (its confirmation job); the
        sampling pre-processing job's overhead is already inside
        ``preprocess_wall``.
        """
        return JOB_STARTUP_SECONDS * len(self.run.jobs)

    @property
    def simulated_total_seconds(self) -> float:
        """End-to-end simulated time: preprocess + startup + map +
        reduce."""
        return (
            self.preprocess_wall
            + self.job_startup_seconds
            + self.simulated_map_seconds
            + self.simulated_reduce_seconds
        )

    def breakdown(self) -> Dict[str, float]:
        """The Fig. 10 bars: per-stage simulated seconds."""
        return {
            "preprocess": self.preprocess_wall,
            "map": self.simulated_map_seconds,
            "reduce": self.simulated_reduce_seconds,
        }

    def reducer_loads(self) -> list[float]:
        """Per-reducer cost units — the load-balance signal."""
        return self.run.reduce_task_costs()

    @property
    def load_imbalance(self) -> float:
        """max / mean reducer load (1.0 = perfectly balanced)."""
        loads = [x for x in self.reducer_loads() if x > 0]
        if not loads:
            return 1.0
        return max(loads) / (sum(loads) / len(loads))

    def report(self, straggler_threshold: float = 2.0) -> RunReport:
        """Aggregate this run into a serializable :class:`RunReport`."""
        return RunReport.from_pipeline(
            self, straggler_threshold=straggler_threshold
        )


def detect_outliers(
    dataset: Dataset,
    params: OutlierParams,
    strategy="DMT",
    detector: str = "nested_loop",
    n_partitions: Optional[int] = None,
    n_reducers: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    runtime: Optional[LocalRuntime] = None,
    n_buckets: Optional[int] = None,
    sample_rate: Optional[float] = None,
    seed: int = 1,
    plan=None,
    tracer: Optional[Tracer] = None,
    kernel: Optional[str] = None,
    metric: Optional[str] = None,
    tier: Optional[str] = None,
) -> PipelineResult:
    """Detect all distance-threshold outliers in ``dataset``.

    ``detector`` is the default centralized algorithm; plans that carry
    their own algorithm plan (CDriven, DMT) override it per partition.
    ``kernel`` picks the distance backend (results are backend-
    independent by the kernel ABI's exactness contract, only wall time
    changes); ``metric`` the distance function, which *defines* the
    answer; ``tier`` the detection tier — the fast tier prepends a
    sensitivity-sampled certification pass that pre-clears the bulk of
    points as inliers, and the outlier set is byte-identical either way
    (see :mod:`repro.tiers`).  Every keyword is resolved once, up front,
    into a :class:`~repro.core.config.RunConfig`: the defaults, the
    sizing formulas and the metric/tier rules (strategy degrade,
    detector legality, the fast tier's need for supporting areas) are
    documented there and in the "Run configuration" table of
    ``docs/api.md``, and every rejection fires before any job runs.

    Passing a precomputed ``plan`` (e.g. one restored via
    ``repro.partitioning.load_plan``) skips the pre-processing job
    entirely; ``strategy`` is then ignored for planning (the plan's own
    ``strategy`` label and support-area convention apply — a plan built by
    the Domain strategy still runs the two-job baseline).

    Every run is traced: the pre-processing and detection jobs' span
    trees are collected under one ``run`` span, returned as
    ``PipelineResult.trace`` (see :mod:`repro.observability`).  Pass a
    ``tracer`` to collect several runs in one place; a ``runtime`` that
    already carries its own tracer keeps it.
    """
    cluster = cluster or ClusterConfig()
    cfg = RunConfig.resolve(
        params, strategy=strategy, detector=detector, cluster=cluster,
        n=dataset.n, n_partitions=n_partitions, n_reducers=n_reducers,
        n_buckets=n_buckets, sample_rate=sample_rate, seed=seed,
        kernel=kernel, metric=metric, tier=tier, plan=plan,
    )
    runtime = runtime or LocalRuntime(cluster)
    tracer = tracer or runtime.tracer or Tracer()

    records = dataset.batch()
    prev_tracer = runtime.tracer
    runtime.tracer = tracer
    try:
        with tracer.span(
            "pipeline", "run",
            r=params.r, k=params.k, n_points=dataset.n,
            n_reducers=cfg.n_reducers,
        ) as run_span:
            uses_support = cfg.uses_support_area(plan)
            if plan is None:
                requested = resolve_strategy(strategy).name
                plan = cfg.strategy.timed_plan(
                    runtime, records, cfg.plan_request(dataset.bounds)
                )
                strategy_name = cfg.strategy.name
            else:
                requested = strategy_name = plan.strategy

            start = time.perf_counter()
            tier_pass = run_tier_prelude(runtime, dataset, cfg)
            if uses_support:
                run = _run_framework(
                    runtime, records, plan, cfg,
                    tier_pass.certified, tier_pass.dropped,
                )
            else:
                run = _run_baseline(runtime, records, plan, cfg)
            if tier_pass.job is not None:
                run.jobs.insert(0, tier_pass.job)
            detect_wall = time.perf_counter() - start

            detect_traces = {
                id(job.trace) for job in run.jobs
                if job.trace is not None
            }
            tier_trace = tier_pass.job and tier_pass.job.trace
            for child in run_span.children:
                if child.kind == "job":
                    if child is tier_trace:
                        child.annotate(stage="tier")
                    else:
                        child.annotate(
                            stage="detect" if id(child) in detect_traces
                            else "preprocess"
                        )
            run_span.annotate(
                strategy=strategy_name,
                kernel=resolve_kernel(cfg.kernel).name,
                n_outliers=len(run.outlier_ids),
            )
            if cfg.metric is not None:
                run_span.annotate(metric=cfg.metric)
            if requested != strategy_name:
                run_span.annotate(strategy_degraded_from=requested)
            annotate_tier(
                run_span, cfg.tier, tier_pass.tier, tier_pass.certification
            )
    finally:
        runtime.tracer = prev_tracer

    return PipelineResult(
        outlier_ids=run.outlier_ids,
        run=run,
        strategy=strategy_name,
        params=params,
        cluster=cluster,
        preprocess_wall=plan.preprocess_cost,
        detect_wall=detect_wall,
        trace=run_span,
        tier=tier_pass.tier,
        certification=tier_pass.certification,
    )
