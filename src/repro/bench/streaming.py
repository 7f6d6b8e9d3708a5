"""Streaming benchmark: incremental micro-batches vs full re-runs.

``repro bench --stream`` plays an append-heavy workload: an initial bulk
load followed by spatially-local micro-batches (streams arrive with
locality — a sensor region, a shard, a time-ordered file).  After every
batch it measures

* the **incremental** wall time (:class:`~repro.streaming.
  StreamingDetector` re-detecting only the dirty partitions), and
* the **full re-run** wall time (a from-scratch
  :func:`~repro.core.detect_outliers` over every point seen so far),

asserts the two outlier sets are identical, and reports per-batch dirty
-partition ratios plus the cumulative speedup.  Outlier hashes and dirty
ratios are deterministic; wall times and the speedup are machine-local.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from ..core import detect_outliers
from ..data import region_dataset
from ..mapreduce import ClusterConfig, make_runtime
from ..params import OutlierParams
from ..streaming import StreamingDetector
from .harness import SCHEMA_VERSION, _outliers_hash

__all__ = ["StreamBenchConfig", "run_stream_bench"]


@dataclass(frozen=True)
class StreamBenchConfig:
    """Knobs of one streaming benchmark invocation."""

    label: str = "stream"
    region: str = "MA"
    base_n: int = 6_000
    r: float = 2.0
    k: int = 12
    strategy: str = "DMT"
    detector: str = "nested_loop"
    #: Fraction of the dataset bulk-loaded before the micro-batches.
    initial_fraction: float = 0.7
    n_batches: int = 6
    workers: int = 0
    n_partitions: int = 16
    n_reducers: int = 8
    drift_threshold: float = 0.25
    seed: int = 7
    nodes: int = 4

    @classmethod
    def quick(cls, **overrides) -> "StreamBenchConfig":
        """Small workload for the CI smoke invocation."""
        defaults = dict(
            label="stream_smoke", base_n=1_500, n_batches=3,
            n_partitions=8, n_reducers=4,
        )
        defaults.update(overrides)
        return cls(**defaults)


def run_stream_bench(
    config: StreamBenchConfig, log=None
) -> Dict[str, Any]:
    """Run the append-heavy workload; return the report payload."""
    dataset = region_dataset(
        config.region, base_n=config.base_n, seed=config.seed
    )
    params = OutlierParams(r=config.r, k=config.k)
    n_initial = int(dataset.n * config.initial_fraction)
    # Micro-batches are contiguous x-slabs of the appended remainder:
    # locality is what makes incremental detection touch few partitions.
    rest = np.arange(n_initial, dataset.n)
    rest = rest[np.argsort(dataset.points[rest, 0], kind="stable")]
    batches = [
        idx for idx in np.array_split(rest, config.n_batches) if idx.size
    ]
    if log is not None:
        log(
            f"stream bench '{config.label}': {config.region} "
            f"n={dataset.n} initial={n_initial} "
            f"batches={len(batches)} r={config.r} k={config.k}"
        )

    cluster = ClusterConfig(nodes=config.nodes)
    # One runtime for the stream and for the full re-runs it is compared
    # with: both sides pay the same (warm) fixed cost per job.
    with make_runtime(cluster, config.workers) as runtime:
        detector = StreamingDetector(
            params,
            strategy=config.strategy,
            detector=config.detector,
            runtime=runtime,
            cluster=cluster,
            n_partitions=config.n_partitions,
            n_reducers=config.n_reducers,
            drift_threshold=config.drift_threshold,
            seed=config.seed,
        )
        detector.ingest(dataset.subset(np.arange(n_initial)))

        rows: List[Dict[str, Any]] = []
        seen = np.arange(n_initial)
        incremental_total = 0.0
        full_total = 0.0
        for batch_no, idx in enumerate(batches, start=1):
            report = detector.ingest(dataset.subset(idx))
            seen = np.concatenate([seen, idx])
            prefix = dataset.subset(seen)
            start = time.perf_counter()
            full = detect_outliers(
                prefix, params,
                strategy=config.strategy, detector=config.detector,
                n_partitions=config.n_partitions,
                n_reducers=config.n_reducers,
                cluster=cluster, runtime=runtime, seed=config.seed,
            )
            full_wall = time.perf_counter() - start
            identical = detector.outlier_ids == full.outlier_ids
            incremental_total += report.wall_seconds
            full_total += full_wall
            rows.append({
                "batch": batch_no,
                "batch_points": int(idx.size),
                "points_seen": int(seen.size),
                "dirty_partitions": report.dirty_partitions,
                "total_partitions": report.total_partitions,
                "dirty_ratio": report.dirty_ratio,
                "cache_hit": report.cache_hit,
                "invalidation_reason": report.invalidation_reason,
                "incremental_wall_seconds": report.wall_seconds,
                "full_rerun_wall_seconds": full_wall,
                "speedup_vs_full": (
                    full_wall / report.wall_seconds
                    if report.wall_seconds > 0 else 0.0
                ),
                "n_outliers": len(report.outlier_ids),
                "outliers_hash": _outliers_hash(report.outlier_ids),
                "identical_outliers": identical,
            })
            if log is not None:
                log(
                    f"  batch {batch_no}: +{idx.size} pts, dirty "
                    f"{report.dirty_partitions}/{report.total_partitions} "
                    f"({report.dirty_ratio:.0%}), incr "
                    f"{report.wall_seconds:.3f}s vs full {full_wall:.3f}s, "
                    f"identical={identical}"
                )

    hits = detector.counters.get("streaming", "plan_cache_hits")
    served = detector.counters.get("streaming", "batches")
    cached_rows = [r for r in rows if r["cache_hit"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "mode": "stream",
        "workload": {
            "region": config.region,
            "n_points": dataset.n,
            "n_initial": n_initial,
            "n_batches": len(batches),
            "r": config.r,
            "k": config.k,
            "strategy": config.strategy,
            "n_partitions": config.n_partitions,
            "n_reducers": config.n_reducers,
            "workers": config.workers,
            "drift_threshold": config.drift_threshold,
            "seed": config.seed,
        },
        "batches": rows,
        "derived": {
            "identical_outliers": all(
                r["identical_outliers"] for r in rows
            ),
            "incremental_total_seconds": incremental_total,
            "full_rerun_total_seconds": full_total,
            "speedup_vs_full": (
                full_total / incremental_total
                if incremental_total > 0 else 0.0
            ),
            "mean_dirty_ratio_on_hits": (
                sum(r["dirty_ratio"] for r in cached_rows)
                / len(cached_rows) if cached_rows else None
            ),
            "plan_cache_hit_rate": hits / served if served else 0.0,
            "streaming_counters": detector.counters.group("streaming"),
        },
    }
