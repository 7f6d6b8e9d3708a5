"""Recovery benchmark: what does resuming a killed run actually save?

``repro bench --recovery`` measures the cost model of the checkpoint
layer.  For one workload it runs:

* an **uninterrupted** checkpointed detection (the baseline wall, which
  also prices the journal's per-commit fsync against a plain
  :func:`~repro.core.detect_outliers` run — the *journal overhead*);
* for each crash fraction ``f``: a run aborted after ``f`` of the
  partition commits, then a **resume** of the same checkpoint directory
  — the resumed wall over the baseline wall is the *resume overhead*,
  and the replayed-partition share is the *work saved*.

Outlier hashes, partition counts, and identical-result flags are
deterministic; wall times and the derived ratios are machine-local.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from ..core import detect_outliers
from ..data import region_dataset
from ..mapreduce import ClusterConfig, make_runtime
from ..params import OutlierParams
from ..recovery import SimulatedCrash, run_checkpointed
from .harness import SCHEMA_VERSION, _outliers_hash

__all__ = ["RecoveryBenchConfig", "run_recovery_bench"]


@dataclass(frozen=True)
class RecoveryBenchConfig:
    """Knobs of one recovery benchmark invocation."""

    label: str = "recovery"
    region: str = "MA"
    base_n: int = 6_000
    r: float = 2.0
    k: int = 12
    strategy: str = "DMT"
    detector: str = "nested_loop"
    n_partitions: int = 16
    n_reducers: int = 8
    #: Fractions of partition commits after which the driver "crashes".
    crash_fractions: tuple = (0.25, 0.5, 0.75)
    workers: int = 0
    seed: int = 7
    nodes: int = 4

    @classmethod
    def quick(cls, **overrides) -> "RecoveryBenchConfig":
        """Small workload for the CI smoke invocation."""
        defaults = dict(
            label="recovery_smoke", base_n=1_500,
            n_partitions=8, n_reducers=4, crash_fractions=(0.5,),
        )
        defaults.update(overrides)
        return cls(**defaults)


def _checkpointed(config, dataset, params, checkpoint_dir, runtime,
                  **kwargs):
    return run_checkpointed(
        dataset, params, checkpoint_dir,
        strategy=config.strategy, detector=config.detector,
        runtime=runtime, cluster=runtime.cluster,
        n_partitions=config.n_partitions,
        n_reducers=config.n_reducers,
        seed=config.seed, **kwargs,
    )


def run_recovery_bench(
    config: RecoveryBenchConfig, log=None
) -> Dict[str, Any]:
    """Run the crash/resume matrix; return the report payload."""
    dataset = region_dataset(
        config.region, base_n=config.base_n, seed=config.seed
    )
    params = OutlierParams(r=config.r, k=config.k)
    if log is not None:
        log(
            f"recovery bench '{config.label}': {config.region} "
            f"n={dataset.n} partitions={config.n_partitions} "
            f"r={config.r} k={config.k}"
        )

    workdir = tempfile.mkdtemp(prefix="repro-recovery-bench-")
    # One runtime for every run of the matrix, crashed ones included: a
    # job that raises leaves its runtime usable.
    cluster = ClusterConfig(nodes=config.nodes)
    runtime = make_runtime(cluster, config.workers)
    try:
        # Plain run: the no-durability reference wall.
        start = time.perf_counter()
        plain = detect_outliers(
            dataset, params,
            strategy=config.strategy, detector=config.detector,
            n_partitions=config.n_partitions,
            n_reducers=config.n_reducers,
            cluster=cluster, runtime=runtime, seed=config.seed,
        )
        plain_wall = time.perf_counter() - start

        # Uninterrupted checkpointed run: plain + journal overhead.
        base_dir = os.path.join(workdir, "baseline")
        start = time.perf_counter()
        baseline = _checkpointed(
            config, dataset, params, base_dir, runtime
        )
        baseline_wall = time.perf_counter() - start
        n_parts = baseline.n_partitions
        if log is not None:
            log(
                f"  uninterrupted: plain {plain_wall:.3f}s, "
                f"journaled {baseline_wall:.3f}s "
                f"({n_parts} partition commits)"
            )

        rows: List[Dict[str, Any]] = []
        for fraction in config.crash_fractions:
            commits = max(1, min(n_parts - 1, int(n_parts * fraction)))
            crash_dir = os.path.join(workdir, f"crash-{commits}")
            start = time.perf_counter()
            try:
                _checkpointed(
                    config, dataset, params, crash_dir, runtime,
                    abort_after_commits=commits,
                )
                raise AssertionError(
                    "crash injection did not fire"
                )  # pragma: no cover
            except SimulatedCrash:
                pass
            crashed_wall = time.perf_counter() - start
            start = time.perf_counter()
            resumed = _checkpointed(
                config, dataset, params, crash_dir, runtime
            )
            resume_wall = time.perf_counter() - start
            identical = resumed.outlier_ids == baseline.outlier_ids
            rows.append({
                "crash_fraction": fraction,
                "commits_before_crash": commits,
                "partitions_replayed":
                    len(resumed.replayed_partitions),
                "partitions_executed":
                    len(resumed.executed_partitions),
                "crashed_wall_seconds": crashed_wall,
                "resume_wall_seconds": resume_wall,
                "resume_over_full_ratio": (
                    resume_wall / baseline_wall
                    if baseline_wall > 0 else 0.0
                ),
                "work_saved_fraction": (
                    len(resumed.replayed_partitions) / n_parts
                    if n_parts else 0.0
                ),
                "identical_outliers": identical,
                "outliers_hash": _outliers_hash(resumed.outlier_ids),
            })
            if log is not None:
                log(
                    f"  crash@{commits}/{n_parts} commits: resume "
                    f"{resume_wall:.3f}s vs full {baseline_wall:.3f}s, "
                    f"replayed {len(resumed.replayed_partitions)}, "
                    f"identical={identical}"
                )
    finally:
        runtime.close()
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "mode": "recovery",
        "workload": {
            "region": config.region,
            "n_points": dataset.n,
            "r": config.r,
            "k": config.k,
            "strategy": config.strategy,
            "n_partitions": config.n_partitions,
            "n_reducers": config.n_reducers,
            "workers": config.workers,
            "seed": config.seed,
        },
        "crashes": rows,
        "derived": {
            "identical_outliers": all(
                r["identical_outliers"] for r in rows
            ) and baseline.outlier_ids == plain.outlier_ids,
            "n_partition_commits": n_parts,
            "outliers_hash": _outliers_hash(baseline.outlier_ids),
            "plain_wall_seconds": plain_wall,
            "journaled_wall_seconds": baseline_wall,
            "journal_overhead_ratio": (
                baseline_wall / plain_wall if plain_wall > 0 else 0.0
            ),
            "mean_resume_over_full_ratio": (
                sum(r["resume_over_full_ratio"] for r in rows)
                / len(rows) if rows else 0.0
            ),
        },
    }
