"""Benchmark matrix runner behind ``repro bench``.

The matrix is fixed so results stay comparable run over run: for each
detector, one serial (in-process) run plus one parallel (process-pool)
run, each repeated ``repeats`` times with the **minimum** wall time
reported (min-of-N is the standard noise filter for microbenchmarks —
the minimum is the run least disturbed by the OS).

Each ``BENCH_<label>.json`` carries three kinds of numbers:

* **deterministic** — outlier count + SHA-256 of the sorted outlier ids,
  ``distance_evals``, cost units.  Identical on every machine; the CI
  gate compares them exactly, and any divergence between cells is a
  correctness bug, not a perf regression.
* **machine-local walls** — min/all wall seconds and throughput.  Never
  compared across machines.
* **same-machine numbers** — the parallel cells' per-task dispatch
  cost, reported but not gated, and the python/numpy kernel speedup
  ratio.  The ratio is dimensionless and roughly portable, so the CI
  gate checks it against the checked-in baseline with a one-sided
  tolerance (a *faster* numpy kernel is never a regression), and it
  additionally has an absolute floor
  (:data:`KERNEL_SPEEDUP_FLOOR`): the vectorized backend must stay at
  least that many times faster than the scalar oracle on the
  reduce-side detection work it vectorizes.

The matrix's kernel axis runs on the **serial** cells only (one per
backend in ``kernels``): kernels change per-task arithmetic, not
dispatch, so serial runs isolate the effect while the parallel cells
stay on the default backend.

The **tier axis** works the same way: non-exact tiers in ``tiers`` add
one serial cell each per detector on the default kernel.  Tier cells
carry two extra deterministic fields — ``tier_residue_fraction`` (the
share of points the certification pass could not clear) and
``tier_certification_bound`` — and their ``outliers_hash`` must equal
the exact cells' (verdicts are tier-invariant), which the
``identical_outliers`` gate enforces.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from ..core import detect_outliers
from ..data import region_dataset
from ..detectors import METRIC_GENERIC_DETECTORS
from ..kernels import make_kernel
from ..mapreduce import (
    ClusterConfig,
    Counters,
    make_runtime,
)
from ..params import OutlierParams

__all__ = [
    "BenchConfig",
    "KERNEL_SPEEDUP_FLOOR",
    "run_bench",
    "check_against",
    "save_bench",
    "load_bench",
]

SCHEMA_VERSION = 2

#: Absolute one-sided floor for the serial python/numpy per-task wall
#: ratio: the vectorized kernel must stay at least this many times
#: faster than the scalar oracle on reduce-side detection work.
KERNEL_SPEEDUP_FLOOR = 3.0


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark invocation's knobs.

    The defaults are the fig8-scale acceptance workload: the MA region at
    base_n=6000 (the scale=1.0 setting of
    :mod:`repro.experiments.fig8`), r=2.0 / k=12, four workers.
    ``quick()`` shrinks everything for the CI smoke gate.
    """

    label: str = "fig8"
    region: str = "MA"
    base_n: int = 6_000
    r: float = 2.0
    k: int = 12
    strategy: str = "DMT"
    detectors: tuple = ("nested_loop", "cell_based", "proximity_graph")
    #: The parallel cells' dispatch transport: ("shm",), the only one, or
    #: () for a serial-only matrix.
    transports: tuple = ("shm",)
    #: Distance backends for the serial kernel axis; parallel cells all
    #: run on the last entry (the production default).
    kernels: tuple = ("python", "numpy")
    #: Detection tiers for the serial tier axis; everything beyond
    #: "exact" joins the workload identity (so pre-existing exact-only
    #: baselines keep their workload dict byte-for-byte).
    tiers: tuple = ("exact", "fast")
    workers: int = 4
    repeats: int = 5
    n_partitions: int = 16
    n_reducers: int = 8
    seed: int = 7
    nodes: int = 4
    #: Distance metric spec; "euclidean" is the default and is omitted
    #: from the workload dict so pre-existing baselines compare clean.
    metric: str = "euclidean"
    #: HDFS block size in records — one map task per block, so this sets
    #: map-side parallelism (the paper ties map tasks to block count).
    block_records: int = 250

    @classmethod
    def quick(cls, **overrides) -> "BenchConfig":
        """Small matrix for the CI regression gate (~seconds, not minutes)."""
        defaults = dict(
            label="smoke", base_n=1_500, detectors=("nested_loop",),
            workers=2, repeats=2, n_partitions=8, n_reducers=4,
            block_records=250, tiers=("exact",),
        )
        defaults.update(overrides)
        return cls(**defaults)


def _outliers_hash(outlier_ids) -> str:
    blob = ",".join(str(i) for i in sorted(outlier_ids)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _merged_counters(result) -> Counters:
    merged = Counters()
    for job in result.run.jobs:
        merged.merge(job.counters)
    return merged


def _run_cell(
    config: BenchConfig,
    dataset,
    detector: str,
    runtime_kind: str,
    kernel: str,
    log=None,
    tier: str = "exact",
) -> Dict[str, Any]:
    """One matrix cell: ``repeats`` detection runs, min-of-N wall."""
    params = OutlierParams(r=config.r, k=config.k)
    walls: List[float] = []
    detect_walls: List[float] = []
    reduce_walls: List[float] = []
    kernel_walls: List[float] = []
    tstats_all: List[Dict[str, Any]] = []
    last = None
    for _ in range(config.repeats):
        cluster = ClusterConfig(
            nodes=config.nodes,
            hdfs_block_records=config.block_records,
        )
        runtime = make_runtime(
            cluster,
            workers=config.workers if runtime_kind == "parallel" else 0,
        )
        if runtime_kind == "serial":
            # A shared Kernel instance: serial tasks run in-process, so
            # every partition's scan accumulates into one wall_seconds —
            # backend-body time only, the kernel-speedup numerator.
            # (Parallel tasks run in worker processes, where instance
            # state does not come back; those cells pass the name.)
            kernel_spec = make_kernel(kernel)
        else:
            kernel_spec = kernel
        # One runtime per repeat, closed inside the timed region: a
        # parallel cell's wall holds one pool start and one shutdown,
        # and ``transport_totals`` below means "this repeat".
        start = time.perf_counter()
        with runtime:
            last = detect_outliers(
                dataset, params,
                strategy=config.strategy, detector=detector,
                n_partitions=config.n_partitions,
                n_reducers=config.n_reducers,
                cluster=cluster, runtime=runtime, seed=config.seed,
                kernel=kernel_spec,
                metric=(
                    None if config.metric == "euclidean" else config.metric
                ),
                tier=tier,
            )
        walls.append(time.perf_counter() - start)
        detect_walls.append(last.detect_wall)
        reduce_walls.append(sum(last.run.reduce_task_costs("wall")))
        if runtime_kind == "serial":
            kernel_walls.append(kernel_spec.wall_seconds)
        # The runtime accumulates dispatch stats over *every* job it
        # ran — planning included — which per-job results undercount
        # (the planning JobResult is discarded by the strategy).
        totals = dict(getattr(runtime, "transport_totals", None) or {})
        if totals:
            tstats_all.append(totals)
    counters = _merged_counters(last)
    # Counters and outliers are deterministic across repeats; dispatch
    # timing is not, so keep the min-dispatch repeat (same min-of-N
    # noise filter as the wall times — byte/task counts are identical
    # in every repeat, only the seconds differ).
    tstats = (
        min(tstats_all, key=lambda s: s["dispatch_seconds"])
        if tstats_all else {}
    )
    wall = min(walls)
    n_reduce_tasks = len(last.run.reduce_task_costs("wall"))
    cell = {
        "runtime": runtime_kind,
        "transport": runtime.transport_label,
        "detector": detector,
        "kernel": kernel,
        "workers": config.workers if runtime_kind == "parallel" else 0,
        "repeats": config.repeats,
        "wall_seconds": wall,
        "wall_seconds_all": walls,
        "detect_wall_seconds": min(detect_walls),
        "reduce_task_wall_seconds": min(reduce_walls),
        "throughput_points_per_s": (
            dataset.n / wall if wall > 0 else 0.0
        ),
        "n_outliers": len(last.outlier_ids),
        "outliers_hash": _outliers_hash(last.outlier_ids),
        "distance_evals": counters.get("dod", "distance_evals"),
        "cost_units": last.map_units + last.reduce_units,
        "shuffle_records": last.run.total_shuffle_records(),
    }
    if config.metric != "euclidean":
        cell["metric"] = config.metric
    if tier != "exact":
        cell["tier"] = tier
    if last.certification is not None:
        # Deterministic tier effectiveness: what fraction of points the
        # certification pass left for the exact residue machinery, and
        # the witness bound it certified against.
        cell["tier_residue_fraction"] = (
            last.certification.residue_fraction
        )
        cell["tier_certification_bound"] = last.certification.bound
    graph_certified = counters.get("graph", "certified")
    graph_residue = counters.get("graph", "residue")
    if graph_certified or graph_residue:
        # Deterministic proximity-graph effectiveness: the fraction of
        # core points the K-neighbor graph could NOT certify and that
        # fell through to the exact residue scan.
        cell["residue_fraction"] = graph_residue / (
            graph_certified + graph_residue
        )
    if kernel_walls:
        # Backend-body wall (Kernel.wall_seconds): exactly the work the
        # backends implement differently, so the python/numpy speedup
        # is measured here — end-to-end and even per-task walls dilute
        # it with planning, record assembly, and tracing overhead both
        # backends share.
        cell["kernel_wall_seconds"] = min(kernel_walls)
        cell["kernel_wall_per_task_us"] = (
            min(kernel_walls) / n_reduce_tasks * 1e6
            if n_reduce_tasks else 0.0
        )
    if tstats:
        cell["transport_stats"] = tstats
        tasks = tstats.get("tasks", 0)
        cell["dispatch_per_task_us"] = (
            tstats["dispatch_seconds"] / tasks * 1e6 if tasks else 0.0
        )
    if log is not None:
        tag = "" if tier == "exact" else f" tier={tier}"
        log(
            f"  {runtime_kind:<8} {cell['transport']:<7} {detector:<12} "
            f"{kernel:<7} {wall:8.3f}s  outliers={cell['n_outliers']}"
            f"{tag}"
        )
    return cell


def run_bench(config: BenchConfig, log=None) -> Dict[str, Any]:
    """Run the full matrix; return the ``BENCH_<label>.json`` payload."""
    dataset = region_dataset(
        config.region, base_n=config.base_n, seed=config.seed
    )
    if log is not None:
        log(
            f"bench '{config.label}': {config.region} n={dataset.n} "
            f"r={config.r} k={config.k} strategy={config.strategy} "
            f"workers={config.workers} repeats={config.repeats}"
        )
    runs: List[Dict[str, Any]] = []
    default_kernel = config.kernels[-1]
    detectors = config.detectors
    if config.metric != "euclidean":
        skipped = [
            d for d in detectors if d not in METRIC_GENERIC_DETECTORS
        ]
        detectors = tuple(
            d for d in detectors if d in METRIC_GENERIC_DETECTORS
        )
        if skipped and log is not None:
            # Never a silent cap: the matrix shrank, say so.
            log(
                f"  skipping {', '.join(skipped)}: Euclidean-only under "
                f"metric {config.metric!r}"
            )
    for detector in detectors:
        for kernel in config.kernels:
            runs.append(
                _run_cell(config, dataset, detector, "serial", kernel, log)
            )
        for tier in config.tiers:
            if tier == "exact":
                continue  # the kernel axis already covers exact
            runs.append(
                _run_cell(
                    config, dataset, detector, "serial", default_kernel,
                    log, tier=tier,
                )
            )
        if config.transports:
            runs.append(
                _run_cell(
                    config, dataset, detector, "parallel", default_kernel,
                    log,
                )
            )
    workload = {
        "region": config.region,
        "n_points": dataset.n,
        "r": config.r,
        "k": config.k,
        "strategy": config.strategy,
        "n_partitions": config.n_partitions,
        "n_reducers": config.n_reducers,
        "workers": config.workers,
        "seed": config.seed,
        "block_records": config.block_records,
        "kernels": list(config.kernels),
    }
    if config.metric != "euclidean":
        workload["metric"] = config.metric
    if tuple(config.tiers) != ("exact",):
        workload["tiers"] = list(config.tiers)
    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "workload": workload,
        "runs": runs,
        "derived": _derive(runs, config, detectors),
    }


def _derive(
    runs: List[Dict[str, Any]],
    config: BenchConfig,
    detectors: tuple | None = None,
) -> Dict[str, Any]:
    """Cross-cell summaries: outlier agreement, dispatch cost, speedups."""
    derived: Dict[str, Any] = {"per_detector": {}}
    identical = True
    for detector in (detectors if detectors is not None
                     else config.detectors):
        cells = [r for r in runs if r["detector"] == detector]
        hashes = {c["outliers_hash"] for c in cells}
        identical &= len(hashes) == 1
        entry: Dict[str, Any] = {
            "identical_outliers": len(hashes) == 1,
        }
        overhead = {
            c["transport"]: c["dispatch_per_task_us"]
            for c in cells if "dispatch_per_task_us" in c
        }
        if overhead:
            entry["dispatch_per_task_us"] = overhead
        # Kernel/dispatch summaries compare exact-tier cells only; the
        # tier axis gets its own summary below.
        serial_cells = [
            c for c in cells
            if c["runtime"] == "serial"
            and c.get("tier", "exact") == "exact"
        ]
        serial = next(
            (
                c for c in serial_cells
                if c["kernel"] == config.kernels[-1]
            ),
            serial_cells[0] if serial_cells else None,
        )
        if serial is not None:
            entry["speedup_vs_serial"] = {
                c["transport"]:
                    serial["wall_seconds"] / c["wall_seconds"]
                    if c["wall_seconds"] > 0 else 0.0
                for c in cells if c["runtime"] == "parallel"
            }
        kernel_walls = {
            c["kernel"]: c["kernel_wall_per_task_us"]
            for c in serial_cells if "kernel_wall_per_task_us" in c
        }
        if kernel_walls:
            entry["kernel_wall_per_task_us"] = kernel_walls
        if kernel_walls.get("python") and kernel_walls.get("numpy"):
            entry["kernel_speedup_ratio"] = (
                kernel_walls["python"] / kernel_walls["numpy"]
            )
        tier_cells = {
            c.get("tier", "exact"): c
            for c in cells
            if c["runtime"] == "serial"
            and c["kernel"] == config.kernels[-1]
        }
        if len(tier_cells) > 1:
            entry["tier_wall_seconds"] = {
                tier: c["wall_seconds"]
                for tier, c in sorted(tier_cells.items())
            }
            fast = tier_cells.get("fast")
            exact_cell = tier_cells.get("exact")
            if fast is not None and exact_cell is not None:
                if fast["wall_seconds"] > 0:
                    entry["tier_speedup"] = (
                        exact_cell["wall_seconds"]
                        / fast["wall_seconds"]
                    )
                if "tier_residue_fraction" in fast:
                    entry["tier_residue_fraction"] = (
                        fast["tier_residue_fraction"]
                    )
        derived["per_detector"][detector] = entry
    derived["identical_outliers"] = identical
    return derived


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def check_against(
    result: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Compare a fresh bench result against a checked-in baseline.

    Returns a list of human-readable problems (empty = gate passes):

    * deterministic fields (outlier hash/count, ``distance_evals``, cost
      units, shuffle volume) must match **exactly** per matrix cell;
    * the per-detector ``kernel_speedup_ratio`` (serial python / numpy
      backend-body wall per task) must not regress below
      ``baseline * (1 - tolerance)`` — one-sided, because a faster
      kernel is an improvement, not a deviation — *and*, whenever the
      baseline itself records at least
      :data:`KERNEL_SPEEDUP_FLOOR`, an absolute floor at that value —
      once a workload has demonstrated the vectorized backend earning
      3x over the scalar oracle, dropping below it means the kernel
      layer lost its reason to exist (toy workloads whose baseline never
      reached the floor only get the relative check);
    * every detector must keep ``identical_outliers`` true.

    Absolute wall times and throughput are machine-local and never
    compared.  Neither is the per-task dispatch cost: a sub-millisecond
    wall, it is stored but not gated.
    """
    problems: List[str] = []
    if result.get("workload") != baseline.get("workload"):
        problems.append(
            "workload mismatch: baseline "
            f"{baseline.get('workload')} != run {result.get('workload')}"
        )
        return problems  # nothing else is comparable

    def key(cell):
        return (
            cell["runtime"], cell["transport"], cell["detector"],
            cell.get("kernel", ""), cell.get("tier", "exact"),
        )

    base_cells = {key(c): c for c in baseline.get("runs", [])}
    run_cells = {key(c): c for c in result.get("runs", [])}
    if set(base_cells) != set(run_cells):
        problems.append(
            f"matrix mismatch: baseline cells {sorted(base_cells)} != "
            f"run cells {sorted(run_cells)}"
        )
        return problems

    exact_fields = (
        "n_outliers", "outliers_hash", "distance_evals", "cost_units",
        "shuffle_records", "residue_fraction",
        "tier_residue_fraction", "tier_certification_bound",
    )
    for cell_key, base in base_cells.items():
        fresh = run_cells[cell_key]
        for fld in exact_fields:
            if base.get(fld) != fresh.get(fld):
                problems.append(
                    f"{'/'.join(cell_key)}: {fld} baseline "
                    f"{base.get(fld)} != run {fresh.get(fld)}"
                )

    base_per = baseline.get("derived", {}).get("per_detector", {})
    run_per = result.get("derived", {}).get("per_detector", {})
    for detector, base_entry in base_per.items():
        run_entry = run_per.get(detector, {})
        if not run_entry.get("identical_outliers", False):
            problems.append(
                f"{detector}: outlier sets differ across matrix cells"
            )
        base_kernel_ratio = base_entry.get("kernel_speedup_ratio")
        run_kernel_ratio = run_entry.get("kernel_speedup_ratio")
        if base_kernel_ratio is not None:
            floor = base_kernel_ratio * (1.0 - tolerance)
            if run_kernel_ratio is None or run_kernel_ratio < floor:
                problems.append(
                    f"{detector}: kernel_speedup_ratio regressed to "
                    f"{run_kernel_ratio} (< {floor:.2f} = baseline "
                    f"{base_kernel_ratio:.2f} - {tolerance:.0%})"
                )
        if (
            base_kernel_ratio is not None
            and base_kernel_ratio >= KERNEL_SPEEDUP_FLOOR
            and (
                run_kernel_ratio is None
                or run_kernel_ratio < KERNEL_SPEEDUP_FLOOR
            )
        ):
            problems.append(
                f"{detector}: kernel_speedup_ratio {run_kernel_ratio} "
                f"below the absolute floor {KERNEL_SPEEDUP_FLOOR:.1f}x "
                "(numpy backend must stay well ahead of the scalar "
                "oracle)"
            )
    return problems


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------
def save_bench(result: Dict[str, Any], path: str) -> None:
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)
