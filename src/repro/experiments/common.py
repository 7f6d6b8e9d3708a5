"""Shared experiment-harness utilities.

Each ``figN`` module exposes ``run(scale=..., seed=...) -> dict`` returning
``{"figure": ..., "rows": [...], "notes": ...}`` and the harness prints the
same rows/series the paper reports.  ``scale`` multiplies dataset sizes so
the full study can be run small (benchmarks, CI) or large (EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Sequence

from ..mapreduce import ClusterConfig, Counters

__all__ = [
    "EXPERIMENT_CLUSTER",
    "cost_summary",
    "format_table",
    "print_report",
    "timed",
]

#: The cluster model used by all experiments: 10 nodes x (4 map + 4 reduce)
#: slots.  A scaled-down version of the paper's 40x(8+8) testbed so that
#: the experiment reducer counts (16) saturate the slots the same way.
EXPERIMENT_CLUSTER = ClusterConfig(
    nodes=10,
    map_slots_per_node=4,
    reduce_slots_per_node=4,
    hdfs_block_records=4096,
)


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def cost_summary(result) -> Dict[str, float]:
    """Deterministic scalars of one :class:`~repro.core.PipelineResult`.

    Counter totals use :meth:`Counters.total` over the counters merged
    (chained) across every job of the run — these are the exact-match
    quantities the CI benchmark smoke step gates on.
    """
    merged = Counters()
    for job in result.run.jobs:
        merged.merge(job.counters)
    return {
        "map_units": result.map_units,
        "reduce_units": result.reduce_units,
        "total_units": result.map_units + result.reduce_units,
        "n_outliers": len(result.outlier_ids),
        "shuffle_records": result.run.total_shuffle_records(),
        "support_records": merged.get("dod", "support_records"),
        "dod_counter_total": merged.total("dod"),
        "skew_ratio": result.load_imbalance,
    }


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], precision: int = 4
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def print_report(result: Mapping) -> None:
    """Pretty-print one figure's result dict.

    Rows with different key sets (e.g. Fig. 9's state vs. region series)
    are printed as separate tables, in order of first appearance.
    """
    print(f"\n=== {result['figure']} ===")
    rows = list(result.get("rows", []))
    while rows:
        headers = list(rows[0].keys())
        group = [r for r in rows if list(r.keys()) == headers]
        rows = [r for r in rows if list(r.keys()) != headers]
        print(format_table(headers, [[r[h] for h in headers] for r in group]))
        if rows:
            print()
    for note in result.get("notes", []):
        print(f"  * {note}")
