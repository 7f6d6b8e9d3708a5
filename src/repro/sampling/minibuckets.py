"""Mini-bucket statistics (stage 1 of the DMT pre-processing job, Sec. V-A).

DMT discretizes the domain into a fine grid of *mini buckets* and estimates
the per-bucket point count from a small random sample (default rate 0.5%,
matching the paper).  The statistics are computed by a MapReduce job:

* **map**: Bernoulli-sample each block and emit ``(bucket_id, count)``
  for its kept points (so the shuffle carries one record per bucket per
  map task, not one per sampled point);
* **reduce** (single reducer, as in the paper's Fig. 6): aggregate into the
  final bucket table, scaled back up by the sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..geometry import Rect, UniformGrid
from ..mapreduce import (
    LocalRuntime,
    MapReduceJob,
    Mapper,
    Reducer,
    TaskContext,
)

__all__ = [
    "MiniBucketStats",
    "assemble_bucket_counts",
    "collect_minibucket_stats",
    "splitmix64",
]


def splitmix64(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 hash: uniform, deterministic, seedable.

    Pure uint64 arithmetic (wrap-around on overflow), vectorized.  Both
    the Bernoulli sampler below and the sensitivity sampler in
    :mod:`repro.tiers` rank points with this hash, so their selections
    are reproducible across block layouts and runtimes.
    """
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


@dataclass(frozen=True)
class MiniBucketStats:
    """Estimated per-bucket counts of the full dataset."""

    grid: UniformGrid
    counts: np.ndarray  # (n_buckets,) float — estimated full-data counts
    sample_rate: float
    sampled_points: int

    def __post_init__(self) -> None:
        if self.counts.shape != (self.grid.n_cells,):
            raise ValueError("counts must have one entry per bucket")

    @cached_property
    def count_list(self) -> list:
        """``counts`` as Python floats, read once for per-bucket loops."""
        return np.asarray(self.counts, dtype=float).tolist()

    @property
    def estimated_total(self) -> float:
        return float(self.counts.sum())

    def bucket_rect(self, flat: int) -> Rect:
        return self.grid.cell_rect(self.grid.unflatten(flat))

    def bucket_density(self, flat: int) -> float:
        """Estimated points per unit area for one bucket.

        Zero-area buckets (degenerate domains where every coordinate of the
        bucket collapses) return ``inf`` — the infinitely-dense limit, the
        same convention as :func:`repro.costmodel.density`.  Callers that
        feed densities into cost or tier-selection comparisons must clamp
        through the cost models (which map the limit to finite costs); raw
        ``inf`` must not reach ``select_algorithm``/``select_tier``.
        """
        rect = self.bucket_rect(flat)
        area = rect.area
        return float(self.counts[flat]) / area if area > 0 else float("inf")

    def nonzero_buckets(self) -> np.ndarray:
        return np.nonzero(self.counts)[0]


class _SampleMapper(Mapper):
    """Deterministic Bernoulli sampling keyed on the point id.

    Hashing the id (rather than drawing from a per-task RNG) makes the
    sample independent of HDFS block layout, which keeps plans reproducible
    across block-size choices.
    """

    def __init__(self, grid: UniformGrid, rate: float, seed: int) -> None:
        if not 0 < rate <= 1:
            raise ValueError("sampling rate must be in (0, 1]")
        self.grid = grid
        self.rate = rate
        self.seed = seed

    def map(self, key, value, ctx: TaskContext):
        pid, point = key, value
        if not self._keep(pid):
            return
        ctx.counters.incr("sampling", "kept")
        bucket = self.grid.flat_index(self.grid.cell_of(point))
        yield bucket, 1

    def map_block(self, records, ctx: TaskContext):
        """Vectorized path: sample the block and pre-aggregate counts.

        One ``(bucket, count)`` pair per occupied bucket: the per-record
        ``(bucket, 1)`` pairs of :meth:`map`, summed per bucket.
        """
        if not records:
            return []
        keep = self._keep_mask(records.ids)
        kept = int(keep.sum())
        ctx.counters.incr("sampling", "kept", kept)
        if kept == 0:
            return []
        flats = self.grid.flat_indices(
            self.grid.cells_of(records.points[keep])
        )
        counts = np.bincount(flats, minlength=self.grid.n_cells)
        occupied = np.flatnonzero(counts)
        # ``tolist`` materializes python ints, as the per-record path's
        # sums would be.
        return list(zip(occupied.tolist(), counts[occupied].tolist()))

    def _keep(self, pid: int) -> bool:
        x = self._splitmix(np.asarray([pid], dtype=np.uint64))[0]
        return (int(x) / 2**64) < self.rate

    def _keep_mask(self, pids: np.ndarray) -> np.ndarray:
        hashes = self._splitmix(pids)
        return (hashes / float(2**64)) < self.rate

    def _splitmix(self, x: np.ndarray) -> np.ndarray:
        return splitmix64(x, self.seed)


class _CollectReducer(Reducer):
    def reduce(self, key, values, ctx: TaskContext):
        yield key, sum(values)


def assemble_bucket_counts(outputs, n_cells: int, rate: float) -> np.ndarray:
    """Aggregate reducer outputs ``(bucket, count)`` into the bucket table.

    Counts *accumulate* (``+=``) so the assembly stays correct if a bucket
    key ever arrives more than once — e.g. from a substrate whose shuffle
    does not group keys globally.  The current runtimes group each key in
    exactly one reducer, so duplicates indicate a shuffle bug; we assert on
    them rather than silently keeping only the last record (the old
    behavior, which was correct only while a key could never repeat).
    """
    counts = np.zeros(n_cells, dtype=float)
    seen: set = set()
    for bucket, count in outputs:
        assert bucket not in seen, (
            f"duplicate bucket key {bucket!r} in sampling job output; "
            "shuffle no longer groups keys globally"
        )
        seen.add(bucket)
        counts[bucket] += count / rate
    return counts


def collect_minibucket_stats(
    runtime: LocalRuntime,
    input_data,
    domain: Rect,
    n_buckets: int = 1024,
    rate: float = 0.005,
    seed: int = 1,
    n_reducers: int = 1,
) -> MiniBucketStats:
    """Run the sampling job and assemble :class:`MiniBucketStats`.

    ``input_data`` is the points' :class:`~repro.mapreduce.RecordBatch`.
    ``n_buckets`` is the approximate mini-bucket count; the grid
    is balanced across dimensions.  ``n_reducers`` defaults to the paper's
    centralized single reducer (Fig. 6); callers that already hold a sized
    cluster (the tier layer) may spread the aggregation — the assembled
    table is identical either way.
    """
    grid = UniformGrid.with_cells(domain, n_buckets)
    job = MapReduceJob(
        name="dmt-preprocess-sampling",
        mapper=_SampleMapper(grid, rate, seed),
        reducer=_CollectReducer(),
        n_reducers=n_reducers,
    )
    result = runtime.run(job, input_data)
    counts = assemble_bucket_counts(result.outputs, grid.n_cells, rate)
    kept = result.counters.get("sampling", "kept")
    return MiniBucketStats(grid, counts, rate, kept)
