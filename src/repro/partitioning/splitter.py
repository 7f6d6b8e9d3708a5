"""Weighted recursive splitting of the mini-bucket grid.

DDriven and CDriven both carve the domain into ``m`` partitions by
recursively splitting the heaviest region at its weighted median — they
differ only in the *weight*: estimated point count for DDriven
(cardinality-based balancing) versus estimated detection cost for CDriven
(cost-based balancing, the paper's contribution).

Splits always land on mini-bucket boundaries, so the resulting rectangles
tile the domain exactly (no floating-point seams) and per-partition
statistics are exact sums of bucket statistics.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..geometry import Rect
from ..sampling import MiniBucketStats

__all__ = ["split_by_cost", "region_rect"]


@dataclass(frozen=True)
class _Region:
    """A box of bucket indices: ``lo[i] <= idx[i] < hi[i]``."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def splittable(self) -> bool:
        return any(h - l > 1 for l, h in zip(self.lo, self.hi))

    def buckets(self, shape: tuple[int, ...]):
        """All flat bucket indices inside the region."""
        ranges = [range(l, h) for l, h in zip(self.lo, self.hi)]
        for idx in itertools.product(*ranges):
            flat = 0
            for i, s in zip(idx, shape):
                flat = flat * s + i
            yield flat


def region_rect(stats: MiniBucketStats, lo, hi) -> Rect:
    """Domain rect of a bucket-index box (corner cells' outer faces)."""
    grid = stats.grid
    low_cell = grid.cell_rect(tuple(lo))
    high_cell = grid.cell_rect(tuple(h - 1 for h in hi))
    return Rect(low_cell.low, high_cell.high)


def split_by_cost(
    stats: MiniBucketStats,
    cost_fn,
    m: int,
) -> list[_Region]:
    """Split the bucket grid into up to ``m`` regions of balanced cost.

    ``cost_fn(n, area) -> float`` is the partition-level cost model (the
    paper's Sec. IV lemmas, or simply ``n`` for cardinality balancing).
    Greedy heaviest-first: pop the costliest splittable region and cut it
    along its longest axis at the boundary minimizing the heavier child's
    cost, which directly minimizes the eventual makespan contribution.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    grid = stats.grid
    shape = grid.shape
    counts = np.asarray(stats.counts, dtype=float).reshape(shape)
    widths = grid.cell_widths
    bucket_area = float(np.prod(widths))

    def region_cost(region: _Region) -> float:
        slices = tuple(slice(l, h) for l, h in zip(region.lo, region.hi))
        n = float(counts[slices].sum())
        area = bucket_area * np.prod(
            [h - l for l, h in zip(region.lo, region.hi)]
        )
        return float(cost_fn(n, area))

    counter = itertools.count()
    root = _Region((0,) * len(shape), tuple(shape))
    heap = [(-region_cost(root), next(counter), root)]
    done: list[_Region] = []
    while heap and len(heap) + len(done) < m:
        _, _, region = heapq.heappop(heap)
        cut = _best_cost_cut(counts, region, widths, bucket_area, cost_fn)
        if cut is None:
            done.append(region)
            continue
        axis, pos = cut
        left = _Region(
            region.lo,
            tuple(pos if i == axis else h for i, h in enumerate(region.hi)),
        )
        right = _Region(
            tuple(pos if i == axis else l for i, l in enumerate(region.lo)),
            region.hi,
        )
        heapq.heappush(heap, (-region_cost(left), next(counter), left))
        heapq.heappush(heap, (-region_cost(right), next(counter), right))
    return done + [r for _, _, r in heap]


def _best_cost_cut(
    counts: np.ndarray,
    region: _Region,
    cell_widths,
    bucket_area: float,
    cost_fn,
) -> tuple[int, int] | None:
    """The cut minimizing ``max(cost(left), cost(right))``.

    Evaluated along the region's domain-longest splittable axis using
    prefix sums of bucket counts (child areas are linear in the cut
    position, so each boundary is O(1) to score).
    """
    extents = [
        (h - l) * w for (l, h, w) in zip(region.lo, region.hi, cell_widths)
    ]
    axes = sorted(range(len(extents)), key=lambda i: extents[i],
                  reverse=True)
    slices = tuple(slice(l, h) for l, h in zip(region.lo, region.hi))
    sub = counts[slices]
    cross_section = np.prod(
        [h - l for l, h in zip(region.lo, region.hi)]
    )
    for axis in axes:
        length = region.hi[axis] - region.lo[axis]
        if length <= 1:
            continue
        other_axes = tuple(i for i in range(sub.ndim) if i != axis)
        marginal = sub.sum(axis=other_axes)
        prefix = np.cumsum(marginal)
        total = prefix[-1]
        slab_area = bucket_area * cross_section / length
        best_j, best_score = None, float("inf")
        for j in range(length - 1):
            n_left = float(prefix[j])
            area_left = slab_area * (j + 1)
            n_right = float(total - n_left)
            area_right = slab_area * (length - j - 1)
            score = max(
                cost_fn(n_left, area_left), cost_fn(n_right, area_right)
            )
            if score < best_score:
                best_j, best_score = j, score
        if best_j is None:
            continue
        return axis, region.lo[axis] + best_j + 1
    return None
