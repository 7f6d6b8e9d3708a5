"""The three statistics-driven strategies: DDriven, CDriven, and DMT.

All three run the mini-bucket sampling job (Sec. V-A stage 1) and then
generate their plan centrally, differing in what they balance:

* **DDriven** balances estimated *cardinality* — the traditional load
  -balancing assumption the paper overturns;
* **CDriven** balances estimated *cost* under one fixed detection
  algorithm, using the Sec. IV cost models;
* **DMT** (the paper's full approach) clusters buckets by density with
  DSHC, selects the best algorithm per partition (Corollary 4.3), estimates
  each partition's cost under *its own* algorithm, and bin-packs those
  costs across reducers.
"""

from __future__ import annotations

import itertools
import math

from ..allocation import allocate
from ..costmodel import estimate_cost
from ..costmodel.bucketwise import bucketwise_best_algorithm
from ..dshc import DSHCConfig, run_dshc
from ..geometry import Rect
from ..mapreduce import LocalRuntime
from ..sampling import MiniBucketStats, collect_minibucket_stats
from .base import Partition, PartitionPlan
from .splitter import region_rect, split_by_cost
from .strategy import PartitioningStrategy, PlanRequest

__all__ = ["DDrivenPartitioner", "CDrivenPartitioner", "DMTPartitioner"]


class _SampledStrategy(PartitioningStrategy):
    """Shared sampling plumbing."""

    def _stats(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> MiniBucketStats:
        return collect_minibucket_stats(
            runtime,
            input_data,
            request.domain,
            n_buckets=request.n_buckets,
            rate=request.sample_rate,
            seed=request.seed,
        )


class DDrivenPartitioner(_SampledStrategy):
    """Equal-cardinality partitions; cardinality-balanced allocation."""

    name = "DDriven"

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        stats = self._stats(runtime, input_data, request)
        regions = split_by_cost(
            stats, lambda n, area: n, request.n_partitions
        )
        partitions = []
        for pid, region in enumerate(regions):
            rect = region_rect(stats, region.lo, region.hi)
            est_points = float(
                sum(stats.counts[f] for f in region.buckets(stats.grid.shape))
            )
            partitions.append(
                Partition(pid=pid, rect=rect, est_points=est_points,
                          est_cost=est_points)
            )
        alloc = allocate(
            [p.est_points for p in partitions], request.n_reducers
        )
        return PartitionPlan(
            domain=request.domain,
            partitions=partitions,
            allocation=alloc.as_table(),
            strategy=self.name,
        )


class CDrivenPartitioner(_SampledStrategy):
    """Equal-cost partitions under one fixed detection algorithm."""

    name = "CDriven"

    def __init__(self, algorithm: str = "nested_loop") -> None:
        self.algorithm = algorithm

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        stats = self._stats(runtime, input_data, request)
        ndim = request.domain.ndim

        def model(n: float, area: float) -> float:
            return estimate_cost(
                self.algorithm, n, area, request.params, ndim
            )

        regions = split_by_cost(stats, model, request.n_partitions)
        partitions = []
        for pid, region in enumerate(regions):
            rect = region_rect(stats, region.lo, region.hi)
            flats = list(region.buckets(stats.grid.shape))
            est_points = float(sum(stats.counts[f] for f in flats))
            partitions.append(
                Partition(pid=pid, rect=rect, est_points=est_points,
                          est_cost=model(est_points, rect.area),
                          algorithm=self.algorithm)
            )
        alloc = allocate([p.est_cost for p in partitions], request.n_reducers)
        return PartitionPlan(
            domain=request.domain,
            partitions=partitions,
            allocation=alloc.as_table(),
            strategy=self.name,
        )


class DMTPartitioner(_SampledStrategy):
    """Density-aware multi-tactic: DSHC partitions + per-partition
    algorithm plan + cost-balanced allocation (the full Sec. V approach).

    After DSHC clustering, any cluster whose estimated cost (under its own
    best algorithm) would dominate a reducer is recursively halved along
    its longest axis — DSHC's ``T_max`` bounds cluster *cardinality* (the
    reducer memory constraint), but makespan balancing additionally needs
    no single partition to exceed the per-reducer cost budget.
    """

    name = "DMT"

    def __init__(
        self,
        dshc_config: DSHCConfig | None = None,
        candidates: tuple[str, ...] = ("nested_loop", "cell_based"),
    ) -> None:
        self.dshc_config = dshc_config or DSHCConfig()
        self.candidates = candidates

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> PartitionPlan:
        stats = self._stats(runtime, input_data, request)
        clustering = run_dshc(stats, self.dshc_config)
        ndim = request.domain.ndim

        cache: dict = {}

        def best_for(rect):
            # Memoized: refinement re-evaluates the same rects repeatedly.
            hit = cache.get(rect)
            if hit is None:
                hit = bucketwise_best_algorithm(
                    list(_rect_buckets(stats, rect)),
                    request.params,
                    ndim,
                    self.candidates,
                    support_buckets=list(
                        _support_buckets(stats, rect, request.params.r)
                    ),
                )
                cache[rect] = hit
            return hit

        pieces = [
            (c.rect, float(c.num_points)) for c in clustering.clusters
        ]
        pieces = _refine_by_cost(
            pieces, stats, lambda rect, n: best_for(rect)[1],
            request.n_reducers,
        )
        partitions = []
        for pid, (rect, n) in enumerate(pieces):
            algorithm, est_cost = best_for(rect)
            partitions.append(
                Partition(
                    pid=pid,
                    rect=rect,
                    est_points=n,
                    est_cost=est_cost,
                    algorithm=algorithm,
                )
            )
        alloc = allocate([p.est_cost for p in partitions], request.n_reducers)
        return PartitionPlan(
            domain=request.domain,
            partitions=partitions,
            allocation=alloc.as_table(),
            strategy=self.name,
        )


def _refine_by_cost(
    pieces: list,
    stats,
    cost_of,
    n_reducers: int,
    slack: float = 0.6,
) -> list:
    """Halve any piece whose cost (``cost_of(rect, n)``) exceeds the
    per-reducer budget, re-estimating child cardinalities from the mini
    buckets.

    ``slack`` adds head-room above ``total_cost / n_reducers`` so the
    allocator can still pack unevenly sized pieces.
    """
    total = sum(cost_of(rect, n) for rect, n in pieces)
    if total <= 0:
        return pieces
    budget = max(total / n_reducers * (1.0 + slack), total * 1e-6)
    out = []
    work = list(pieces)
    grid = stats.grid
    min_widths = [w * 1.5 for w in grid.cell_widths]
    while work:
        rect, n = work.pop()
        too_small = all(
            hi - lo <= mw
            for lo, hi, mw in zip(rect.low, rect.high, min_widths)
        )
        if cost_of(rect, n) <= budget or too_small:
            out.append((rect, n))
            continue
        axis = max(
            range(rect.ndim), key=lambda i: rect.high[i] - rect.low[i]
        )
        mid = (rect.low[axis] + rect.high[axis]) / 2.0
        left = Rect(
            rect.low,
            tuple(mid if i == axis else h for i, h in enumerate(rect.high)),
        )
        right = Rect(
            tuple(mid if i == axis else lo for i, lo in enumerate(rect.low)),
            rect.high,
        )
        n_left = min(_estimate_points(stats, left), n)
        work.append((left, n_left))
        work.append((right, n - n_left))
    return out


def _axis_cover(grid, *rects):
    """Walk the mini buckets that intersect ``rects[0]`` (in
    ``grid.cells_within`` order), yielding per bucket
    ``(offsets, widths, *fractions)``: one entry per axis of the cell's
    row-major offset, of its width and — one tuple per rect — of the
    fraction of the cell the rect covers.

    Coverage of a box by a box is a product over axes, so everything is
    computed once per axis cell, not once per bucket: a bucket's flat
    index is ``sum(offsets)``, its area ``math.prod(widths)`` and its
    covered fraction ``math.prod`` of a rect's factors, in axis order.  A
    zero-width axis has nothing to cover and contributes the factor 1.0.
    The faces and strides are the grid's own, computed once per grid.
    """
    offsets, widths, fractions = [], [], [[] for _ in rects]
    for axis, (cells, axis_faces, stride) in enumerate(
        zip(grid._axis_ranges(rects[0]), grid.faces, grid.strides)
    ):
        faces = axis_faces[cells.start:cells.stop]
        offsets.append(range(cells.start * stride, cells.stop * stride, stride))
        widths.append([chi - clo for clo, chi in faces])
        for rect, out in zip(rects, fractions):
            lo, hi = rect.low[axis], rect.high[axis]
            out.append([
                max(0.0, min(hi, chi) - max(lo, clo)) / width
                if width > 0 else 1.0
                for (clo, chi), width in zip(faces, widths[-1])
            ])
    return zip(
        *(itertools.product(*per_axis)
          for per_axis in (offsets, widths, *fractions))
    )


def _estimate_points(stats, rect) -> float:
    """Estimated points inside ``rect`` from mini-bucket statistics.

    Buckets partially covered by ``rect`` contribute proportionally to the
    covered fraction of their area (uniformity within a bucket).
    """
    total = 0.0
    counts = stats.count_list
    for offsets, _, fractions in _axis_cover(stats.grid, rect):
        count = counts[sum(offsets)]
        if count == 0:
            continue
        total += count * math.prod(fractions)
    return total


def _rect_buckets(stats, rect):
    """Yield ``(n_b, area_b)`` for the mini buckets overlapping ``rect``.

    Partially covered buckets contribute proportionally to the covered
    area fraction (uniformity within a bucket).
    """
    counts = stats.count_list
    for offsets, widths, fractions in _axis_cover(stats.grid, rect):
        overlap = math.prod(fractions)
        if overlap <= 0:
            continue
        count = counts[sum(offsets)]
        yield count * overlap, math.prod(widths) * overlap


def _support_buckets(stats, rect, r):
    """Yield ``(n_b, area_b)`` for the supporting area of ``rect``.

    The supporting area is the ``r``-expansion minus the rect itself
    (Def. 3.3); each bucket contributes its coverage by the expansion
    minus its coverage by the core rect.
    """
    counts = stats.count_list
    for offsets, widths, by_expanded, by_core in _axis_cover(
        stats.grid, rect.expand(r), rect
    ):
        count = counts[sum(offsets)]
        if count == 0:
            continue
        w = math.prod(by_expanded) - math.prod(by_core)
        if w <= 0:
            continue
        yield count * w, math.prod(widths) * w
