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

DMT reads the sample once more after DSHC, as one :class:`BucketTable` of
the occupied mini buckets.  Every DSHC cluster is evaluated against it in
one batched pass, and each round of halves the cost refinement makes in
one more; a pass yields each rect's core and supporting-area bucket lists,
from which ``bucketwise_best_algorithm`` picks the rect's tactic, once
per candidate partition.  The lists hold the floats a walk of one rect's
buckets yields, in its order, minus the empty buckets no bucketwise model
counts, so the plan is the one such walks give.
"""

from __future__ import annotations

import itertools

import numpy as np

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

#: DMT's per-reducer cost budget is ``total / n_reducers`` times
#: ``1 + BUDGET_SLACK``.
BUDGET_SLACK = 0.6


class _SampledStrategy(PartitioningStrategy):
    """Shared sampling plumbing."""

    def _stats(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> MiniBucketStats:
        # The sampling job runs in the driver: through a pool its
        # millisecond of work paid two dispatched phases and three
        # segments, several times the work itself.
        return collect_minibucket_stats(
            runtime.serial_twin(),
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

        def select(core, support):
            return bucketwise_best_algorithm(
                core, request.params, ndim, self.candidates,
                support_buckets=support,
            )

        pieces = _refine_by_cost(
            [(c.rect, float(c.num_points)) for c in clustering.clusters],
            BucketTable(stats), request.params.r, select,
            request.n_reducers,
        )
        partitions = [
            Partition(
                pid=pid,
                rect=rect,
                est_points=n,
                est_cost=est_cost,
                algorithm=algorithm,
            )
            for pid, (rect, n, (algorithm, est_cost)) in enumerate(pieces)
        ]
        alloc = allocate([p.est_cost for p in partitions], request.n_reducers)
        return PartitionPlan(
            domain=request.domain,
            partitions=partitions,
            allocation=alloc.as_table(),
            strategy=self.name,
        )


def _refine_by_cost(
    pieces: list,
    table: "BucketTable",
    r: float,
    select,
    n_reducers: int,
) -> list:
    """Halve any piece whose cost exceeds the per-reducer budget,
    re-estimating child cardinalities from the mini buckets.

    ``pieces`` are ``(rect, n)``; ``select(core, support)`` is a rect's
    ``(algorithm, cost)`` from its bucket lists (``table.cover``).
    Returns ``(rect, n, (algorithm, cost))`` per final piece.  The
    pieces are costed in one table pass, then each round of halves in
    one more; the result is in the order of a work stack that pops a
    piece and pushes its left half, then its right.

    The budget is ``total_cost / n_reducers`` with ``BUDGET_SLACK``
    head-room, so the allocator can still pack unevenly sized pieces.
    """
    nodes = list(pieces)
    picks = [select(*cover) for cover in table.cover([p[0] for p in nodes], r)]
    total = sum(cost for _, cost in picks)
    if total <= 0:
        return [(*node, pick) for node, pick in zip(nodes, picks)]
    budget = max(total / n_reducers * (1.0 + BUDGET_SLACK), total * 1e-6)
    min_widths = [w * 1.5 for w in table.grid.cell_widths]

    def settled(i):
        rect = nodes[i][0]
        return picks[i][1] <= budget or all(
            hi - lo <= mw for lo, hi, mw in zip(rect.low, rect.high, min_widths)
        )

    halves = {}  # node -> its (left, right) nodes
    split = [i for i in range(len(nodes)) if not settled(i)]
    while split:
        children = [half for i in split for half in _halve(nodes[i][0])]
        covers = table.cover(children, r)
        for i, left, right, (core, _) in zip(
            split, children[::2], children[1::2], covers[::2]
        ):
            n = nodes[i][1]
            n_left = min(_points(core), n)
            halves[i] = (len(nodes), len(nodes) + 1)
            nodes += [(left, n_left), (right, n - n_left)]
        picks += [select(*cover) for cover in covers]
        split = [
            i for i in range(len(nodes) - len(children), len(nodes))
            if not settled(i)
        ]
    out = []
    work = list(range(len(pieces)))
    while work:
        i = work.pop()
        if i in halves:
            work.extend(halves[i])
        else:
            out.append((*nodes[i], picks[i]))
    return out


def _halve(rect: Rect) -> tuple[Rect, Rect]:
    """``rect`` cut in two at the middle of its longest axis."""
    axis = max(range(rect.ndim), key=lambda i: rect.high[i] - rect.low[i])
    mid = (rect.low[axis] + rect.high[axis]) / 2.0
    return (
        Rect(
            rect.low,
            tuple(mid if i == axis else h for i, h in enumerate(rect.high)),
        ),
        Rect(
            tuple(mid if i == axis else lo for i, lo in enumerate(rect.low)),
            rect.high,
        ),
    )


def _points(core) -> float:
    """The estimated points of a rect from its core bucket list: the
    ``n_b`` added left to right."""
    total = 0.0
    for n_b, _ in core:
        total += n_b
    return total


class BucketTable:
    """The sample's occupied mini buckets, read once per plan.

    Rows are the buckets with a non-zero count, by ascending flat index
    (``flats``): ``counts``, ``low`` / ``high`` (faces), ``widths``
    (``high - low``) and ``areas`` (the widths' product in axis order).
    :meth:`cover` evaluates many rectangles against them in one pass.

    A rect covers the fraction ``max(0, min(hi, chi) - max(lo, clo)) /
    width`` of a bucket along each axis (1.0 along a zero-width axis:
    nothing to cover), and the product of those factors in axis order;
    it covers only the cells :meth:`UniformGrid.cell_spans` gives it.  A
    bucket partially covered contributes in proportion to the covered
    fraction (uniformity within a bucket).  Every element goes through
    the float operations, in the order, that a walk of one rect's
    buckets takes.
    """

    def __init__(self, stats: MiniBucketStats) -> None:
        grid = self.grid = stats.grid
        counts = np.asarray(stats.counts, dtype=float)
        self.flats = np.flatnonzero(counts)
        self.counts = counts[self.flats]
        self._row_of = np.full(grid.n_cells, -1, dtype=np.int64)
        self._row_of[self.flats] = np.arange(self.flats.size)
        # Per axis, one array over the rows.
        faces = [
            np.asarray(axis_faces, dtype=float).reshape(-1, 2)[cells].T
            for axis_faces, cells in zip(
                grid.faces, np.unravel_index(self.flats, grid.shape)
            )
        ]
        self.low = [low for low, _ in faces]
        self.high = [high for _, high in faces]
        self.widths = [high - low for low, high in faces]
        self.areas = _product(self.widths)

    def cover(self, rects, r: float) -> list:
        """Per rect, ``(core, support)``: lists of ``(n_b, area_b)`` for
        the occupied buckets the rect covers and for its supporting area,
        the ``r``-expansion minus the rect itself (Def. 3.3), in which a
        bucket weighs its coverage by the expansion minus its coverage by
        the rect.  Both lists are in ascending flat index; an entry of
        zero weight is left out."""
        if r < 0:
            raise ValueError("expansion radius must be non-negative")
        m, ndim = len(rects), self.grid.domain.ndim
        corners = np.fromiter(
            itertools.chain.from_iterable(rect.low + rect.high for rect in rects),
            dtype=float, count=2 * ndim * m,
        ).reshape(m, 2 * ndim)
        low, high = corners[:, :ndim], corners[:, ndim:]
        # Box i < m is rect i; box m + i its r-expansion.
        boxes = (np.concatenate([low, low - r]), np.concatenate([high, high + r]))
        spans = self.grid.cell_spans(*boxes)
        owner, cells = _box_cells(
            np.minimum(spans[0][:m], spans[0][m:]),
            np.maximum(spans[1][:m], spans[1][m:]),
        )
        rows = self._row_of[sum(
            axis_cells * stride
            for axis_cells, stride in zip(cells, self.grid.strides)
        )]
        occupied = np.flatnonzero(rows >= 0)
        owner, rows = owner[occupied], rows[occupied]
        cells = [axis_cells[occupied] for axis_cells in cells]
        faces = [
            (lo[rows], hi[rows], width[rows])
            for lo, hi, width in zip(self.low, self.high, self.widths)
        ]
        (in_core, by_core), (in_grown, by_grown) = [
            _coverage(boxes, spans, box, cells, faces)
            for box in (owner, owner + m)
        ]
        weight = by_grown - by_core
        counts, areas = self.counts[rows], self.areas[rows]

        def per_rect(keep, share):
            share = share[keep]
            return _split(owner[keep], m, list(zip(
                (counts[keep] * share).tolist(), (areas[keep] * share).tolist()
            )))

        return list(zip(
            per_rect(in_core & (by_core > 0), by_core),
            per_rect(in_grown & (weight > 0), weight),
        ))


def _box_cells(first, last) -> tuple[np.ndarray, list]:
    """Every cell of each box ``[first[i], last[i]]`` of cell indices,
    as ``(owner, cells)``: the boxes in order, each box's cells in
    row-major (ascending flat) order, ``cells`` one array per axis."""
    sizes = last - first + 1
    counts = np.prod(sizes, axis=1)
    owner = np.repeat(np.arange(counts.size), counts)
    local = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cells = []
    for axis in reversed(range(sizes.shape[1])):
        size = sizes[:, axis][owner]
        cells.append(first[:, axis][owner] + local % size)
        local //= size
    return owner, cells[::-1]


def _coverage(boxes, spans, box, cells, faces):
    """For each bucket ``i`` (cell ``cells[.][i]``, faces ``faces[.][i]``)
    and box ``box[i]`` of ``boxes``: whether the cell is in the box's
    cell ``spans``, and the fraction of the bucket the box covers."""
    inside, fractions = True, []
    for axis, (cell, (clo, chi, width)) in enumerate(zip(cells, faces)):
        first, last = (index[:, axis][box] for index in spans)
        inside = inside & (first <= cell) & (cell <= last)
        lo, hi = (corner[:, axis][box] for corner in boxes)
        covered = np.maximum(0.0, np.minimum(hi, chi) - np.maximum(lo, clo))
        positive = width > 0
        fractions.append(
            np.where(positive, covered / np.where(positive, width, 1.0), 1.0)
        )
    return inside, _product(fractions)


def _product(factors) -> np.ndarray:
    """The element-wise product of ``factors``, left to right."""
    factors = iter(factors)
    out = np.array(next(factors), dtype=float)
    for factor in factors:
        out = out * factor
    return out


def _split(owners: np.ndarray, m: int, entries: list) -> list:
    """``entries`` (sorted by owner) as ``m`` lists, one per owner."""
    bounds = np.searchsorted(owners, np.arange(m + 1)).tolist()
    return [entries[a:b] for a, b in zip(bounds, bounds[1:])]
