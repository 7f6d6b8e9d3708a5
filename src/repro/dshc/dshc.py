"""DSHC — Density and Spatial-aware Hierarchical Clustering (Sec. V-A).

The DSHC algorithm turns mini-bucket statistics into the DMT partition plan
in a *single scan* of the buckets.  For each incoming bucket it:

1. **looks up** its merging candidates (LMC): clusters that overlap or are
   adjacent to the bucket.  The driver keeps a cell -> cluster table over
   the mini-bucket grid, so the LMC is the set of live owners of the cells
   whose closed boxes touch the bucket — no tree search.  On a grid whose
   cells are narrower than Def. 5.3's tolerance the tree's own search
   answers instead;
2. **filters** the LMC by the merging criteria (Def. 5.2): density
   difference below ``t_diff``, exact rectangular union (Def. 5.3), and
   combined cardinality below ``t_max`` — the reducer main-memory bound;
3. **merges** into the most density-similar candidate and then tries to
   merge the augmented cluster recursively up the tree, or
4. **inserts** the bucket as a new singleton cluster next to its most
   similar (but unmergeable) neighbor, or wherever least enlargement puts
   it.

The AF-tree decides what it always decided: where a cluster is placed, and
so the order of ``tree.clusters()`` (the partition ids) and which of
several equally density-similar candidates wins (the first in that order).

The resulting leaf clusters are pairwise-disjoint rectangles whose union is
the domain — a valid partition plan — with near-uniform density inside each
cluster, which is precisely the property that makes the per-partition cost
models (Sec. IV) accurate.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import List, Optional

from ..geometry import Rect, UniformGrid
from ..geometry.rect import RECT_TOL, forms_rectangle
from ..sampling import MiniBucketStats
from .af import AggregateFeature
from .aftree import AFTree

__all__ = ["DSHCConfig", "DSHCResult", "run_dshc"]

_INF = float("inf")


@dataclass(frozen=True)
class DSHCConfig:
    """Tuning knobs for DSHC.

    ``t_diff_fraction`` expresses the maximum density difference threshold
    ``T_diff`` as a fraction of the overall dataset density; the paper
    leaves the threshold's calibration open, and a relative threshold keeps
    one default meaningful across datasets whose absolute densities differ
    by orders of magnitude.  ``t_max_fraction`` bounds a cluster's points to
    a fraction of the dataset (the paper's reducer main-memory bound).
    """

    t_diff_fraction: float = 0.5
    t_max_fraction: float = 0.15
    max_tree_entries: int = 8

    def __post_init__(self) -> None:
        # ``not x > 0`` refuses NaN too: ``diff >= nan`` is never true, so
        # a NaN threshold would silently switch Def. 5.2's criterion off.
        if not self.t_diff_fraction > 0:
            raise ValueError("t_diff_fraction must be positive")
        if not 0 < self.t_max_fraction <= 1:
            raise ValueError("t_max_fraction must be in (0, 1]")
        if not isinstance(self.max_tree_entries, numbers.Integral):
            raise ValueError("max_tree_entries must be an integer")
        if self.max_tree_entries < 4:
            # AFTree's own bound, checked here so a bad config fails before
            # the sampling job is paid rather than inside build_plan.
            raise ValueError("max_tree_entries must be >= 4")


@dataclass
class DSHCResult:
    """The clusters produced by one DSHC run plus scan statistics."""

    clusters: List[AggregateFeature]
    merges: int
    recursive_merges: int
    t_diff: float
    t_max: float


class _Cluster:
    """One cluster while DSHC runs: Def. 5.1's AF as plain fields, its
    density computed once, plus the mini-bucket cells its box spans —
    ``first`` / ``last``, inclusive per axis.

    Equal by value, as AFs are: on a zero-width axis the tree holds
    value-equal twins, and which one a merge takes does not matter.
    """

    __slots__ = (
        "num_points", "low", "high", "first", "last", "density", "alive",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, num_points, low, high, first, last) -> None:
        self.num_points = num_points
        self.low = low
        self.high = high
        self.first = first
        self.last = last
        # AggregateFeature.density's floats: Rect.area, then the quotient.
        area = math.prod(map(operator.sub, high, low))
        self.density = _INF if area <= 0 else num_points / area
        self.alive = True

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Cluster):
            return NotImplemented
        return (self.num_points, self.low, self.high) == (
            other.num_points, other.low, other.high
        )

    def merge(self, other: "_Cluster") -> "_Cluster":
        """Def. 5.4: ``AggregateFeature.merge``'s floats, operand order
        kept (``min`` / ``max`` keep the first of equal values).  Both
        sides are used up: neither is a merge candidate any more."""
        self.alive = other.alive = False
        return _Cluster(
            self.num_points + other.num_points,
            tuple(map(min, self.low, other.low)),
            tuple(map(max, self.high, other.high)),
            tuple(map(min, self.first, other.first)),
            tuple(map(max, self.last, other.last)),
        )


def _density_difference(a: _Cluster, b: _Cluster) -> float:
    """``AggregateFeature.density_difference``, Def. 5.2 criterion 1."""
    if a.density == _INF and b.density == _INF:
        return 0.0
    return abs(a.density - b.density)


class _CellTable:
    """Mini-bucket cell -> the live cluster whose box holds it.

    Built only for a grid whose every cell is wider than Def. 5.3's
    tolerance (:meth:`for_grid`).  There each axis's faces strictly
    increase and neighbouring cells share one face float, so the cells
    whose closed boxes touch the cells ``first..last`` of an axis are
    ``first - 1..last + 1`` — ``Rect.intersects`` exactly.  And faces equal
    within the tolerance are the same face, so every merge is the exact
    union of its two sides' cells: a cluster owns the whole of its box.
    """

    def __init__(self, grid: UniformGrid) -> None:
        # Row-major offset of each cell index along the leading axes; a
        # row (the cells along the last axis) is one slice of ``_owner``.
        self._offsets = [
            list(range(0, n * stride, stride))
            for n, stride in zip(grid.shape[:-1], grid.strides)
        ]
        self._shape = grid.shape
        # Cell -> index into ``_clusters``; -1 for a bucket not yet seen.
        self._owner = [-1] * grid.n_cells
        self._clusters: List[_Cluster] = []

    @classmethod
    def for_grid(cls, grid: UniformGrid) -> Optional["_CellTable"]:
        """A table for ``grid``, or None where some cell is not wider than
        ``RECT_TOL`` (the tree's search then lists the LMC)."""
        if all(
            high - low > RECT_TOL for faces in grid.faces for low, high in faces
        ):
            return cls(grid)
        return None

    def _rows(self, starts, stops) -> List[int]:
        """Where each row of the box ``starts[i] <= cell[i] < stops[i]``
        begins in ``_owner``, minus its last-axis offset."""
        rows = [0]
        for offsets, start, stop in zip(self._offsets, starts, stops):
            rows = [row + offset for row in rows for offset in offsets[start:stop]]
        return rows

    def candidates(self, cluster: _Cluster) -> List[_Cluster]:
        """The LMC: live clusters overlapping or touching ``cluster``."""
        starts = [first - 1 if first else 0 for first in cluster.first]
        stops = [min(last + 2, n) for last, n in zip(cluster.last, self._shape)]
        start, stop = starts[-1], stops[-1]
        owner = self._owner
        slots = set()
        for row in self._rows(starts, stops):
            slots.update(owner[row + start:row + stop])
        slots.discard(-1)
        return [c for c in map(self._clusters.__getitem__, slots) if c.alive]

    def paint(self, cluster: _Cluster) -> None:
        """Make ``cluster`` the owner of every cell of its box."""
        slot = len(self._clusters)
        self._clusters.append(cluster)
        stops = [last + 1 for last in cluster.last]
        start, stop = cluster.first[-1], stops[-1]
        run = [slot] * (stop - start)
        for row in self._rows(cluster.first, stops):
            self._owner[row + start:row + stop] = run


def run_dshc(stats: MiniBucketStats, config: DSHCConfig | None = None) -> DSHCResult:
    """Cluster the mini buckets of ``stats`` into rectangular partitions."""
    config = config or DSHCConfig()
    grid = stats.grid
    total = max(stats.estimated_total, 1.0)
    overall_density = total / grid.domain.area if grid.domain.area > 0 else 1.0
    t_diff = config.t_diff_fraction * overall_density
    t_max = config.t_max_fraction * total

    tree = AFTree(max_entries=config.max_tree_entries)
    table = _CellTable.for_grid(grid)
    if table is None:
        def lmc(cluster: _Cluster) -> List[_Cluster]:
            return tree.search_candidates(Rect(cluster.low, cluster.high))
    else:
        lmc = table.candidates
    merges = 0
    recursive_merges = 0

    # Bucket rectangles in flat (row-major) order, from per-axis faces
    # computed once.
    for count, cell, faces in zip(
        stats.count_list,
        itertools.product(*map(range, grid.shape)),
        itertools.product(*grid.faces),
    ):
        low, high = zip(*faces)
        bucket = _Cluster(count, low, high, cell, cell)
        candidates = lmc(bucket)
        target = _best_merge_target(tree, candidates, bucket, t_diff, t_max)
        if target is None:
            _insert_near_similar(tree, bucket, candidates)
            cluster = bucket
        else:
            tree.remove(target)
            cluster = target.merge(bucket)
            merges += 1
            # Recursive merge: keep folding in compatible neighbors until
            # the augmented cluster has none (the paper's upward merge
            # propagation).
            while True:
                neighbor = _best_merge_target(
                    tree, lmc(cluster), cluster, t_diff, t_max
                )
                if neighbor is None:
                    break
                tree.remove(neighbor)
                cluster = cluster.merge(neighbor)
                recursive_merges += 1
            tree.insert(cluster)
        if table is not None:
            table.paint(cluster)

    return DSHCResult(
        clusters=[
            AggregateFeature(c.num_points, Rect(c.low, c.high))
            for c in tree.clusters()
        ],
        merges=merges,
        recursive_merges=recursive_merges,
        t_diff=t_diff,
        t_max=t_max,
    )


def _first_in_tree(tree: AFTree, tied: List[_Cluster]) -> Optional[_Cluster]:
    """The candidate the tree's search would have listed first."""
    if len(tied) > 1:
        return min(tied, key=tree.position)
    return tied[0] if tied else None


def _best_merge_target(
    tree: AFTree,
    candidates: List[_Cluster],
    cluster: _Cluster,
    t_diff: float,
    t_max: float,
) -> Optional[_Cluster]:
    """Def. 5.2 filter over ``cluster``'s LMC; returns the most
    density-similar candidate (ties: the first in tree order) or None."""
    tied: List[_Cluster] = []
    best_diff = _INF
    for cand in candidates:
        if cand.num_points + cluster.num_points >= t_max:
            continue
        diff = _density_difference(cand, cluster)
        if diff >= t_diff or diff > best_diff:
            continue
        # The geometric test last: it is the dear one, and the criteria
        # are a conjunction.
        if not forms_rectangle(cand.low, cand.high, cluster.low, cluster.high):
            continue
        if diff < best_diff:
            tied, best_diff = [cand], diff
        elif diff == best_diff:
            tied.append(cand)
    return _first_in_tree(tree, tied)


def _insert_near_similar(
    tree: AFTree, bucket: _Cluster, candidates: List[_Cluster]
) -> None:
    """Insert an unmergeable bucket as a new cluster.

    Per the paper's insert operation: if the LMC (``candidates``, looked
    up before anything changed) was non-empty, attach the new leaf entry
    beside the most density-similar candidate; otherwise use the
    least-enlargement leaf.
    """
    near = None
    if candidates:
        diffs = [_density_difference(bucket, c) for c in candidates]
        least = min(diffs)
        similar = _first_in_tree(
            tree, [c for c, d in zip(candidates, diffs) if d == least]
        )
        near = tree.leaf_of(similar)
    tree.insert(bucket, near=near)
