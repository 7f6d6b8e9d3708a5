"""Planning equivalence: the Rect-free AF-tree and separable coverage
vs. the code they replaced.

DSHC's tie-break *is* the tree — mini-bucket counts are multiples of
``1 / sample_rate`` and most of a map is empty, so exact ties in the
density difference are the normal case, the winner is the first candidate
in the search's DFS order, and partition ids are ``tree.clusters()``
order.  The AF-tree, the ``run_dshc`` loop, the per-bucket helpers of
``partitioning/sampled_strategies.py`` with the two grid methods they
used, and DMT's one-rect-at-a-time cost refinement are therefore kept
here **verbatim** as they were before the rewrites, and every property
below demands equality in value *and in order* — ``==``, never
``approx``.  Old and new always run on the same interpreter, so the
comparison is immune to ``sum()`` becoming compensated in CPython 3.12;
the literal pins at the end hold only DSHC's own output (plain ``+`` and
``min`` / ``max``).
"""

import itertools
import math
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import Dataset
from repro.data import region_dataset, state_dataset
from repro.dshc import AggregateFeature, DSHCConfig, DSHCResult
from repro.dshc import dshc as new_dshc
from repro.geometry import Rect, UniformGrid
from repro.mapreduce import LocalRuntime
from repro.params import OutlierParams
from repro.allocation import allocate
from repro.costmodel import bucketwise_best_algorithm
from repro.partitioning import (
    DMTPartitioner,
    Partition,
    PartitionPlan,
    PlanRequest,
    plan_to_dict,
)
from repro.partitioning import sampled_strategies as new
from repro.sampling import MiniBucketStats, collect_minibucket_stats


# ----------------------------------------------------------------------
# The oracle, part 1: ``UniformGrid.cell_rect`` / ``cells_within`` as
# they were (the rewrite routes both through shared per-axis helpers).
# ----------------------------------------------------------------------
class _OldGrid(UniformGrid):
    def cell_rect(self, idx: Sequence[int]) -> Rect:
        """The box of cell ``idx``."""
        low = []
        high = []
        for i, lo, w, s in zip(
            idx, self.domain.low, self.cell_widths, self.shape
        ):
            if not 0 <= i < s:
                raise IndexError(f"cell index {i} out of range [0, {s})")
            low.append(lo + i * w)
            # Snap the final cell's face to the domain face so the grid tiles
            # the domain exactly despite floating point division.
            high.append(self.domain.high[len(low) - 1] if i == s - 1 else lo + (i + 1) * w)
        return Rect(tuple(low), tuple(high))

    def cells_within(self, rect: Rect) -> Iterator[tuple[int, ...]]:
        """Multi-indices of all cells whose box intersects ``rect``.

        This is how the DOD mapper finds the cells for which a point is a
        *support* point: the cells intersecting the ``r``-ball's bounding box
        around the point (equivalently, the cells whose ``r``-expansion
        contains the point, by symmetry of the extension).
        """
        ranges = []
        for lo, hi, dom_lo, w, s in zip(
            rect.low,
            rect.high,
            self.domain.low,
            self.cell_widths,
            self.shape,
        ):
            if w <= 0:
                ranges.append(range(0, 1))
                continue
            first = int(math.floor((lo - dom_lo) / w))
            last = int(math.floor((hi - dom_lo) / w))
            # A rect face lying exactly on a cell boundary belongs to the
            # lower cell for its upper face (closed boxes touch).
            if last * w + dom_lo == hi and last > first:
                last -= 1
            first = min(max(first, 0), s - 1)
            last = min(max(last, 0), s - 1)
            ranges.append(range(first, last + 1))
        return itertools.product(*ranges)


def _old(stats: MiniBucketStats) -> MiniBucketStats:
    """The same statistics over a grid with the old methods."""
    grid = stats.grid
    return replace(stats, grid=_OldGrid(grid.domain, grid.shape))


# ----------------------------------------------------------------------
# The oracle, part 2: ``dshc/aftree.py`` as it was, verbatim.
# ----------------------------------------------------------------------
class _Node:
    """One AF-tree node.  Leaves hold AFs; internal nodes hold children.

    The minimum bounding rectangle is cached and invalidated up the parent
    chain on every mutation — recomputing it recursively on each search
    made DSHC quadratic in practice.
    """

    __slots__ = ("is_leaf", "entries", "parent", "_mbr")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: List = []  # AggregateFeature | _Node
        self.parent: Optional["_Node"] = None
        self._mbr: Optional[Rect] = None

    def mbr(self) -> Optional[Rect]:
        if self._mbr is None and self.entries:
            rects = [
                e.rect if self.is_leaf else e.mbr()
                for e in self.entries
            ]
            rects = [r for r in rects if r is not None]
            if rects:
                low = tuple(
                    min(r.low[i] for r in rects)
                    for i in range(rects[0].ndim)
                )
                high = tuple(
                    max(r.high[i] for r in rects)
                    for i in range(rects[0].ndim)
                )
                self._mbr = Rect(low, high)
        return self._mbr

    def invalidate(self) -> None:
        """Drop cached MBRs on this node and every ancestor."""
        node: Optional[_Node] = self
        while node is not None:
            node._mbr = None
            node = node.parent


class AFTree:
    """R-tree over AggregateFeatures with adjacency-aware search."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4 for a sane split")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def clusters(self) -> Iterator[AggregateFeature]:
        """All clusters (leaf AFs) in the tree."""
        yield from self._iter_leaf_entries(self._root)

    def _iter_leaf_entries(self, node: _Node) -> Iterator[AggregateFeature]:
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.entries:
                yield from self._iter_leaf_entries(child)

    def search_candidates(self, rect: Rect) -> List[AggregateFeature]:
        """The LMC list: clusters overlapping or adjacent to ``rect``.

        Closed-box intersection makes touching faces count, which is exactly
        the paper's "overlapping rectangles ... [and] nodes that are
        adjacent to the new mini-bucket".
        """
        found: List[AggregateFeature] = []
        self._search(self._root, rect, found)
        return found

    def _search(self, node: _Node, rect: Rect, out: List) -> None:
        for entry in node.entries:
            if node.is_leaf:
                if entry.rect.intersects(rect):
                    out.append(entry)
            else:
                mbr = entry.mbr()
                if mbr is not None and mbr.intersects(rect):
                    self._search(entry, rect, out)

    def best_insertion_leaf(self, rect: Rect) -> "_Node":
        """ChooseLeaf: descend by least MBR enlargement (ties: least area).

        Exposed because DSHC's insert operation wants "the leaf node that
        can accommodate this new mini bucket with least enlargement" even
        when the LMC list is empty.
        """
        node = self._root
        while not node.is_leaf:
            node = min(
                node.entries,
                key=lambda child: self._choose_key(child, rect),
            )
        return node

    @staticmethod
    def _choose_key(child: "_Node", rect: Rect) -> tuple[float, float]:
        mbr = child.mbr()
        if mbr is None:
            return (0.0, 0.0)
        return (mbr.enlargement(rect), mbr.area)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, af: AggregateFeature, near: Optional[_Node] = None) -> None:
        """Insert a cluster, splitting on overflow.

        ``near`` pins the target leaf (DSHC attaches a new cluster next to
        its most density-similar LMC neighbor's leaf when one exists).
        """
        leaf = near if near is not None else self.best_insertion_leaf(af.rect)
        leaf.entries.append(af)
        leaf.invalidate()
        self._size += 1
        self._handle_overflow(leaf)

    def remove(self, af: AggregateFeature) -> None:
        """Remove a cluster (identity match) prior to a merge."""
        leaf = self._find_leaf(self._root, af)
        if leaf is None:
            raise KeyError("cluster not present in AF-tree")
        leaf.entries.remove(af)
        leaf.invalidate()
        self._size -= 1
        self._condense(leaf)

    def leaf_of(self, af: AggregateFeature) -> Optional[_Node]:
        """The leaf currently holding ``af`` (None if absent)."""
        return self._find_leaf(self._root, af)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_leaf(self, node: _Node, af: AggregateFeature) -> Optional[_Node]:
        if node.is_leaf:
            for entry in node.entries:
                if entry is af:
                    return node
            return None
        for child in node.entries:
            mbr = child.mbr()
            if mbr is not None and mbr.intersects(af.rect):
                found = self._find_leaf(child, af)
                if found is not None:
                    return found
        return None

    def _handle_overflow(self, node: _Node) -> None:
        while len(node.entries) > self.max_entries:
            left, right = self._split(node)
            parent = node.parent
            if parent is None:
                # Grow a new root above the two halves.
                new_root = _Node(is_leaf=False)
                new_root.entries = [left, right]
                left.parent = new_root
                right.parent = new_root
                self._root = new_root
                return
            parent.entries.remove(node)
            parent.entries.extend([left, right])
            left.parent = parent
            right.parent = parent
            parent.invalidate()
            node = parent

    def _split(self, node: _Node) -> tuple[_Node, _Node]:
        """Guttman quadratic split."""
        entries = node.entries
        rects = [
            e.rect if node.is_leaf else e.mbr() for e in entries
        ]
        # Pick seeds: the pair whose combined box wastes the most area.
        best_pair, best_waste = (0, 1), -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    rects[i].union_bbox(rects[j]).area
                    - rects[i].area
                    - rects[j].area
                )
                if waste > best_waste:
                    best_pair, best_waste = (i, j), waste
        left = _Node(node.is_leaf)
        right = _Node(node.is_leaf)
        i, j = best_pair
        groups = [(left, rects[i]), (right, rects[j])]
        left.entries.append(entries[i])
        right.entries.append(entries[j])
        remaining = [
            (e, r) for idx, (e, r) in enumerate(zip(entries, rects))
            if idx not in best_pair
        ]
        for entry, rect in remaining:
            # Respect the minimum fill factor.
            if len(left.entries) + len(remaining) <= self.min_entries:
                target = left
            elif len(right.entries) + len(remaining) <= self.min_entries:
                target = right
            else:
                l_mbr, r_mbr = groups[0][1], groups[1][1]
                target = (
                    left
                    if l_mbr.enlargement(rect) <= r_mbr.enlargement(rect)
                    else right
                )
            target.entries.append(entry)
            if target is left:
                groups[0] = (left, groups[0][1].union_bbox(rect))
            else:
                groups[1] = (right, groups[1][1].union_bbox(rect))
        if not node.is_leaf:
            for child in left.entries:
                child.parent = left
            for child in right.entries:
                child.parent = right
        return left, right

    def _condense(self, node: _Node) -> None:
        """After a removal: prune empty nodes; shrink a trivial root."""
        while node.parent is not None and not node.entries:
            parent = node.parent
            parent.entries.remove(node)
            parent.invalidate()
            node = parent
        root = self._root
        while not root.is_leaf and len(root.entries) == 1:
            root = root.entries[0]
            root.parent = None
            self._root = root


# ----------------------------------------------------------------------
# The oracle, part 3: the ``run_dshc`` loop of ``dshc/dshc.py`` as it
# was, verbatim (it binds the ``AFTree`` above).
# ----------------------------------------------------------------------
def run_dshc(stats: MiniBucketStats, config: DSHCConfig | None = None) -> DSHCResult:
    """Cluster the mini buckets of ``stats`` into rectangular partitions."""
    config = config or DSHCConfig()
    grid = stats.grid
    total = max(stats.estimated_total, 1.0)
    overall_density = total / grid.domain.area if grid.domain.area > 0 else 1.0
    t_diff = config.t_diff_fraction * overall_density
    t_max = config.t_max_fraction * total

    tree = AFTree(max_entries=config.max_tree_entries)
    merges = 0
    recursive_merges = 0

    for flat in range(grid.n_cells):
        bucket = AggregateFeature(
            float(stats.counts[flat]), grid.cell_rect(grid.unflatten(flat))
        )
        candidates = tree.search_candidates(bucket.rect)
        target = _best_merge_target(candidates, bucket, t_diff, t_max)
        if target is None:
            _insert_near_similar(tree, bucket, candidates)
            continue
        tree.remove(target)
        cluster = target.merge(bucket)
        merges += 1
        # Recursive merge: keep folding in compatible neighbors until the
        # augmented cluster has none (the paper's upward merge propagation).
        while True:
            neighbor = _best_merge_target(
                tree.search_candidates(cluster.rect), cluster, t_diff, t_max
            )
            if neighbor is None:
                break
            tree.remove(neighbor)
            cluster = cluster.merge(neighbor)
            recursive_merges += 1
        tree.insert(cluster)

    return DSHCResult(
        clusters=list(tree.clusters()),
        merges=merges,
        recursive_merges=recursive_merges,
        t_diff=t_diff,
        t_max=t_max,
    )


def _best_merge_target(
    candidates: List[AggregateFeature],
    af: AggregateFeature,
    t_diff: float,
    t_max: float,
) -> Optional[AggregateFeature]:
    """Def. 5.2 filter over ``af``'s LMC (``tree.search_candidates``);
    returns the most density-similar candidate or None."""
    best: Optional[AggregateFeature] = None
    best_diff = float("inf")
    for cand in candidates:
        if cand.num_points + af.num_points >= t_max:
            continue
        if not cand.rect.forms_rectangle_with(af.rect):
            continue
        diff = cand.density_difference(af)
        if diff >= t_diff:
            continue
        if diff < best_diff:
            best, best_diff = cand, diff
    return best


def _insert_near_similar(
    tree: AFTree, af: AggregateFeature, candidates: List[AggregateFeature]
) -> None:
    """Insert an unmergeable bucket as a new cluster.

    Per the paper's insert operation: if the LMC (``candidates``, the
    search ``run_dshc`` already made on the still-unchanged tree) was
    non-empty, attach the new leaf entry beside the most density-similar
    candidate; otherwise use the least-enlargement leaf.
    """
    near = None
    if candidates:
        similar = min(candidates, key=af.density_difference)
        near = tree.leaf_of(similar)
    tree.insert(af, near=near)


# ----------------------------------------------------------------------
# The oracle, part 4: the per-bucket helpers of
# ``partitioning/sampled_strategies.py`` as they were, verbatim.
# ----------------------------------------------------------------------
def _estimate_points(stats, rect) -> float:
    """Estimated points inside ``rect`` from mini-bucket statistics.

    Buckets partially covered by ``rect`` contribute proportionally to the
    covered fraction of their area (uniformity within a bucket).
    """
    grid = stats.grid
    total = 0.0
    for idx in grid.cells_within(rect):
        flat = grid.flat_index(idx)
        count = float(stats.counts[flat])
        if count == 0:
            continue
        cell = grid.cell_rect(idx)
        overlap = 1.0
        for lo, hi, clo, chi in zip(rect.low, rect.high, cell.low, cell.high):
            width = chi - clo
            if width <= 0:
                continue
            covered = max(0.0, min(hi, chi) - max(lo, clo))
            overlap *= covered / width
        total += count * overlap
    return total


def _rect_buckets(stats, rect):
    """Yield ``(n_b, area_b)`` for the mini buckets overlapping ``rect``.

    Partially covered buckets contribute proportionally to the covered
    area fraction (uniformity within a bucket).
    """
    grid = stats.grid
    for idx in grid.cells_within(rect):
        flat = grid.flat_index(idx)
        count = float(stats.counts[flat])
        cell = grid.cell_rect(idx)
        overlap = 1.0
        for lo, hi, clo, chi in zip(rect.low, rect.high, cell.low, cell.high):
            width = chi - clo
            if width <= 0:
                continue
            covered = max(0.0, min(hi, chi) - max(lo, clo))
            overlap *= covered / width
        if overlap <= 0:
            continue
        yield count * overlap, cell.area * overlap


def _support_buckets(stats, rect, r):
    """Yield ``(n_b, area_b)`` for the supporting area of ``rect``.

    The supporting area is the ``r``-expansion minus the rect itself
    (Def. 3.3); each bucket contributes its coverage by the expansion
    minus its coverage by the core rect.
    """
    expanded = rect.expand(r)
    grid = stats.grid
    for idx in grid.cells_within(expanded):
        flat = grid.flat_index(idx)
        count = float(stats.counts[flat])
        if count == 0:
            continue
        cell = grid.cell_rect(idx)
        frac_expanded = _coverage(cell, expanded)
        frac_core = _coverage(cell, rect)
        w = frac_expanded - frac_core
        if w <= 0:
            continue
        yield count * w, cell.area * w


def _coverage(cell, rect) -> float:
    """Fraction of ``cell``\'s area covered by ``rect``."""
    frac = 1.0
    for lo, hi, clo, chi in zip(rect.low, rect.high, cell.low, cell.high):
        width = chi - clo
        if width <= 0:
            continue
        covered = max(0.0, min(hi, chi) - max(lo, clo))
        if covered <= 0:
            return 0.0
        frac *= covered / width
    return frac


# ----------------------------------------------------------------------
# Inputs: tie-heavy bucket maps on awkward domains
# ----------------------------------------------------------------------
#: Bucket counts are multiples of ``1 / rate`` and mostly zero.
RATES = [1.0, 0.5, 0.2, 0.05]
LEVELS = {
    "sparse": [0, 0, 0, 0, 0, 0, 1, 1, 2, 3],
    "mixed": [0, 1, 1, 2, 2, 3, 5, 8, 40],
    "zero": [0],
    "uniform": [4],
}
ORIGINS = [0.0, -3.5, 17.25, -1e3, -0.1]
WIDTHS = [1.0, 7.3, 0.1, 60.0, 1e3, 0.0, 1e-12]


@st.composite
def bucket_stats(draw, ndims=(2, 2, 3)):
    ndim = draw(st.sampled_from(ndims))
    most = {1: 40, 2: 14}.get(ndim, 6)
    shape = tuple(draw(st.integers(1, most)) for _ in range(ndim))
    low = tuple(draw(st.sampled_from(ORIGINS)) for _ in range(ndim))
    high = tuple(lo + draw(st.sampled_from(WIDTHS)) for lo in low)
    rate = draw(st.sampled_from(RATES))
    levels = LEVELS[draw(st.sampled_from(sorted(LEVELS)))]
    n = math.prod(shape)
    sampled = draw(
        st.lists(st.sampled_from(levels), min_size=n, max_size=n)
    )
    return MiniBucketStats(
        UniformGrid(Rect(low, high), shape),
        np.asarray(sampled, dtype=float) / rate,
        sample_rate=rate,
        sampled_points=sum(sampled),
    )


def summary(result: DSHCResult):
    """Everything a DSHC run hands on; the cluster list in tree order."""
    return (
        [(c.num_points, c.rect) for c in result.clusters],
        result.merges,
        result.recursive_merges,
        result.t_diff,
        result.t_max,
    )


# ----------------------------------------------------------------------
# DSHC: same clusters, same order, same scan statistics
# ----------------------------------------------------------------------
@given(
    stats=bucket_stats(),
    max_tree_entries=st.sampled_from([4, 5, 8, 16]),
    t_diff_fraction=st.sampled_from([0.1, 0.5, 2.0]),
    t_max_fraction=st.sampled_from([0.05, 0.15, 1.0]),
)
def test_run_dshc_equals_the_old_loop(
    stats, max_tree_entries, t_diff_fraction, t_max_fraction
):
    config = DSHCConfig(t_diff_fraction, t_max_fraction, max_tree_entries)
    assert summary(new_dshc.run_dshc(stats, config)) == summary(
        run_dshc(_old(stats), config)
    )


@pytest.mark.parametrize("max_tree_entries", [4, 8])
def test_zero_height_domain_removes_equal_twins(max_tree_entries, monkeypatch):
    """On a collapsed axis every bucket of that axis has the same
    rectangle, so the tree holds value-equal clusters and merges remove
    one of them — the case the old ``AFTree.remove`` resolved by value.
    The twins are interchangeable by value, so the outcome is the old
    one."""
    counts = np.zeros((6, 3))
    counts[1, :] = 5.0
    counts[2, 0] = counts[4, 1] = 10.0
    grid = UniformGrid(Rect((-2.0, 1.5), (4.0, 1.5)), counts.shape)
    stats = MiniBucketStats(grid, counts.ravel(), 0.2, 8)
    config = DSHCConfig(max_tree_entries=max_tree_entries)

    twin_removals = []
    remove = new_dshc.AFTree.remove

    def spy(tree, af):
        twin_removals.append(sum(c == af for c in tree.clusters()) > 1)
        remove(tree, af)

    monkeypatch.setattr(new_dshc.AFTree, "remove", spy)
    assert summary(new_dshc.run_dshc(stats, config)) == summary(
        run_dshc(_old(stats), config)
    )
    assert any(twin_removals)


# ----------------------------------------------------------------------
# Bucket coverage: the separable helper vs. the per-cell loops
# ----------------------------------------------------------------------
def _ulps(x):
    return [x, float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]


@st.composite
def probe_rects(draw, grid):
    """Rectangles whose faces sit where coverage could round differently:
    on bucket faces +- {0, one ulp}, on midpoints of two faces (what
    ``_refine_by_cost`` produces) and outside the domain."""
    low, high = [], []
    for axis, faces in enumerate(grid._axis_faces()):
        lo, hi = grid.domain.low[axis], grid.domain.high[axis]
        edges = [f[0] for f in faces] + [hi]
        reach = max(hi - lo, 1.0)
        picks = []
        for _ in range(2):
            a, b = draw(st.sampled_from(edges)), draw(st.sampled_from(edges))
            picks.append(draw(st.sampled_from(
                _ulps(a) + [(a + b) / 2.0, lo - reach, hi + reach]
            )))
        low.append(min(picks))
        high.append(max(picks))
    return Rect(tuple(low), tuple(high))


def _table(stats, rects, r):
    """``BucketTable.cover`` of ``rects``, with each core list's point
    estimate: ``[(estimate, core, support)]``."""
    return [
        (new._points(core), core, support)
        for core, support in new.BucketTable(stats).cover(rects, r)
    ]


def _loops(stats, rect, r):
    """The old loops' ``(estimate, core, support)`` for ``rect``, minus
    the core entries of empty buckets (the table holds occupied buckets
    only; every bucketwise model ignores ``n_b == 0``)."""
    old = _old(stats)
    return (
        _estimate_points(old, rect),
        [b for b in _rect_buckets(old, rect) if b[0] != 0],
        list(_support_buckets(old, rect, r)),
    )


@given(data=st.data())
def test_bucket_helpers_equal_the_old_loops(data):
    """One batched table pass yields, per rect, exactly the old walks'
    non-zero entries in their order, on 1-D to 3-D grids (zero-width
    axes, ulp-narrow cells), for rects on, beside and between bucket
    faces and overhanging the domain, from ``r = 0`` to past the domain
    on every side."""
    stats = data.draw(bucket_stats(ndims=(1, 2, 2, 3)))
    rects = data.draw(st.lists(probe_rects(stats.grid), min_size=1, max_size=4))
    widths = [w for w in stats.grid.cell_widths if w > 0] or [1.0]
    r = data.draw(st.sampled_from(
        [0.0, min(widths) / 2.0, max(widths), 3.0 * max(widths), 5e3]
    ))
    assert _table(stats, rects, r) == [_loops(stats, rect, r) for rect in rects]


def test_zero_width_axis_contributes_factor_one():
    grid = UniformGrid(Rect((0.0, 5.0), (8.0, 5.0)), (4, 3))
    stats = MiniBucketStats(grid, np.arange(12.0), 1.0, 66)
    rect = Rect((1.0, 5.0), (5.0, 5.0))
    [(estimate, core, support)] = _table(stats, [rect], 1.0)
    assert estimate == _estimate_points(_old(stats), rect) == (
        0.0 * 0.5 + 3.0 + 6.0 * 0.5
    )
    assert (estimate, core, support) == _loops(stats, rect, 1.0)


def test_ulp_narrow_cells_past_a_face_stay_out():
    """Thirteen cells across 1e-12 at -1e3: some are narrower than an
    ulp, so their faces are equal and a zero-width cell counts as wholly
    covered.  A rect whose upper face lies on a cell boundary must leave
    the cells past it out, as the old loops' cell ranges did."""
    grid = UniformGrid(Rect((-1e3, 0.0), (-1e3 + 1e-12, 2.0)), (13, 2))
    stats = MiniBucketStats(grid, np.ones(26), 1.0, 26)
    rects = [Rect((-1e3, 0.0), (high, 1.0)) for _, high in grid.faces[0]]
    for r in (0.0, 1e-13):
        assert _table(stats, rects, r) == [
            _loops(stats, rect, r) for rect in rects
        ]


def test_an_empty_batch_covers_nothing():
    stats = MiniBucketStats(
        UniformGrid(Rect((0.0,), (4.0,)), (4,)), np.ones(4), 1.0, 4
    )
    assert new.BucketTable(stats).cover([], 1.0) == []


def test_grid_methods_keep_their_floats():
    """``cell_rect`` and ``cells_within`` now read the shared per-axis
    helpers; their values are the old methods'."""
    for domain, shape in [
        (Rect((-3.5, 0.1), (3.8, 0.1 + 1e-12)), (7, 3)),
        (Rect((0.0, 5.0, -1e3), (60.0, 5.0, 1e3)), (3, 2, 5)),
    ]:
        grid, old = UniformGrid(domain, shape), _OldGrid(domain, shape)
        for idx in grid.iter_cells():
            assert grid.cell_rect(idx) == old.cell_rect(idx)
        probe = Rect(
            tuple(lo - 1.0 for lo in domain.low), grid.cell_rect(
                tuple(s // 2 for s in shape)
            ).high,
        )
        assert list(grid.cells_within(probe)) == list(
            old.cells_within(probe)
        )
    with pytest.raises(IndexError):
        grid.cell_rect((0, 2, 0))


# ----------------------------------------------------------------------
# End to end: the DMT plan is the same discrete object
# ----------------------------------------------------------------------
def _cube(n=2500, seed=5):
    rng = np.random.default_rng(seed)
    dense = rng.normal((10.0, 10.0, 10.0), 1.5, size=(n // 2, 3))
    sparse = rng.uniform(0.0, 40.0, size=(n - n // 2, 3))
    return Dataset.from_points(np.vstack([dense, sparse]), "cube")


PLAN_INPUTS = {
    "region-NE": (lambda: region_dataset("NE", base_n=1500, seed=7), 225),
    "state-OH": (lambda: state_dataset("OH", n=4000, seed=7), 200),
    "cube-3d": (_cube, 125),
}


def _request(dataset, n_buckets):
    return PlanRequest(
        domain=dataset.bounds, params=OutlierParams(r=2.0, k=8),
        n_partitions=16, n_reducers=12, n_buckets=n_buckets,
        sample_rate=0.4, seed=1,
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


def _old_dmt_plan(dataset, n_buckets) -> PartitionPlan:
    """``DMTPartitioner.build_plan`` as it was: every rect's buckets
    walked on its own (memoized per rect), DSHC the old loop."""
    request = _request(dataset, n_buckets)
    stats = _old(collect_minibucket_stats(
        LocalRuntime(), dataset.batch(), request.domain,
        n_buckets=request.n_buckets, rate=request.sample_rate,
        seed=request.seed,
    ))
    clustering = run_dshc(stats, DSHCConfig())
    ndim = request.domain.ndim
    candidates = DMTPartitioner().candidates

    cache: dict = {}

    def best_for(rect):
        # Memoized: refinement re-evaluates the same rects repeatedly.
        hit = cache.get(rect)
        if hit is None:
            hit = bucketwise_best_algorithm(
                list(_rect_buckets(stats, rect)),
                request.params,
                ndim,
                candidates,
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
        strategy="DMT",
    )


@pytest.mark.parametrize("name", sorted(PLAN_INPUTS))
def test_dmt_plan_equals_the_plan_of_the_old_functions(name):
    build, n_buckets = PLAN_INPUTS[name]
    dataset = build()
    plan = DMTPartitioner().build_plan(
        LocalRuntime(), dataset.batch(), _request(dataset, n_buckets)
    )
    assert plan_to_dict(plan) == plan_to_dict(
        _old_dmt_plan(dataset, n_buckets)
    )
    # The comparison is not vacuous: refinement went off the bucket grid.
    assert len(plan.partitions) > 4


# ----------------------------------------------------------------------
# A literal pin of DSHC's own output (plain +, min, max: interpreter-proof)
# ----------------------------------------------------------------------
def test_literal_clusters_of_a_small_map():
    sampled = np.array([
        [0, 0, 1, 1, 0],
        [0, 2, 8, 7, 1],
        [0, 1, 9, 8, 0],
        [0, 0, 1, 0, 0],
    ], dtype=float)
    grid = UniformGrid(Rect((-1.0, 0.0), (3.0, 10.0)), sampled.shape)
    stats = MiniBucketStats(grid, sampled.ravel() / 0.2, 0.2, 39)
    result = new_dshc.run_dshc(stats, DSHCConfig(2.0, 0.5, 4))
    assert [
        (c.num_points, c.rect.low, c.rect.high) for c in result.clusters
    ] == [
        (10.0, (-1.0, 0.0), (0.0, 10.0)),
        (75.0, (0.0, 4.0), (1.0, 8.0)),
        (85.0, (1.0, 4.0), (2.0, 8.0)),
        (5.0, (2.0, 4.0), (3.0, 8.0)),
        (5.0, (0.0, 8.0), (3.0, 10.0)),
        (15.0, (0.0, 0.0), (3.0, 4.0)),
    ]
    assert (result.merges, result.recursive_merges) == (12, 2)
    assert (result.t_diff, result.t_max) == (9.75, 97.5)
