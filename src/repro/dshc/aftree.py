"""The AF-tree: an R-tree-like index over DSHC clusters (Sec. V-A).

Leaf entries are clusters — anything with ``low`` / ``high`` coordinate
tuples: an :class:`~repro.dshc.af.AggregateFeature`, or the plain records
the DSHC driver keeps; internal entries are child nodes summarized by their
minimum bounding rectangles.  The tree supports the four operations the
paper describes:

* **search** — find clusters overlapping *or adjacent to* a query rect (the
  LMC candidate list);
* **insert** — ChooseLeaf by least enlargement, Guttman-style quadratic
  node split on overflow;
* **merge** — remove + AF-merge + reinsert, driven by the DSHC driver;
* **split** — the standard R-tree split, triggered by insert.

The DSHC driver reads its LMC lists off a cell table instead (see
:mod:`repro.dshc.dshc`) and asks the tree only what the tree decides: where
a cluster goes, and — through :meth:`AFTree.position` — which of several
equally good candidates comes first in :meth:`AFTree.clusters` order.

Inside the tree a box is a bare ``(low, high)`` pair of coordinate tuples:
the helpers below repeat :class:`~repro.geometry.Rect`'s arithmetic (same
operations, same argument order, hence the same floats and the same
tie-breaks) without building and validating an object per evaluation.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterator, List, Optional

from ..geometry import Rect
from .af import AggregateFeature

__all__ = ["AFTree"]


def _area(low: tuple, high: tuple) -> float:
    """``Rect.area``: the widths multiplied in axis order."""
    return math.prod(map(operator.sub, high, low))


def _union(low: tuple, high: tuple, other_low: tuple, other_high: tuple):
    """``Rect.union_bbox``: ``min(self, other)`` / ``max(self, other)``."""
    return tuple(map(min, low, other_low)), tuple(map(max, high, other_high))


def _union_area(low, high, other_low, other_high) -> float:
    """``_area(*_union(...))`` without materialising the union.

    The hottest arithmetic of the tree (ChooseLeaf, the split's seeds), so
    ``max`` / ``min`` are spelled as comparisons — same values, the first
    operand kept on ties — and the product is accumulated as ``math.prod``
    does, from ``1`` in axis order.
    """
    area = 1
    for lo, hi, o_lo, o_hi in zip(low, high, other_low, other_high):
        area *= (hi if hi >= o_hi else o_hi) - (lo if lo <= o_lo else o_lo)
    return area


class _Node:
    """One AF-tree node.  Leaves hold AFs; internal nodes hold children.

    The minimum bounding rectangle is cached as ``box = (low, high, area)``
    and invalidated up the parent chain on every mutation — recomputing it
    recursively on each search made DSHC quadratic in practice.  Only the
    root is ever empty (``_condense`` prunes, a split seeds both halves),
    so every child has a box.
    """

    __slots__ = ("is_leaf", "entries", "parent", "box")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: List = []  # AggregateFeature | _Node
        self.parent: Optional["_Node"] = None
        self.box: Optional[tuple] = None

    def entry_bounds(self) -> tuple[list, list]:
        """The lows and the highs of the entries: a leaf's cluster
        rectangles, an internal node's child MBRs."""
        if self.is_leaf:
            return (
                [af.low for af in self.entries],
                [af.high for af in self.entries],
            )
        boxes = [c.box or c.refresh() for c in self.entries]
        return [box[0] for box in boxes], [box[1] for box in boxes]

    def refresh(self) -> tuple:
        """Recompute and cache ``box`` from the entries, in entry order."""
        lows, highs = self.entry_bounds()
        low = tuple(map(min, zip(*lows)))
        high = tuple(map(max, zip(*highs)))
        self.box = (low, high, _area(low, high))
        return self.box

    def invalidate(self) -> None:
        """Drop cached MBRs on this node and every ancestor."""
        node: Optional[_Node] = self
        while node is not None:
            node.box = None
            node = node.parent


class AFTree:
    """R-tree over clusters with adjacency-aware search."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4 for a sane split")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _Node(is_leaf=True)
        self._size = 0
        # id(cluster) -> its leaf, kept by insert / _split / remove.  The
        # key goes when the cluster leaves the tree: ids are reused.
        self._leaf: Dict[int, _Node] = {}

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
        self._search(self._root, rect.low, rect.high, found)
        return found

    def _search(self, node: _Node, low: tuple, high: tuple, out: List) -> None:
        leaf = node.is_leaf
        for entry in node.entries:
            if leaf:
                e_low, e_high = entry.low, entry.high
            else:
                e_low, e_high, _ = entry.box or entry.refresh()
            # Rect.intersects: closed boxes, touching faces count.
            for lo1, hi1, lo2, hi2 in zip(e_low, e_high, low, high):
                if not (lo1 <= hi2 and lo2 <= hi1):
                    break
            else:
                if leaf:
                    out.append(entry)
                else:
                    self._search(entry, low, high, out)

    def position(self, af: AggregateFeature) -> List[int]:
        """Where ``af`` stands in :meth:`clusters` order: its entry index in
        each node from the root down (lists compare in DFS order).

        This is the order :meth:`search_candidates` lists clusters in, so it
        is DSHC's tie-break among equally density-similar candidates.
        """
        node = self._leaf[id(af)]
        path = [next(i for i, e in enumerate(node.entries) if e is af)]
        while node.parent is not None:
            # _Node has no __eq__: ``index`` matches by identity.
            path.append(node.parent.entries.index(node))
            node = node.parent
        path.reverse()
        return path

    def _choose_leaf(self, low: tuple, high: tuple) -> "_Node":
        """ChooseLeaf: descend by least MBR enlargement (ties: least area),
        the first such child winning as under ``min``."""
        node = self._root
        while not node.is_leaf:
            best = None
            for child in node.entries:
                c_low, c_high, area = child.box or child.refresh()
                growth = _union_area(c_low, c_high, low, high) - area
                if best is None or growth < best_growth or (
                    growth == best_growth and area < best_area
                ):
                    best, best_growth, best_area = child, growth, area
            node = best
        return node

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, af: AggregateFeature, near: Optional[_Node] = None) -> None:
        """Insert a cluster, splitting on overflow.

        ``near`` pins the target leaf (DSHC attaches a new cluster next to
        its most density-similar LMC neighbor's leaf when one exists).
        """
        leaf = near if near is not None else self._choose_leaf(af.low, af.high)
        leaf.entries.append(af)
        self._leaf[id(af)] = leaf
        leaf.invalidate()
        self._size += 1
        self._handle_overflow(leaf)

    def remove(self, af: AggregateFeature) -> None:
        """Remove a cluster (identity match) prior to a merge."""
        leaf = self._leaf.pop(id(af), None)
        if leaf is None:
            raise KeyError("cluster not present in AF-tree")
        # By identity: ``list.remove`` compares AFs by value and would take
        # the first of two equal clusters, whichever was asked for.
        del leaf.entries[next(
            i for i, entry in enumerate(leaf.entries) if entry is af
        )]
        leaf.invalidate()
        self._size -= 1
        self._condense(leaf)

    def leaf_of(self, af: AggregateFeature) -> Optional[_Node]:
        """The leaf currently holding ``af`` (None if absent)."""
        return self._leaf.get(id(af))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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
        boxes = list(zip(*node.entry_bounds()))
        areas = [_area(low, high) for low, high in boxes]
        # Pick seeds: the pair whose combined box wastes the most area.
        best_pair, best_waste = (0, 1), -1.0
        sized = [(low, high, area) for (low, high), area in zip(boxes, areas)]
        for i, (low, high, area) in enumerate(sized):
            for j, (o_low, o_high, o_area) in enumerate(sized[i + 1:], i + 1):
                waste = _union_area(low, high, o_low, o_high) - area - o_area
                if waste > best_waste:
                    best_pair, best_waste = (i, j), waste
        # Each half's ``box`` is the running MBR of what it holds so far.
        left, right = _Node(node.is_leaf), _Node(node.is_leaf)
        for half, seed in zip((left, right), best_pair):
            half.entries.append(entries[seed])
            half.box = (*boxes[seed], areas[seed])
        n_remaining = len(entries) - 2
        for idx, (entry, box) in enumerate(zip(entries, boxes)):
            if idx in best_pair:
                continue
            # Respect the minimum fill factor (against the constant count,
            # not what is still unplaced: the plans are pinned to it).
            if len(left.entries) + n_remaining <= self.min_entries:
                target = left
            elif len(right.entries) + n_remaining <= self.min_entries:
                target = right
            else:
                l_low, l_high, l_area = left.box
                r_low, r_high, r_area = right.box
                target = (
                    left
                    if _union_area(l_low, l_high, *box) - l_area
                    <= _union_area(r_low, r_high, *box) - r_area
                    else right
                )
            target.entries.append(entry)
            low, high = _union(target.box[0], target.box[1], *box)
            target.box = (low, high, _area(low, high))
        for half in (left, right):
            for entry in half.entries:
                if node.is_leaf:
                    self._leaf[id(entry)] = half
                else:
                    entry.parent = half
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
