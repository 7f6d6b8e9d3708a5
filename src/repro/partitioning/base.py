"""Partition plans: the map-side output of every strategy (Sec. III-C).

A :class:`PartitionPlan` is a set of pairwise-disjoint rectangles covering
the domain, optionally annotated with

* an **algorithm plan** (partition id -> detector name, Def. 3.4) and
* an **allocation plan** (partition id -> reducer index, Sec. V-A step 3).

The plan answers the two questions the DOD mapper asks per point (Fig. 3):
which partition is this point *core* in, and which partitions is it a
*support* point for (Def. 3.3: the partitions whose ``r``-expansion contains
it).  Point-in-partition resolution is exact: shared faces are half-open so
each point is core in exactly one partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry import Rect

__all__ = ["Partition", "PartitionPlan"]

#: Largest cell table a plan builds (4 MiB of positions).  The table has
#: up to ``(2m + 1) ** d`` cells for ``m`` unaligned partitions; past this
#: cap the core partition is found by the slab sweep instead.
_MAX_TABLE_CELLS = 1 << 19


def _slab_pairs(
    points: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    closed: bool,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, positions)`` of every pair with ``lows[j] <= points[i]``
    and ``points[i] <= highs[j]`` (``closed``) or ``< highs[j]`` on every
    axis, less the pairs ``(i, exclude[i])``, in row-major ``(row,
    position)`` order.

    The block is sorted once on axis 0, so a partition's interval on
    that axis is one contiguous run of the order (two ``searchsorted``);
    the run is filtered on the other axes with the same comparisons
    against the same floats.  Work and memory scale with the rows in each
    partition's slab, not with ``n × m``.
    """
    order = np.argsort(points[:, 0], kind="stable")
    cols = points[order].T
    starts = np.searchsorted(cols[0], lows[:, 0], "left").tolist()
    ends = np.searchsorted(
        cols[0], highs[:, 0], "right" if closed else "left"
    ).tolist()
    upper_cmp = np.less_equal if closed else np.less
    skip = None if exclude is None else exclude[order]
    others = range(1, points.shape[1])
    runs = [np.empty(0, dtype=np.intp)]
    for j, (lo, hi, start, end) in enumerate(
        zip(lows.tolist(), highs.tolist(), starts, ends)
    ):
        if start >= end:
            continue
        keep = np.ones(end - start, dtype=bool) if skip is None else (
            skip[start:end] != j
        )
        for a in others:
            x = cols[a, start:end]
            keep &= x >= lo[a]
            keep &= upper_cmp(x, hi[a])
        runs.append(order[start:end][keep] * len(lows) + j)
    # Unique (row, position) keys: sorting them is row-major order.
    return np.divmod(np.sort(np.concatenate(runs)), len(lows))


@dataclass
class Partition:
    """One partition: geometry plus pre-processing estimates."""

    pid: int
    rect: Rect
    est_points: float = 0.0
    est_cost: float = 0.0
    algorithm: Optional[str] = None


@dataclass
class PartitionPlan:
    """A complete partitioning of the domain, plus optional plans."""

    domain: Rect
    partitions: List[Partition]
    allocation: Optional[Dict[int, int]] = None
    strategy: str = "unknown"
    preprocess_cost: float = 0.0

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError("a plan needs at least one partition")
        pids = [p.pid for p in self.partitions]
        if len(set(pids)) != len(pids):
            raise ValueError("partition ids must be unique")
        self._by_pid = {p.pid: p for p in self.partitions}
        self._lows = np.asarray([p.rect.low for p in self.partitions])
        self._highs = np.asarray([p.rect.high for p in self.partitions])
        self._pids = np.asarray(pids, dtype=np.int64)
        # Exclusive upper faces: a partition owns ``[low, upper)``.  Shared
        # faces are half-open; a face on (or past) the domain's upper edge
        # is closed, i.e. exclusive one ulp further out.
        self._upper = np.where(
            self._highs < np.asarray(self.domain.high), self._highs,
            np.nextafter(self._highs, np.inf),
        )

    def __getstate__(self) -> dict:
        # The cell table is derived from the rectangles; a plan travels
        # to pool workers without it and each side rebuilds on first use.
        state = self.__dict__.copy()
        state.pop("_cells", None)
        return state

    # ------------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def partition(self, pid: int) -> Partition:
        return self._by_pid[pid]

    @property
    def algorithm_plan(self) -> Dict[int, Optional[str]]:
        return {p.pid: p.algorithm for p in self.partitions}

    # ------------------------------------------------------------------
    # Point resolution
    # ------------------------------------------------------------------
    def core_pid(self, point: Sequence[float]) -> int:
        """The single partition in which ``point`` is a core point."""
        core, _ = self.assign_batch(np.asarray([point], dtype=float), None)
        return int(core[0])

    def support_pids(self, point: Sequence[float], r: float) -> List[int]:
        """Partitions for which ``point`` is a support point (Def. 3.3).

        These are the partitions whose ``r``-expanded box contains the
        point (closed on every face), excluding the point's own core
        partition.
        """
        _, pairs = self.assign_batch(np.asarray([point], dtype=float), r)
        return pairs[:, 1].tolist()

    def core_pids_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`core_pid` for an ``(n, d)`` array."""
        core, _ = self.assign_batch(points, r=None)
        return core

    def assign_batch(
        self, points: np.ndarray, r: float | np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Vectorized core and support assignment for a point block.

        Returns ``(core_pids, support_pairs)`` where ``support_pairs`` is a
        ``(k, 2)`` array of ``(point_row, pid)`` support assignments in
        row-major ``(row, partition position)`` order (or None when ``r``
        is None).  ``r`` is one radius for every partition or one per
        partition, aligned with :attr:`partitions`; a radius of ``-inf``
        admits no support.  The core partition is one ``searchsorted``
        per axis and one gather from the plan's cell table; points no
        partition covers (outside the domain, or in a gap) snap to the
        nearest partition.
        """
        points = np.asarray(points, dtype=float)
        pos = self._core_positions(points)
        for i in np.nonzero(pos < 0)[0]:
            pos[i] = self._nearest_position(points[i])
        core = self._pids[pos]
        if r is None:
            return core, None
        if np.ndim(r):
            r = np.asarray(r, dtype=float)[:, None]
        # A point never supports its own core partition.
        rows, positions = _slab_pairs(
            points, self._lows - r, self._highs + r, closed=True,
            exclude=pos,
        )
        return core, np.stack([rows, self._pids[positions]], axis=1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @cached_property
    def _cells(self) -> tuple[List[np.ndarray], np.ndarray] | None:
        """``(edges, table)``: per-axis sorted partition faces and the
        position of the partition owning each cell between them.

        Built from the partitions' own bounds, so it is exact for any
        set of rectangles, grid-aligned or not.  ``table`` has one extra
        slot at both ends of every axis (below the first face, at or
        above the last) and holds -1 there and in gaps; where rectangles
        overlap the first partition wins.  None when the table would
        exceed :data:`_MAX_TABLE_CELLS`.
        """
        lows, upper = self._lows, self._upper
        edges = [
            np.unique(np.concatenate([lows[:, a], upper[:, a]]))
            for a in range(lows.shape[1])
        ]
        shape = tuple(len(e) + 1 for e in edges)
        if math.prod(shape) > _MAX_TABLE_CELLS:
            return None
        first, last = (
            np.stack(
                [np.searchsorted(e, bounds[:, a], "right")
                 for a, e in enumerate(edges)],
                axis=1,
            )
            for bounds in (lows, upper)
        )
        table = np.full(shape, -1, dtype=np.intp)
        for j in reversed(range(len(self.partitions))):
            table[tuple(map(slice, first[j], last[j]))] = j
        return edges, table

    def _core_positions(self, points: np.ndarray) -> np.ndarray:
        """Row -> position of the covering partition, -1 if none."""
        cells = self._cells
        if cells is None:
            rows, positions = _slab_pairs(
                points, self._lows, self._upper, closed=False
            )
            # Where rectangles overlap the first partition wins.
            covered, first = np.unique(rows, return_index=True)
            pos = np.full(points.shape[0], -1, dtype=np.intp)
            pos[covered] = positions[first]
            return pos
        edges, table = cells
        return table[tuple(
            np.searchsorted(e, points[:, a], "right")
            for a, e in enumerate(edges)
        )]

    def _nearest_position(self, point: np.ndarray) -> int:
        """Points outside every partition (possible when the domain was
        estimated from a sample) snap to the nearest partition."""
        gap = np.clip(point, self._lows, self._highs) - point
        return int(np.argmin(np.sum(gap ** 2, axis=1)))

    # ------------------------------------------------------------------
    def validate_tiling(self, samples: np.ndarray | None = None) -> None:
        """Sanity checks: disjoint interiors and (sampled) full coverage.

        Raises ``ValueError`` on violation.  O(m^2); intended for tests.
        """
        parts = self.partitions
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if parts[i].rect.overlaps_interior(parts[j].rect):
                    raise ValueError(
                        f"partitions {parts[i].pid} and {parts[j].pid} "
                        "overlap"
                    )
        if samples is not None:
            pids = self.core_pids_batch(samples)
            if (pids < 0).any():
                raise ValueError("some sample points are uncovered")
