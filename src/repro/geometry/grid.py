"""Uniform grids over a rectangular domain.

Two distinct grids appear in the paper and both are provided by
:class:`UniformGrid`:

* the *partitioning* grid of the DOD framework (Sec. III-A), whose cells are
  shipped to reducers together with their supporting areas, and
* the *mini bucket* grid of the DMT pre-processing job (Sec. V-A), whose
  per-bucket statistics feed the DSHC clustering algorithm.

The Cell-Based detector (Sec. IV-B) and the fast tier's witness pruning
ask which points lie in the cells around a cell, on a sparse grid that
may span more cells than a flat index can number: :class:`CellIndex`
answers with one sort of the occupied cells and vectorised searches.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .rect import Rect

__all__ = ["CellIndex", "UniformGrid", "balanced_factorization"]


def balanced_factorization(m: int, ndim: int) -> tuple[int, ...]:
    """Split ``m`` into ``ndim`` factors as close to ``m**(1/ndim)`` as
    possible, rounding the product up so at least ``m`` cells exist.

    Used when a strategy is asked for "about m partitions" of a d-dimensional
    space with an equi-width grid.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if ndim < 1:
        raise ValueError("need ndim >= 1")
    base = max(1, round(m ** (1.0 / ndim)))
    factors = [base] * ndim
    # Grow one axis at a time until the grid has at least m cells.
    i = 0
    while math.prod(factors) < m:
        factors[i % ndim] += 1
        i += 1
    return tuple(factors)


@dataclass(frozen=True)
class UniformGrid:
    """An equi-width grid of ``shape[i]`` cells along each dimension."""

    domain: Rect
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.shape) != self.domain.ndim:
            raise ValueError(
                f"grid shape has {len(self.shape)} dims, "
                f"domain has {self.domain.ndim}"
            )
        if any(s < 1 for s in self.shape):
            raise ValueError("every grid dimension needs at least one cell")

    # ------------------------------------------------------------------
    @classmethod
    def with_cells(cls, domain: Rect, n_cells: int) -> "UniformGrid":
        """A grid with roughly ``n_cells`` cells, balanced across dims."""
        return cls(domain, balanced_factorization(n_cells, domain.ndim))

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_widths(self) -> tuple[float, ...]:
        return tuple(map(operator.truediv, self.domain.widths, self.shape))

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def cell_of(self, point: Sequence[float]) -> tuple[int, ...]:
        """Multi-index of the cell containing ``point`` (clamped to the
        domain so boundary points map to the last cell, not one past it)."""
        idx = []
        for x, lo, w, s in zip(
            point, self.domain.low, self.cell_widths, self.shape
        ):
            if w <= 0:
                idx.append(0)
                continue
            i = int((x - lo) / w)
            idx.append(min(max(i, 0), s - 1))
        return tuple(idx)

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of`: returns an ``(n, d)`` int array."""
        points = np.asarray(points, dtype=float)
        low = np.asarray(self.domain.low)
        widths = np.asarray(self.cell_widths)
        shape = np.asarray(self.shape)
        safe_widths = np.where(widths > 0, widths, 1.0)
        idx = np.floor((points - low) / safe_widths).astype(np.int64)
        idx = np.where(widths > 0, idx, 0)
        return np.clip(idx, 0, shape - 1)

    def flat_index(self, idx: Sequence[int]) -> int:
        """Row-major linearization of a multi-index."""
        flat = 0
        for i, s in zip(idx, self.shape):
            flat = flat * s + i
        return flat

    def flat_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized row-major linearization of an ``(n, d)`` index array."""
        return np.ravel_multi_index(tuple(np.asarray(idx).T), self.shape)

    def unflatten(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        idx = []
        for s in reversed(self.shape):
            idx.append(flat % s)
            flat //= s
        return tuple(reversed(idx))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cell_rect(self, idx: Sequence[int]) -> Rect:
        """The box of cell ``idx``."""
        for i, s in zip(idx, self.shape):
            if not 0 <= i < s:
                raise IndexError(f"cell index {i} out of range [0, {s})")
        faces = self._axis_faces([(i,) for i in idx])
        low, high = zip(*(axis[0] for axis in faces))
        return Rect(low, high)

    def _axis_faces(self, indices=None) -> list[list[tuple[float, float]]]:
        """Per axis, the ``(low, high)`` bounds of the cells ``indices[axis]``
        (default: every cell of the axis).

        The one place cell faces are computed: planning reads whole axes
        here instead of asking for a :meth:`cell_rect` per mini bucket.
        """
        return [
            [
                # Snap the final cell's face to the domain face so the grid
                # tiles the domain exactly despite floating point division.
                (lo + i * w, hi if i == s - 1 else lo + (i + 1) * w)
                for i in cells
            ]
            for cells, lo, hi, w, s in zip(
                map(range, self.shape) if indices is None else indices,
                self.domain.low,
                self.domain.high,
                self.cell_widths,
                self.shape,
            )
        ]

    @cached_property
    def faces(self) -> list[list[tuple[float, float]]]:
        """:meth:`_axis_faces` of every whole axis, computed once per grid
        for the callers that read them per rectangle."""
        return self._axis_faces()

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """The flat-index step of one cell along each axis (row-major)."""
        return tuple(
            math.prod(self.shape[axis + 1:]) for axis in range(len(self.shape))
        )

    def iter_cells(self) -> Iterator[tuple[int, ...]]:
        """All multi-indices in row-major order."""
        return itertools.product(*(range(s) for s in self.shape))

    def cells_within(self, rect: Rect) -> Iterator[tuple[int, ...]]:
        """Multi-indices of all cells whose box intersects ``rect``.

        This is how the DOD mapper finds the cells for which a point is a
        *support* point: the cells intersecting the ``r``-ball's bounding box
        around the point (equivalently, the cells whose ``r``-expansion
        contains the point, by symmetry of the extension).
        """
        first, last = self.cell_spans([rect.low], [rect.high])
        return itertools.product(
            *map(range, first[0].tolist(), (last[0] + 1).tolist())
        )

    def cell_spans(self, low, high) -> tuple[np.ndarray, np.ndarray]:
        """Per box and axis, the first and last index of the cells whose
        box intersects the box ``[low[i], high[i]]``: two ``(m, d)`` int
        arrays for ``(m, d)`` corners (:meth:`cells_within` is the
        product of one box's spans).

        Every element takes the float operations of the one-box rule, so
        a box gets the same cells in a batch as alone.
        """
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        origin = np.asarray(self.domain.low, dtype=float)
        widths = np.asarray(self.cell_widths, dtype=float)
        flat = widths <= 0
        step = np.where(flat, 1.0, widths)
        first = np.floor((low - origin) / step)
        last = np.floor((high - origin) / step)
        # A rect face lying exactly on a cell boundary belongs to the
        # lower cell for its upper face (closed boxes touch).
        last = np.where(
            (last * widths + origin == high) & (last > first), last - 1.0, last
        )
        top = np.asarray(self.shape) - 1
        return tuple(
            np.where(flat, 0, np.clip(index, 0, top)).astype(np.int64)
            for index in (first, last)
        )


def _find(values: np.ndarray, wanted: np.ndarray):
    """Where each of ``wanted`` is, or would go, in the sorted
    ``values``, and whether it is there."""
    at = np.minimum(np.searchsorted(values, wanted), values.size - 1)
    return at, values[at] == wanted


class CellIndex:
    """Points binned into sparse integer cells, sorted once.

    Point ``i`` lies in cell ``floor(coords[i])``; a coordinate that is
    not finite or not below ``2**62`` in magnitude is a ``ValueError``.
    Occupied cells are numbered in lexicographic order.  Each axis is
    ranked on its own and the ranks are combined one axis at a time, so
    no key exceeds the point count squared, however many cells the
    coordinates span.

    ``cell_of[i]`` is point ``i``'s cell, ``cells[c]`` cell ``c``'s
    coordinates and ``counts[c]`` its population.  ``rows`` lists the
    point rows cell by cell, in row order within a cell: cell ``c``'s
    are ``rows[bounds[c]:bounds[c + 1]]``.
    """

    def __init__(self, coords: np.ndarray) -> None:
        coords = np.asarray(coords, dtype=float)
        if not (np.abs(coords) < 2.0**62).all():  # NaN fails this too
            raise ValueError("cell coordinates must be finite and below 2**62")
        coords = np.floor(coords).astype(np.int64)
        self._axes, self._levels = [], []
        for axis, column in enumerate(coords.T):
            values, rank = np.unique(column, return_inverse=True)
            self._axes.append(values)
            if axis:
                level, rank = np.unique(
                    key * values.size + rank, return_inverse=True
                )
                self._levels.append(level)
            key = rank.reshape(-1)
        self.cell_of = key
        self.rows = np.argsort(self.cell_of, kind="stable")
        self.counts = np.bincount(self.cell_of)
        self.bounds = np.concatenate(([0], np.cumsum(self.counts)))
        self.cells = coords[self.rows[self.bounds[:-1]]]

    def runs(self, targets: np.ndarray, radius: int):
        """Yield ``(prefix, begin, end)`` for every offset ``prefix`` of
        Chebyshev norm ``<= radius`` on all axes but the last, in
        lexicographic order: ``rows[begin[t]:end[t]]`` are the points of
        the cells within Chebyshev distance ``radius`` of ``targets[t]``
        whose other coordinates are ``targets[t] + prefix``, cell by
        cell.  A prefix costs one search per axis level and two on the
        last, each vectorised over the targets.
        """
        targets = np.asarray(targets, dtype=np.int64)
        *lead, last = self._axes
        shifts = range(-radius, radius + 1)
        on_axis = [
            [_find(values, column + shift) for shift in shifts]
            for values, column in zip(lead, targets.T)
        ]
        window = (
            np.searchsorted(last, targets[:, -1] - radius),
            np.searchsorted(last, targets[:, -1] + radius, side="right"),
        )

        def walk(axis, offset, prefix, hit):
            if axis == len(lead):
                span = [
                    np.searchsorted(self._levels[-1], prefix * last.size + rank)
                    if lead else rank
                    for rank in window
                ]
                yield (offset, *(np.where(hit, self.bounds[at], 0)
                                 for at in span))
                return
            for shift, (key, found) in zip(shifts, on_axis[axis]):
                found = hit & found
                if axis:
                    key, stored = _find(
                        self._levels[axis - 1], prefix * lead[axis].size + key
                    )
                    found &= stored
                yield from walk(axis + 1, (*offset, shift), key, found)

        return walk(0, (), None, True)

    def neighbourhood(
        self, targets: np.ndarray, radius: int, beyond: int = -1
    ) -> tuple[np.ndarray, np.ndarray]:
        """The point rows in the cells at Chebyshev offsets above
        ``beyond`` and up to ``radius`` from each row of ``targets``:
        ``(rows, sizes)``, target by target — ``sizes[t]`` rows each —
        cell by cell in lexicographic offset order and in row order
        within a cell."""
        inner = self.runs(targets, beyond) if beyond >= 0 else ()
        holes = {prefix: span for prefix, *span in inner}
        pieces = []
        for prefix, begin, end in self.runs(targets, radius):
            hole, after = holes.get(prefix, (end, end))
            for low, high in ((begin, hole), (after, end)):
                kept = np.flatnonzero(high > low)
                pieces.append((kept, low[kept], high[kept] - low[kept]))
        owner, begins, lengths = map(np.concatenate, zip(*pieces))
        # Only the non-empty spans, target by target in offset order.
        order = np.argsort(owner, kind="stable")
        total = np.cumsum(lengths[order])
        rows = self.rows[
            np.arange(total[-1] if total.size else 0)
            + np.repeat(begins[order] - total + lengths[order], lengths[order])
        ]
        return rows, np.bincount(owner, lengths, len(targets)).astype(np.int64)
