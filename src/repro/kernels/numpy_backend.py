"""The ``numpy`` backend: query-block x candidate-tile batched scan.

The scan is :meth:`~repro.kernels.base.Kernel._scan_tiles`, the one
tiled driver shared with the vectorised-metric path; this backend
supplies only the Euclidean match tile.  Per tile a row count settles
which queries reached ``need``, and those alone have their matches
listed to recover where a scalar loop would have stopped.  Decided
queries leave the working set — masked early termination at tile
granularity, with *charged* evals kept scalar-faithful at candidate
granularity:

* a query whose cumulative count reaches ``need`` at tile column ``j`` is
  charged ``j + 1`` evals for that tile (its scalar stop position) and
  its count is pinned at exactly ``need``, the scalar stop count;
* an undecided query is charged the whole tile and keeps its exact count.

The dense products the tile actually computed (including the part past
each stop position) are reported as ``evals_computed`` — the price of
batching, visible in the ``kernel`` counter group as the
charged/computed ratio.

Tile widths grow geometrically from ``~2 x need`` up to the ``TILE``
cap: most queries of an early-exit-friendly workload stop within their
first few dozen candidates, where a fixed wide tile would compute an
order of magnitude more distances than the scalar loop charges.  Neither
tile width nor query blocking affects results — the stop positions are
the same scalar ones under any split.

Nothing but the boolean result is allocated per tile: distances
accumulate through ``out=`` into two flat buffers made once per call,
sized to the call and reshaped (contiguous views) per tile.  A fresh
``(rows, tile)`` float64 temporary arrives as page-faulted memory and
costs several times the arithmetic it holds.

**Several problems.**  ``count_neighbors_batch`` hands every Euclidean
problem to the tiled passes of ``_scan``, swept or not: per dimension,
one pass over the problems scanned whole and one over the cells of the
swept ones (below).  Each *piece* of a pass — a whole problem or a cell
— is a run of stacked query rows with its own window of candidates.
The windows are held in one coordinate-major block, padded with
``+inf`` past each one's width, so a row never matches a padded column;
cells and whole problems take separate passes because a cell's window
is small (the gate sweeps only sparse problems) and a whole problem's is
all its candidates, which would pad every cell beside it.  A tile whose
live rows share one piece broadcasts its columns; otherwise each row
gathers its own.  Rows are booked against their own problem (a position
map turns a cell's window column back into a scan position), so every
problem's counts, charged and computed evals are those it gets alone.

**The sweep.**  Lemma 4.1 puts a query's stop position near
``need · A(D) / A(ball_r)`` of the random-order candidates of the region
``D`` it scans, so on a large sparse problem the plain scan computes
most of the candidates for every query, nearly all of them far away.  A
candidate farther than ``r`` from a query along one axis cannot match
it.  So the queries are cut into *cells*: bins of a grid
``CELL_LENGTHS[0] * r`` wide along the candidates' widest axis and
``CELL_LENGTHS[1] * r`` along the second widest (strips only when
``d == 1``).  A cell scans only the candidates within ``reach`` of its
own queries on both axes — in their given order, in the pass it shares
with the other cells of the batch, with its own position map: a decided
query is charged its ``need``-th match's position in the full order + 1,
an undecided one all ``n_c``.  Counts and charged evals are the plain scan's;
``evals_computed`` (and wall time) fall, below the charge.  A cell is
not a call: ``Kernel.calls`` counts the problem once.

*Exactness*, on each cut axis separately.  ``reach = r + 2**-40 * (r +
M)``, with ``M`` the largest coordinate magnitude on that axis in the
problem.  With unit roundoff ``u = 2**-53``, computing ``reach`` is off
by at most ``2u · reach`` and a window bound ``fl(x ± reach)`` by at
most ``u (M + reach)``, so a candidate left out of a cell's window lies,
on some cut axis, more than ``r + 2**-41 (r + M) >= r (1 + 2**-41)``
from every query of the cell.  The kernel's ``fl(q - c)`` on that axis
and its square each lose at most a factor ``1 - u``, and adding the
other axes' non-negative squares never rounds the sum below that term,
so the computed ``d2 > r² (1 + 2**-41)² (1 - u)³ > fl(r * r)``: the
candidate could not have matched.  That needs ``r * r`` to be a normal
float (no underflow, no overflow), which the gate checks, and ``r >= 0``,
which :meth:`~repro.kernels.base.Kernel.count_neighbors_batch` enforces.
How queries are grouped never matters: a cell's bounds are its own
queries' extremes, so a grid key that rounds can only split a cell.

*When.*  A window pays only where queries would scan far: a dense
problem's queries stop early, and there a window costs more than it
saves.  The gate reads only the problem's shape — ``n_q``, ``n_c``,
``need``, ``r`` and the candidates' bounding box — and sweeps when there
are at least :data:`SWEEP_MIN_QUERIES` queries and Lemma 4.1's stop
position is at least :data:`SWEEP_STOP_SHARE` of the candidates.  Like
``base.ROW_BLOCK`` these and the cell lengths are module constants, not
settings (``docs/kernels.md``, "The sweep").
"""

from __future__ import annotations

import math

import numpy as np

from . import base

__all__ = ["NumpyKernel"]

#: A problem sweeps only with at least this many queries (enough to
#: fill cells) ...
SWEEP_MIN_QUERIES = 512
#: ... and when Lemma 4.1's stop position ``need · A(bbox) / A(ball_r)``
#: is at least this share of its candidates.
SWEEP_STOP_SHARE = 0.25
#: A swept problem's cells are bins this many ``r`` wide (positive)
#: along the candidates' widest axis, then the second widest.
CELL_LENGTHS = (1.5, 2.0)


class NumpyKernel(base.Kernel):
    """Tiled vectorized scan with masked early termination."""

    name = "numpy"

    def _count_batch(
        self, problems, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        """Per dimension, one tiled pass over the problems scanned whole
        and one over the cells of those that sweep.  A pass pads every
        window to its widest, and a whole problem's window is all its
        candidates, where a cell's is a small box of a sparse problem's
        (module docstring: the sweep)."""
        results: list = [None] * len(problems)
        passes: dict[tuple[int, bool], list] = {}
        for i, (queries, candidates) in enumerate(problems):
            columns = np.ascontiguousarray(candidates.T)
            cells = _cells(queries, columns, r, need)
            passes.setdefault((queries.shape[1], cells is None), []).append(
                (i, queries, columns, cells)
            )
        for scans in passes.values():
            for (i, *_), result in zip(scans, self._scan(scans, r, need)):
                results[i] = result
        return results

    def _scan(
        self, scans, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        """One tiled pass over ``(i, queries, columns, cells)`` problems
        of one ``d`` (``columns``: the candidates coordinate-major), all
        scanned whole or all in their cells (``cells``, module
        docstring: the sweep).

        Either way each *piece* — a whole problem or a cell — is a run
        of stacked query rows with its own window of candidates.
        Windows are held as one coordinate-major ``(d, pieces, max w)``
        block, padded with ``+inf`` past each one's width: no query is
        within ``r`` of a padded column, so a tile may run past a row's
        own window without it matching anything there.
        """
        if len(scans) == 1 and scans[0][3] is None:
            ((_, queries, columns, _),) = scans
            match = _match(columns[:, None, :], r * r, self._scratch(
                queries.shape[0], columns.shape[1]
            ))
            counts, charged, computed = self._scan_tiles(
                queries, columns.shape[1], need, match
            )
            return [(counts, int(charged.sum()), int(computed.sum()))]
        # Per problem: its query rows in stacked order (``None``: as
        # given), and its pieces' query counts and windows (``None``:
        # all of its candidates, in order).
        parts = [
            cells or (None, [queries.shape[0]], [None])
            for _, queries, _, cells in scans
        ]
        owner = np.repeat(
            np.arange(len(scans)), [len(sizes) for _, sizes, _ in parts]
        )
        windows = [window for _, _, part in parts for window in part]
        n_c = np.array([columns.shape[1] for _, _, columns, _ in scans])
        width = int(max(
            n_c[p] if window is None else window.size
            for p, window in zip(owner, windows)
        ))
        planes = np.full((scans[0][2].shape[0], owner.size, width), np.inf)
        positions = None
        if scans[0][3] is not None:
            positions = np.repeat(n_c[owner][:, None], width, axis=1)
        for at, (p, window) in enumerate(zip(owner.tolist(), windows)):
            columns = scans[p][2]
            if window is None:
                planes[:, at, :n_c[p]] = columns
            else:
                planes[:, at, :window.size] = columns[:, window]
                positions[at, :window.size] = window
        queries = np.concatenate([
            queries if rows is None else queries[rows]
            for (_, queries, _, _), (rows, _, _) in zip(scans, parts)
        ])
        sizes = np.concatenate([sizes for _, sizes, _ in parts])
        match = _match(planes, r * r, self._scratch(queries.shape[0], width))
        counts, charged, computed = self._scan_tiles(
            queries, n_c[owner], need, match,
            owner=np.repeat(np.arange(owner.size), sizes),
            positions=positions,
        )
        # Sums per problem, and counts back in each problem's own order.
        first = np.cumsum([0] + [q.shape[0] for _, q, _, _ in scans[:-1]])
        charged = np.add.reduceat(charged, first).tolist()
        computed = np.add.reduceat(computed, first).tolist()
        results, low = [], 0
        for (_, queries, _, _), (rows, _, _), p_charged, p_computed in zip(
            scans, parts, charged, computed
        ):
            high = low + queries.shape[0]
            p_counts = counts[low:high]
            if rows is not None:
                p_counts = np.empty_like(p_counts)
                p_counts[rows] = counts[low:high]
            results.append((p_counts, p_charged, p_computed))
            low = high
        return results

    def _scratch(self, n_q: int, n_c: int) -> np.ndarray:
        """The two flat distance buffers of one call, sized to it."""
        return np.empty(
            (2, min(base.ROW_BLOCK, n_q) * min(base.TILE, n_c))
        )


def _match(planes: np.ndarray, r2: float, scratch: np.ndarray):
    """The Euclidean ``match`` of :meth:`~repro.kernels.base.Kernel.
    _scan_tiles` over coordinate-major candidates ``planes[j, p, c]``
    (coordinate ``j`` of problem ``p``'s candidate ``c``)."""

    def match(q: np.ndarray, own, start: int, stop: int) -> np.ndarray:
        # Per-coordinate accumulation, in coordinate order: the same
        # float ops the scalar oracle performs, so d2 is bitwise
        # identical (no a^2+b^2-2ab expansion, whose rounding could flip
        # exact boundary distances).  An ``int`` ``own`` broadcasts one
        # problem's candidates; an array gathers each row's own.
        rows, width = q.shape[0], stop - start
        d2, sq = scratch[:, :rows * width].reshape(2, rows, width)
        np.subtract(q[:, :1], planes[0, own, start:stop], out=d2)
        np.square(d2, out=d2)
        for j in range(1, q.shape[1]):
            np.subtract(q[:, j:j + 1], planes[j, own, start:stop], out=sq)
            np.square(sq, out=sq)
            np.add(d2, sq, out=d2)
        return d2 <= r2

    return match


def _sweep_axes(
    queries: np.ndarray, columns: np.ndarray, r: float, need: int
) -> list[tuple[int, float]] | None:
    """The axes to cut a problem's cells along — the candidates' widest,
    then second widest — each with ``M``, the largest coordinate
    magnitude on it; ``None`` for the plain scan (module docstring: the
    gate, and why the margin needs ``r * r`` normal and the coordinates
    finite).  ``columns`` holds the candidates coordinate-major."""
    d, n_c = columns.shape
    if queries.shape[0] < SWEEP_MIN_QUERIES or not (
        np.finfo(np.float64).tiny <= r * r < math.inf
    ):
        return None
    low, high = columns.min(axis=1), columns.max(axis=1)
    extent = high - low
    if not np.isfinite(extent).all():
        return None
    # need · A(bbox) / A(ball_r) against a share of n_c, with the unit
    # ball's volume pi^(d/2) / Gamma(d/2 + 1) taken through logs so no
    # dimension overflows.
    unit_ball = math.exp(d / 2 * math.log(math.pi) - math.lgamma(d / 2 + 1))
    stop = need * math.prod(e / r for e in extent.tolist()) / unit_ball
    if stop < SWEEP_STOP_SHARE * n_c:
        return None
    axes = []
    for axis in np.argsort(-extent, kind="stable")[:len(CELL_LENGTHS)]:
        x = queries[:, axis]
        ends = [low[axis], high[axis], x.min(), x.max()]
        if not np.isfinite(ends).all():
            return None
        axes.append((int(axis), float(np.abs(ends).max())))
    return axes


def _cells(
    queries: np.ndarray, columns: np.ndarray, r: float, need: int
) -> tuple[np.ndarray, list[int], list[np.ndarray]] | None:
    """A swept problem's cells: ``(rows, sizes, windows)`` — its query
    rows in cell order, each cell's query count, and each cell's window
    (ascending, i.e. in scan order); ``None`` if it does not sweep.
    ``columns`` holds the candidates coordinate-major.

    A cell is the queries of one occupied bin of a grid
    ``CELL_LENGTHS[i] * r`` wide along the ``i``-th cut axis; its window
    is the candidates within ``reach`` of the cell's own queries on each
    cut axis.  Cells are taken strip by strip (one bin along the first
    axis), each strip's candidates found once.
    """
    axes = _sweep_axes(queries, columns, r, need)
    if axes is None:
        return None
    coords = [queries[:, axis] for axis, _ in axes]
    bins = [
        np.floor((x - x.min()) / (length * r))
        for x, length in zip(coords, CELL_LENGTHS)
    ]
    # Bin order.  Cells end wherever a bin changes, so a key that
    # rounds can split a cell but never merge two.
    key = bins[0]
    if len(bins) > 1:
        key = key * (bins[1].max() + 1) + bins[1]
    rows = np.argsort(key)
    coords = [x[rows] for x in coords]
    edges = [np.diff(b[rows]) != 0 for b in bins]
    cells = np.concatenate(
        [[0], np.flatnonzero(np.logical_or.reduce(edges)) + 1, [rows.size]]
    )
    strips = np.searchsorted(
        cells, np.concatenate([[0], np.flatnonzero(edges[0]) + 1, [rows.size]])
    )
    low = [np.minimum.reduceat(x, cells[:-1]) for x in coords]
    high = [np.maximum.reduceat(x, cells[:-1]) for x in coords]
    reach = [r + 2.0**-40 * (r + scale) for _, scale in axes]
    along = columns[axes[0][0]]
    windows = []
    for first, last in zip(strips[:-1].tolist(), strips[1:].tolist()):
        # The strip's candidates, then each of its cells' among them.
        near = np.flatnonzero(
            (along >= low[0][first:last].min() - reach[0])
            & (along <= high[0][first:last].max() + reach[0])
        )
        inside = np.ones((last - first, near.size), dtype=bool)
        for (axis, _), lo, hi, margin in zip(axes, low, high, reach):
            cx = columns[axis, near]
            inside &= cx >= (lo[first:last] - margin)[:, None]
            inside &= cx <= (hi[first:last] + margin)[:, None]
        windows.extend(near.compress(cell) for cell in inside)
    return rows, np.diff(cells).tolist(), windows
