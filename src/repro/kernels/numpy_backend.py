"""The ``numpy`` backend: query-block x candidate-tile batched scan.

The scan is :meth:`~repro.kernels.base.Kernel._scan_tiles`, the one
tiled driver shared with the vectorised-metric path; this backend
supplies only the Euclidean match tile.  Per tile a row count settles
which queries reached ``need``, and those alone pay the prefix sum that
recovers where a scalar loop would have stopped.  Decided queries leave
the working set — masked early termination at tile granularity, with
*charged* evals kept scalar-faithful at candidate granularity:

* a query whose cumulative count reaches ``need`` at tile column ``j`` is
  charged ``j + 1`` evals for that tile (its scalar stop position) and
  its count is pinned at exactly ``need``, the scalar stop count;
* an undecided query is charged the whole tile and keeps its exact count.

The dense products the tile actually computed (including the part past
each stop position) are reported as ``evals_computed`` — the price of
batching, visible in the ``kernel`` counter group as the
charged/computed ratio.

Tile widths grow geometrically from ``~2 x need`` up to the ``tile``
cap: most queries of an early-exit-friendly workload stop within their
first few dozen candidates, where a fixed wide tile would compute an
order of magnitude more distances than the scalar loop charges.  Neither
tile width nor query blocking affects results — the prefix sum
reconstructs the same scalar stop positions under any split.

Nothing but the boolean result is allocated per tile: distances
accumulate through ``out=`` into two flat buffers made once per call,
sized to the call and reshaped (contiguous views) per tile.  A fresh
``(rows, tile)`` float64 temporary arrives as page-faulted memory and
costs several times the arithmetic it holds.

**Several problems.**  ``count_neighbors_batch`` hands the problems
that do not sweep (below) to one pass (``_scan``): their query rows are
stacked in problem order and their candidates held in one
coordinate-major block, padded with ``+inf`` past each problem's own
``n_c``, so a row never matches a padded column.  A tile whose live rows
share one problem broadcasts its columns; otherwise each row gathers
its own.  Rows are booked against their own ``n_c``, so every problem's
counts, charged and computed evals are its own call's.

**The sweep.**  Lemma 4.1 puts a query's stop position near
``need · A(bbox) / A(ball_r)`` of the random-order candidates, so on a
large sparse call the plain scan computes most of the candidates for
every query, nearly all of them far away.  A candidate farther than
``r`` from a query along one axis cannot match it.  So the queries are
cut into strips along the candidates' widest axis, and each strip scans
only the candidates whose coordinate on that axis lies within ``reach``
of the strip — in their given order, through the same tiled driver and
buffers, with a position map: a decided query is charged its
``need``-th match's position in the full order + 1, an undecided one all
``n_c``.  Counts and charged evals are the plain scan's;
``evals_computed`` (and wall time) fall, below the charge.

*Exactness.*  ``reach = r + 2**-40 * (r + M)``, with ``M`` the largest
coordinate magnitude on the sweep axis in the call.  With unit roundoff
``u = 2**-53``, computing ``reach`` is off by at most ``2u · reach`` and
a window bound ``fl(x ± reach)`` by at most ``u (M + reach)``, so a
candidate left out lies more than ``r + 2**-41 (r + M) >= r (1 + 2**-41)``
from every query of its strip on that axis.  The kernel's ``fl(q - c)``
and its square each lose at most a factor ``1 - u``, and adding the
other axes' non-negative squares never rounds the sum below that term,
so the computed ``d2 > r² (1 + 2**-41)² (1 - u)³ > fl(r * r)``: the
candidate could not have matched.  That needs ``r * r`` to be a normal
float (no underflow, no overflow), which the gate checks, and ``r >= 0``,
which :meth:`~repro.kernels.base.Kernel.count_neighbors` enforces.

*When.*  A window pays only where queries would scan far: a dense call's
queries stop early, and there a window costs more than it saves.  The
gate reads only the call's shape — ``n_q``, ``n_c``, ``need``, ``r`` and
the candidates' bounding box — and sweeps when there are at least
:data:`SWEEP_MIN_QUERIES` queries and Lemma 4.1's stop position is at
least :data:`SWEEP_STOP_SHARE` of the candidates.  Like
``base.ROW_BLOCK`` these and the strip sizes are module constants, not
settings (``docs/kernels.md``, "The sweep").
"""

from __future__ import annotations

import math

import numpy as np

from . import base

__all__ = ["NumpyKernel"]

#: A call sweeps only with at least this many queries (enough to fill
#: strips) ...
SWEEP_MIN_QUERIES = 512
#: ... and when Lemma 4.1's stop position ``need · A(bbox) / A(ball_r)``
#: is at least this share of its candidates.
SWEEP_STOP_SHARE = 0.25
#: A strip takes the queries within ``STRIP_WIDTH * r`` of its first
#: along the sweep axis, and at least ``STRIP_MIN_QUERIES`` of them.
STRIP_WIDTH = 0.5
STRIP_MIN_QUERIES = 64


class NumpyKernel(base.Kernel):
    """Tiled vectorized scan with masked early termination."""

    name = "numpy"

    def _count(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
    ) -> tuple[np.ndarray, int, int]:
        axis = _sweep_axis(queries, candidates, r, need)
        if axis is None:
            return self._scan([(queries, candidates)], r, need)[0]
        return self._sweep(queries, candidates, r, need, axis)

    def scans_alone(self, queries, candidates, r, need, metric=None) -> bool:
        # Other metrics, and calls the sweep takes, go one at a time.
        return (
            metric is not None and not metric.is_euclidean
        ) or _sweep_axis(queries, candidates, r, need) is not None

    def _count_batch(
        self, problems, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        """One tiled pass per dimension among the problems."""
        results: list = [None] * len(problems)
        by_dim: dict[int, list[int]] = {}
        for i, (queries, _) in enumerate(problems):
            by_dim.setdefault(queries.shape[1], []).append(i)
        for index in by_dim.values():
            for i, result in zip(index, self._scan(
                [problems[i] for i in index], r, need
            )):
                results[i] = result
        return results

    def _scan(
        self, problems, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        """One tiled pass over the queries of every problem (one ``d``).

        Candidates are held as one coordinate-major ``(d, P, max n_c)``
        block, each problem's row padded with ``+inf`` past its ``n_c``:
        no query is within ``r`` of a padded column, so a tile may run
        past a row's own candidates without it matching anything there.
        """
        sizes = [queries.shape[0] for queries, _ in problems]
        n_c = np.array([candidates.shape[0] for _, candidates in problems])
        if len(problems) == 1:
            ((queries, candidates),) = problems
            planes = np.ascontiguousarray(candidates.T)[:, None, :]
            owner, limits = None, int(n_c[0])
        else:
            queries = np.concatenate([q for q, _ in problems])
            owner = np.repeat(np.arange(len(problems)), sizes)
            limits = n_c[owner]
            planes = np.full(
                (queries.shape[1], len(problems), int(n_c.max())), np.inf
            )
            for p, (_, candidates) in enumerate(problems):
                planes[:, p, :candidates.shape[0]] = candidates.T
        match = _match(planes, r * r, self._scratch(
            queries.shape[0], int(n_c.max())
        ))
        counts, charged, computed = self._scan_tiles(
            queries, limits, need, match, owner=owner
        )
        ends = np.cumsum(sizes).tolist()
        return [
            (counts[end - size:end], c, m)
            for end, size, c, m in zip(ends, sizes, charged, computed)
        ]

    def _sweep(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
        axis: int,
    ) -> tuple[np.ndarray, int, int]:
        """Strips of queries along ``axis``, each scanning only its
        ``r``-window of the candidates (module docstring: the sweep)."""
        n_c = candidates.shape[0]
        columns = np.ascontiguousarray(candidates.T)
        scratch = self._scratch(queries.shape[0], n_c)
        order = np.argsort(queries[:, axis], kind="stable")
        x = queries[order, axis]
        by_x = np.argsort(columns[axis], kind="stable")
        cx = columns[axis, by_x]
        scale = max(abs(x[0]), abs(x[-1]), abs(cx[0]), abs(cx[-1]))
        reach = r + 2.0**-40 * (r + float(scale))
        counts = np.empty(queries.shape[0], dtype=np.int64)
        charged = computed = 0
        for low, high in _strips(x, r):
            # The strip's window, back in the given (scan) order.
            window = np.sort(by_x[
                np.searchsorted(cx, x[low] - reach):
                np.searchsorted(cx, x[high - 1] + reach, side="right")
            ])
            rows = order[low:high]
            match = _match(columns[:, window][:, None, :], r * r, scratch)
            strip_counts, (strip_charged,), (strip_computed,) = (
                self._scan_tiles(queries[rows], n_c, need, match, window)
            )
            counts[rows] = strip_counts
            charged += strip_charged
            computed += strip_computed
        return counts, charged, computed

    def _scratch(self, n_q: int, n_c: int) -> np.ndarray:
        """The two flat distance buffers of one call, sized to it."""
        return np.empty(
            (2, min(base.ROW_BLOCK, n_q) * min(self.tile, n_c))
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


def _sweep_axis(
    queries: np.ndarray, candidates: np.ndarray, r: float, need: int
) -> int | None:
    """The axis to sweep this call along, or ``None`` for the plain scan
    (module docstring: the gate, and why the margin needs ``r * r``
    normal and the coordinates finite)."""
    n_c, d = candidates.shape
    if queries.shape[0] < SWEEP_MIN_QUERIES or not (
        np.finfo(np.float64).tiny <= r * r < math.inf
    ):
        return None
    extent = candidates.max(axis=0) - candidates.min(axis=0)
    if not np.isfinite(extent).all():
        return None
    # need · A(bbox) / A(ball_r) against a share of n_c, with the unit
    # ball's volume pi^(d/2) / Gamma(d/2 + 1) taken through logs so no
    # dimension overflows.
    unit_ball = math.exp(d / 2 * math.log(math.pi) - math.lgamma(d / 2 + 1))
    stop = need * math.prod(e / r for e in extent.tolist()) / unit_ball
    if stop < SWEEP_STOP_SHARE * n_c:
        return None
    axis = int(extent.argmax())
    if not np.isfinite(queries[:, axis]).all():
        return None
    return axis


def _strips(x: np.ndarray, r: float):
    """``(low, high)`` runs of the sorted sweep coordinates ``x``: each
    holds the queries within ``STRIP_WIDTH * r`` of its first and at
    least ``STRIP_MIN_QUERIES``; a shorter tail joins the last strip."""
    low, n = 0, x.size
    while low < n:
        high = max(
            int(np.searchsorted(x, x[low] + STRIP_WIDTH * r, side="right")),
            low + STRIP_MIN_QUERIES,
        )
        if n - high < STRIP_MIN_QUERIES:
            high = n
        yield low, high
        low = high
