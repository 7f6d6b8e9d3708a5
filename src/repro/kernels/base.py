"""The distance-kernel ABI: one narrow contract every backend satisfies.

A *kernel* evaluates one block of query points against one block of
candidate points under the early-exit-at-``need`` scan semantics of
Lemma 4.1 — the inner loop every scan-based detector (Nested-Loop, the
Cell-Based fallback, the ring fallback) spends its time in.  Keeping the
contract this narrow is what lets backends swap freely: the scalar
``python`` oracle and the tiled ``numpy`` backend must be
*observationally identical* — same counts, same ``distance_evals`` — so
switching backends can only ever change wall time, never results or
deterministic cost accounting.

Contract (enforced by :meth:`Kernel.count_neighbors_batch`, the one
scan entry, verified by the differential suite in
``tests/test_kernel_equivalence.py``):

* Candidates are examined **in the order given**.  Callers that need the
  random-order scan permute candidates first (``repro.detectors._scan``).
* For each query the scan behaves like the scalar loop: examine
  candidates one at a time, increment the running count on each match
  (``d <= r``), and stop *immediately* when the count reaches ``need``.
* ``counts[i]`` is the running count at the moment the scan stopped:
  exactly ``need`` for early-terminated queries, the exact total
  (``< need``) otherwise.  Equivalently ``min(total_matches, need)``.
* ``distance_evals`` charges each query the number of candidates a
  scalar loop would have examined: the 1-based position of its
  ``need``-th match, or the full candidate count if it never terminated.
  What a backend *computes* is reported separately as
  ``evals_computed`` and may differ either way: tiles overshoot a stop
  position (more), and the numpy backend's sweep never computes a
  candidate that cannot match (fewer) — neither moves the charge.
* ``r`` is a radius: negative or NaN is a ``ValueError`` (``r * r``
  would square the sign away).
* Coordinates are finite: a NaN or ±inf in any query or candidate of a
  batch is a ``ValueError``, raised once per batch before anything is
  scanned (NaN would read as "no neighbour", ``inf - inf`` is NaN).
* ``need`` is a whole number (``2.0`` is ``2``; ``1.5`` is a
  ``ValueError``, not a scan for one match).
* ``need <= 0`` means every query is decided before examining anything:
  zero counts, zero evals.  Empty query or candidate blocks likewise
  charge nothing.  Points have at least one coordinate (``d >= 1``).
* :meth:`Kernel.count_neighbors_batch` scans several independent
  ``(queries, candidates)`` problems under one ``r`` and ``need``; each
  problem's counts, charged *and* computed evals are those of a batch
  of it alone (``tests/test_kernel_batch.py``).
  :meth:`Kernel.count_neighbors` is that batch of one.

Instances additionally accumulate ``calls`` (one per problem) /
``evals_charged`` / ``evals_computed`` / ``wall_seconds`` across calls;
the detectors surface computed evals in result extras and the reducers
roll them into the ``kernel`` counter group.  ``wall_seconds`` times
only the backend body, so ``benchmarks/test_kernel_speedup.py`` can
compare backends on exactly the work they vectorize.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..params import check_whole

__all__ = ["Kernel", "scalar_metric_count"]

#: Query rows per block of the tiled scan, so two float64 ``ROW_BLOCK x
#: TILE`` buffers stay cache-resident; 256 / 512 / 1024 measure the same.
ROW_BLOCK = 512

#: The widest tile of the tiled scan (candidates per tile; widths double
#: up to it from ``~2 x need``).  Neither it nor ``ROW_BLOCK`` moves a
#: count or a charge, only what a batched backend computes.
TILE = 256


class Kernel(abc.ABC):
    """One distance-kernel backend."""

    #: Registry name ("python", "numpy").
    name: str = "kernel"

    def __init__(self) -> None:
        self.calls = 0
        self.evals_charged = 0
        self.evals_computed = 0
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    def count_neighbors(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
        metric=None,
    ) -> tuple[np.ndarray, int]:
        """Scan ``candidates`` (in order) for each query; early exit at
        ``need`` matches.  Returns ``(counts, distance_evals)`` under the
        module-level contract: :meth:`count_neighbors_batch` of one
        problem."""
        ((counts, charged, _),) = self.count_neighbors_batch(
            [(queries, candidates)], r, need, metric
        )
        return counts, charged

    def count_neighbors_batch(
        self,
        problems,
        r: float,
        need: int,
        metric=None,
    ) -> list[tuple[np.ndarray, int, int]]:
        """Scan several independent ``(queries, candidates)`` problems
        that share ``r``, ``need`` and ``metric``: one ``(counts,
        charged, computed)`` per problem, each exactly what a batch of
        that problem alone returns and books.  Each problem counts as
        one call.

        A trivial problem (``need <= 0``, or nothing to scan) is decided
        here: zero counts, nothing charged.  Every coordinate of every
        problem must be finite (a ``ValueError`` otherwise, checked once
        for the whole batch before anything is scanned): NaN fails every
        comparison, so a scan would read it as "no neighbour", and
        ``inf - inf`` is NaN.  ``metric`` selects the distance: ``None``
        or the Euclidean metric hands every other problem to the
        backend's native squared-distance body (:meth:`_count_batch`) in
        one call; any other :class:`~repro.metrics.Metric` scans each
        through the metric-generic :meth:`_count_metric` under the same
        counts/charged contract.
        """
        problems = [_validated(q, c) for q, c in problems]
        r = _radius(r)
        need = check_whole(need, "need")
        blocks = [block.ravel(order="K") for pair in problems for block in pair]
        if blocks and not np.isfinite(np.concatenate(blocks)).all():
            raise ValueError("query and candidate coordinates must be finite")
        self.calls += len(problems)
        # A scalar loop checks "found >= need" before each evaluation, so
        # need <= 0 (or nothing to scan) terminates without charging a
        # single distance.
        scan = [
            i for i, (queries, candidates) in enumerate(problems)
            if need > 0 and queries.shape[0] and candidates.shape[0]
        ]
        results = [None] * len(problems)
        if scan:
            start = time.perf_counter()
            if metric is None or metric.is_euclidean:
                scanned = self._count_batch(
                    [problems[i] for i in scan], r, need
                )
            else:
                scanned = [
                    self._count_metric(*problems[i], r, need, metric)
                    for i in scan
                ]
            self.wall_seconds += time.perf_counter() - start
            for i, result in zip(scan, scanned):
                results[i] = result
                self.evals_charged += result[1]
                self.evals_computed += result[2]
        return [
            (np.zeros(queries.shape[0], dtype=np.int64), 0, 0)
            if result is None else result
            for (queries, _), result in zip(problems, results)
        ]

    @abc.abstractmethod
    def _count_batch(
        self, problems, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        """Backend body: the Euclidean scan of ``problems``, which are
        validated, non-empty, ``need >= 1``.  Returns ``(counts,
        charged, computed)`` per problem, each its own scan's."""

    # ------------------------------------------------------------------
    def _count_metric(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
        metric,
    ) -> tuple[np.ndarray, int, int]:
        """Metric-generic body for non-Euclidean spaces.

        Tiled ``within_block`` batches when the metric vectorizes, the
        scalar reference loop otherwise (always, in the ``python``
        oracle's override).  Both reconstruct scalar stop positions, so
        ``(counts, charged)`` agree — only ``computed`` (tile overshoot)
        differs.
        """
        if not metric.vectorized:
            return scalar_metric_count(queries, candidates, r, need, metric)

        def match(q: np.ndarray, own, start: int, stop: int) -> np.ndarray:
            return metric.within_block(q, candidates[start:stop], r)

        counts, charged, computed = self._scan_tiles(
            queries, candidates.shape[0], need, match
        )
        return counts, int(charged.sum()), int(computed.sum())

    def _scan_tiles(
        self,
        queries: np.ndarray,
        n_c,
        need: int,
        match,
        owner: np.ndarray | None = None,
        positions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one tiled scan every vectorised path runs through.

        Returns ``(counts, charged, computed)``, each per query row; a
        problem's charged and computed evals are the sums over its rows.

        ``match(q, own, start, stop)`` returns the boolean ``(len(q),
        stop - start)`` tile of ``d(q[i], column start + j) <= r`` — all
        that differs between metrics and backends.  Queries go in blocks
        of ``ROW_BLOCK`` rows (independent, so blocking is invisible); a
        block walks tiles whose width doubles from ``~2 x need`` up to
        the ``TILE`` cap and sheds rows as they decide.  A row count says
        who decided; only those rows' matches are listed to recover
        their scalar stop position.

        ``owner`` stacks several problems: query row ``i`` scans problem
        ``owner[i]`` (``owner`` non-decreasing, every problem with a
        row), and ``n_c`` holds each problem's candidate count.
        ``match`` then gets ``own``, the tile's problem as an ``int``
        when its live rows all share one, else each live row's problem.

        ``positions`` (with ``owner`` only) narrows each problem to a
        window of its scan order that holds every candidate that can
        match its queries: a ``(P, max_w)`` map whose row ``p`` lists,
        ascending, the scan positions of problem ``p``'s window, padded
        with ``n_c[p]`` past its width.  Column ``j`` of problem ``p``
        is then candidate ``positions[p, j]``; without the map it is
        candidate ``j`` and the window is all ``n_c[p]``.

        A row leaves when it decides or when its window runs out.  A
        decided row is charged its stop column's position + 1 and its
        count pinned at ``need``; an undecided one keeps its exact count
        and is charged its problem's full ``n_c`` — the scalar loop's
        charge over the full order either way, since nothing outside the
        window could have matched.  It is booked as computed the columns
        it was live for, clipped to its window.  So every problem's
        three numbers are the ones its own scan gives it (all rows start
        their tile schedule at column 0, whatever problem they belong
        to).  A tile whose rows all scan one problem passes it as an
        ``int`` and holds its window width as one; a tile's bookkeeping
        is a fixed handful of array calls, however many rows decide in
        it.
        """
        n_q = queries.shape[0]
        if owner is None:
            owner, n_c = np.zeros(n_q, dtype=np.intp), np.array([n_c])
        widths = n_c if positions is None else (
            positions < n_c[:, None]
        ).sum(axis=1)
        # Booked per row as it leaves: a decided row keeps ``need`` and
        # is charged its stop position + 1; an undecided one keeps its
        # count and the full ``n_c``.  Computed is the stop column of the
        # tile it left in, clipped to its window at the end.
        counts = np.full(n_q, need, dtype=np.int64)
        charged = n_c[owner]
        stops = np.zeros(n_q, dtype=np.int64)
        for low in range(0, n_q, ROW_BLOCK):
            q = queries[low:low + ROW_BLOCK]
            rows = np.arange(low, low + q.shape[0])
            own, limit, span, end = _live(owner[rows], widths)
            lack = np.full(q.shape[0], need, dtype=np.int64)
            if not span:  # every window is empty: no tile, no match
                counts[rows] = 0
            width = min(TILE, max(8, 2 * need))
            start = 0
            while start < span:
                stop = min(span, start + width)
                width = min(TILE, 2 * width)
                within = match(q, own, start, stop)
                found = within.sum(axis=1, dtype=np.int32)
                left = lack - found
                done = (left <= 0).nonzero()[0]
                if done.size:
                    # Scalar stop: the deciding rows' matches in this
                    # tile, laid end to end in row order; the last one
                    # each row lacked is its stop column (through the
                    # map).
                    nth = found[done].cumsum() + left[done] - 1
                    at = start + within[done].ravel().nonzero()[0][nth] % (
                        stop - start
                    )
                    if positions is not None:
                        at = positions[
                            own if isinstance(own, int) else own[done], at
                        ]
                    decided = rows[done]
                    charged[decided] = at + 1
                    stops[decided] = stop
                if stop >= end:  # some live row's window ends here
                    live = left > 0
                    spent = live & (limit <= stop)
                    gone = rows[spent]
                    counts[gone] = need - left[spent]
                    stops[gone] = stop
                    keep = (live & ~spent).nonzero()[0]
                elif done.size:
                    keep = (left > 0).nonzero()[0]
                else:
                    keep = None
                if keep is not None:
                    if not keep.size:
                        break
                    q, rows, left = q.take(keep, axis=0), rows[keep], left[keep]
                    if not isinstance(own, int):
                        own, limit, span, end = _live(own[keep], widths)
                lack = left
                start = stop
        return counts, charged, np.minimum(widths[owner], stops)


def _live(own: np.ndarray, widths: np.ndarray) -> tuple:
    """``(own, limit, span, end)`` of a block's live rows, whose
    problems ``own`` are non-decreasing: each row's problem and window
    width — one ``int`` each when the rows all scan one problem — and
    the widest and narrowest window."""
    if own[0] == own[-1]:
        one = int(own[0])
        width = int(widths[one])
        return one, width, width, width
    limit = widths[own]
    return own, limit, int(limit.max()), int(limit.min())


def _radius(r: float) -> float:
    r = float(r)
    if not r >= 0:  # NaN fails this too
        raise ValueError(f"r must be a radius >= 0, got {r}")
    return r


def _validated(
    queries: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One problem's blocks as float64 ``(n, d)`` / ``(m, d)`` arrays,
    the queries C-contiguous (candidates keep their layout: a backend
    may read them coordinate-major); ``ValueError`` for any other
    shape."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be (n, d)")
    if queries.shape[1] == 0:
        # No coordinate to differ in: every backend would have to call
        # all pairs neighbours, and the tiled ones cannot even index one.
        raise ValueError("points need at least one coordinate (d >= 1)")
    if candidates.ndim != 2 or (
        candidates.shape[0] and candidates.shape[1] != queries.shape[1]
    ):
        raise ValueError("candidates must be (m, d) with matching d")
    return queries, candidates


def scalar_metric_count(
    queries: np.ndarray,
    candidates: np.ndarray,
    r: float,
    need: int,
    metric,
) -> tuple[np.ndarray, int, int]:
    """The scalar reference loop for an arbitrary metric.

    Defines the semantics the tiled metric path must reproduce — one
    candidate at a time, stop at the ``need``-th match, charge the stop
    position.  ``metric.within`` shares its arithmetic with
    ``within_block`` (singleton blocks), so boundary distances agree
    between this loop and the batches.
    """
    counts = np.zeros(queries.shape[0], dtype=np.int64)
    evals = 0
    for i in range(queries.shape[0]):
        q = queries[i]
        found = 0
        examined = 0
        for j in range(candidates.shape[0]):
            examined += 1
            if metric.within(q, candidates[j], r):
                found += 1
                if found >= need:
                    break
        counts[i] = found
        evals += examined
    return counts, evals, evals
