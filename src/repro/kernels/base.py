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
only the backend body, so the bench harness can compare backends on
exactly the work they vectorize.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..params import check_whole

__all__ = ["Kernel", "scalar_metric_count"]

#: Query rows per block of the tiled scan, so two float64 ``ROW_BLOCK x
#: tile`` buffers stay cache-resident; 256 / 512 / 1024 measure the same.
ROW_BLOCK = 512


class Kernel(abc.ABC):
    """One distance-kernel backend.

    ``tile`` is the vectorization width (candidates per tile) for batched
    backends; scalar backends accept and ignore it so every backend can be
    constructed uniformly.
    """

    #: Registry name ("python", "numpy").
    name: str = "kernel"

    def __init__(self, tile: int = 256) -> None:
        tile = check_whole(tile, "tile")
        if tile < 1:
            raise ValueError("tile must be >= 1")
        self.tile = tile
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
        here: zero counts, nothing charged.  ``metric`` selects the
        distance: ``None`` or the Euclidean metric hands every other
        problem to the backend's native squared-distance body
        (:meth:`_count_batch`) in one call; any other
        :class:`~repro.metrics.Metric` scans each through the
        metric-generic :meth:`_count_metric` under the same
        counts/charged contract.
        """
        problems = [_validated(q, c) for q, c in problems]
        r = _radius(r)
        need = check_whole(need, "need")
        self.calls += len(problems)
        # A scalar loop checks "found >= need" before each evaluation, so
        # need <= 0 (or nothing to scan) terminates without charging a
        # single distance.
        results = [
            (np.zeros(queries.shape[0], dtype=np.int64), 0, 0)
            for queries, _ in problems
        ]
        scan = [
            i for i, (queries, candidates) in enumerate(problems)
            if need > 0 and queries.shape[0] and candidates.shape[0]
        ]
        if not scan:
            return results
        start = time.perf_counter()
        if metric is None or metric.is_euclidean:
            scanned = self._count_batch([problems[i] for i in scan], r, need)
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
        return results

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

        counts, (charged,), (computed,) = self._scan_tiles(
            queries, candidates.shape[0], need, match
        )
        return counts, charged, computed

    def _scan_tiles(
        self,
        queries: np.ndarray,
        n_c,
        need: int,
        match,
        owner: np.ndarray | None = None,
        positions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list, list]:
        """The one tiled scan every vectorised path runs through.

        Returns ``(counts, charged, computed)``: a count per query row,
        and charged and computed evals per problem (one problem unless
        ``owner`` is given).

        ``match(q, own, start, stop)`` returns the boolean ``(len(q),
        stop - start)`` tile of ``d(q[i], column start + j) <= r`` — all
        that differs between metrics and backends.  Queries go in blocks
        of ``ROW_BLOCK`` rows (independent, so blocking is invisible); a
        block walks tiles whose width doubles from ``~2 x need`` up to
        the ``tile`` cap and sheds rows as they decide.  A row count says
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
        to).
        """
        n_q = queries.shape[0]
        counts = np.empty(n_q, dtype=np.int64)
        if owner is None:
            charged = computed = 0
        else:  # booked per row, summed per problem at the end
            charged = np.empty(n_q, dtype=np.int64)
            computed = np.empty(n_q, dtype=np.int64)
            widths = n_c if positions is None else (
                positions < n_c[:, None]
            ).sum(axis=1)
        for low in range(0, n_q, ROW_BLOCK):
            q = queries[low:low + ROW_BLOCK]
            rows = np.arange(low, low + q.shape[0])
            running = np.zeros(q.shape[0], dtype=np.int64)
            if owner is None:
                own, limit, span = 0, None, n_c
            else:
                own = owner[rows]
                limit = widths[own]
                span = int(limit.max())
            width = min(self.tile, max(8, 2 * need))
            start = 0
            while start < span and rows.size:
                stop = min(span, start + width)
                width = min(self.tile, 2 * width)
                within = match(
                    q, own if limit is None or own[0] != own[-1] else own[0],
                    start, stop,
                )
                if limit is None:
                    computed += within.size
                total = running + within.sum(axis=1, dtype=np.int32)
                hit = (total >= need).nonzero()[0]
                keep = None
                if hit.size:
                    # Scalar stop: the need-th match's position (through
                    # the map) + 1, and the count pinned at ``need`` —
                    # not the tile's.  Each deciding row's matches in
                    # this tile, laid end to end in row order: its
                    # (need - running)-th is its stop column.
                    matched = total[hit] - running[hit]
                    found = np.flatnonzero(within[hit])[
                        np.cumsum(matched) - matched + need - running[hit] - 1
                    ]
                    stop_at = start + found - np.arange(hit.size) * (
                        stop - start
                    )
                    decided = rows[hit]
                    counts[decided] = need
                    if limit is None:
                        charged += int(stop_at.sum()) + hit.size
                    else:
                        if positions is not None:
                            stop_at = positions[own[hit], stop_at]
                        charged[decided] = stop_at + 1
                        computed[decided] = np.minimum(limit[hit], stop)
                    keep = total < need
                if limit is not None:
                    # Rows whose window has no column past this tile.
                    spent = limit <= stop
                    if keep is not None:
                        spent &= keep
                    if spent.any():
                        gone = rows[spent]
                        counts[gone] = total[spent]
                        charged[gone] = n_c[own[spent]]
                        computed[gone] = limit[spent]
                        keep = ~spent if keep is None else keep & ~spent
                if keep is not None:
                    q, rows, total = q[keep], rows[keep], total[keep]
                    if limit is not None:
                        own, limit = own[keep], limit[keep]
                        span = int(limit.max()) if rows.size else 0
                running = total
                start = stop
            # Rows still here scanned every column without deciding: a
            # single problem's, or stacked rows whose windows are empty.
            counts[rows] = running
            if limit is None:
                charged += rows.size * n_c
            else:
                charged[rows] = n_c[own]
                computed[rows] = limit
        if owner is None:
            return counts, [charged], [computed]
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        return (
            counts,
            np.add.reduceat(charged, first).tolist(),
            np.add.reduceat(computed, first).tolist(),
        )


def _radius(r: float) -> float:
    r = float(r)
    if not r >= 0:  # NaN fails this too
        raise ValueError(f"r must be a radius >= 0, got {r}")
    return r


def _validated(
    queries: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One problem's blocks as C-contiguous float64 ``(n, d)`` /
    ``(m, d)`` arrays; ``ValueError`` for any other shape."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    candidates = np.ascontiguousarray(candidates, dtype=np.float64)
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
