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

Contract (enforced by :meth:`Kernel.count_neighbors`, verified by the
differential suite in ``tests/test_kernel_equivalence.py``):

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
* ``need <= 0`` means every query is decided before examining anything:
  zero counts, zero evals.  Empty query or candidate blocks likewise
  charge nothing.

Instances additionally accumulate ``calls`` / ``evals_charged`` /
``evals_computed`` / ``wall_seconds`` across calls, which the detectors
surface in result extras and the reducers roll into the ``kernel``
counter group.  ``wall_seconds`` times only the backend body, so the
bench harness can compare backends on exactly the work they vectorize.
"""

from __future__ import annotations

import abc
import time

import numpy as np

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
        module-level contract.

        ``metric`` selects the distance: ``None`` or the Euclidean
        metric keeps the backend's native squared-distance fast path
        (``_count``); any other :class:`~repro.metrics.Metric` routes
        through the metric-generic path (``_count_metric``) — tiled
        ``within_block`` batches when the metric vectorizes, the scalar
        reference loop otherwise — under the same counts/charged
        contract.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        candidates = np.ascontiguousarray(candidates, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("queries must be (n, d)")
        if candidates.ndim != 2 or (
            candidates.shape[0] and candidates.shape[1] != queries.shape[1]
        ):
            raise ValueError("candidates must be (m, d) with matching d")
        r = float(r)
        if not r >= 0:  # NaN fails this too
            raise ValueError(f"r must be a radius >= 0, got {r}")
        n_q = queries.shape[0]
        counts = np.zeros(n_q, dtype=np.int64)
        self.calls += 1
        # A scalar loop checks "found >= need" before each evaluation, so
        # need <= 0 (or nothing to scan) terminates without charging a
        # single distance — the partial-block accounting fix of ISSUE 6.
        if need <= 0 or n_q == 0 or candidates.shape[0] == 0:
            return counts, 0
        start = time.perf_counter()
        if metric is None or metric.is_euclidean:
            counts, charged, computed = self._count(
                queries, candidates, r, int(need)
            )
        else:
            counts, charged, computed = self._count_metric(
                queries, candidates, r, int(need), metric
            )
        self.wall_seconds += time.perf_counter() - start
        self.evals_charged += charged
        self.evals_computed += computed
        return counts, charged

    @abc.abstractmethod
    def _count(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
    ) -> tuple[np.ndarray, int, int]:
        """Backend body; inputs are validated, non-empty, ``need >= 1``.

        Returns ``(counts, evals_charged, evals_computed)``.
        """

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

        def match(q: np.ndarray, start: int, stop: int) -> np.ndarray:
            return metric.within_block(q, candidates[start:stop], r)

        return self._scan_tiles(queries, candidates.shape[0], need, match)

    def _scan_tiles(
        self,
        queries: np.ndarray,
        n_c: int,
        need: int,
        match,
        positions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """The one tiled scan every vectorised path runs through.

        ``match(q, start, stop)`` returns the boolean ``(len(q),
        stop - start)`` tile of ``d(q[i], candidate[start + j]) <= r`` —
        all that differs between metrics.  Queries go in blocks of
        ``ROW_BLOCK`` rows (independent, so blocking is invisible); a
        block walks tiles whose width doubles from ``~2 x need`` up to
        the ``tile`` cap and sheds rows as they decide.  A row count
        says who decided; only those rows pay the prefix sum that
        recovers their scalar stop position.

        ``positions`` is the position map of a scan over a subset of the
        ``n_c`` candidates that holds every one that can match: tiles
        walk ``len(positions)`` columns, column ``j`` being candidate
        ``positions[j]`` of the scan order.  A decided row is charged
        its stop column's position + 1 and an undecided row all ``n_c``
        — the scalar loop's charge over the full order either way.
        """
        span = n_c if positions is None else positions.size
        counts = np.empty(queries.shape[0], dtype=np.int64)
        charged = computed = 0
        for low in range(0, queries.shape[0], ROW_BLOCK):
            q = queries[low:low + ROW_BLOCK]
            rows = np.arange(low, low + q.shape[0])
            running = np.zeros(q.shape[0], dtype=np.int64)
            width = min(self.tile, max(8, 2 * need))
            start = 0
            while start < span and rows.size:
                stop = min(span, start + width)
                width = min(self.tile, 2 * width)
                within = match(q, start, stop)
                computed += within.size
                total = running + within.sum(axis=1)
                hit = (total >= need).nonzero()[0]
                if hit.size:
                    missing = (need - running[hit])[:, None]
                    reached = np.cumsum(within[hit], axis=1) >= missing
                    # Scalar stop: the need-th match's position (through
                    # the map) + 1, and the count pinned at ``need`` —
                    # not the tile's.
                    stop_at = start + reached.argmax(axis=1)
                    if positions is not None:
                        stop_at = positions[stop_at]
                    charged += int(stop_at.sum()) + hit.size
                    counts[rows[hit]] = need
                    keep = total < need
                    q, rows, total = q[keep], rows[keep], total[keep]
                running = total
                start = stop
            counts[rows] = running
            charged += rows.size * n_c
        return counts, charged, computed


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
