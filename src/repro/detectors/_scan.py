"""Shared chunked random-order scan with early termination.

Both Nested-Loop and the fallback phase of Cell-Based evaluate "distances
in random order until k neighbors are found" — this module implements
that scan once: it fixes the random permutation, then delegates the
actual early-exit counting to a pluggable distance kernel
(:mod:`repro.kernels`).

Whatever backend runs, the reported ``distance_evals`` are
*scalar-faithful*: for every query that terminates, the exact number of
candidates a scalar implementation would have examined before finding its
``need``-th match (its position in the random permutation) is charged —
not whatever tile-rounded amount the backend happened to compute.  That
keeps the deterministic cost accounting aligned with Lemma 4.1's
execution model, which is also what the cost-based planners assume — and
it is what makes backends interchangeable: ``python`` and ``numpy``
return byte-identical ``(counts, distance_evals)``.
"""

from __future__ import annotations

import numpy as np

from ..kernels import resolve_kernel

__all__ = ["random_scan_counts", "scan_order"]


def random_scan_counts(
    queries: np.ndarray,
    candidates: np.ndarray,
    r: float,
    need: int,
    chunk: int = 256,
    seed: int = 7,
    kernel=None,
    metric=None,
) -> tuple[np.ndarray, int]:
    """Count neighbors of each query among ``candidates`` scanned in a
    random order, stopping per query once ``need`` matches are found.

    Returns ``(counts, distance_evals)``.  ``counts[i] == need`` means
    the query terminated early (the scalar stop count); counts below
    ``need`` are exact totals.  Self-matches are NOT handled here —
    callers whose queries appear in ``candidates`` should ask for one
    extra match.

    ``kernel`` picks the distance backend: a name, a ready
    :class:`~repro.kernels.Kernel` instance (reused, so its stats
    aggregate), or ``None`` for the resolved default.  ``chunk`` is the
    tile width for batched backends constructed here.
    """
    queries = np.asarray(queries, dtype=float)
    candidates = np.asarray(candidates, dtype=float)
    n_q = queries.shape[0]
    if n_q == 0 or candidates.shape[0] == 0 or need <= 0:
        return np.zeros(n_q, dtype=np.int64), 0

    order = scan_order(candidates.shape[0], seed)
    backend = resolve_kernel(kernel, tile=chunk)
    return backend.count_neighbors(
        queries, candidates[order], r, need, metric=metric
    )


def scan_order(n_candidates: int, seed: int) -> np.ndarray:
    """The random scan order of ``n_candidates`` candidates under
    ``seed`` — what :func:`random_scan_counts` permutes them by."""
    return np.random.default_rng(seed).permutation(n_candidates)
