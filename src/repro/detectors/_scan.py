"""Shared random-order scan with early termination.

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

import functools
import operator
import threading

import numpy as np

from ..kernels import resolve_kernel

__all__ = ["random_scan_counts", "scan_order", "window_counts"]


def random_scan_counts(
    queries: np.ndarray,
    candidates: np.ndarray,
    r: float,
    need: int,
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
    aggregate), or ``None`` for the resolved default.
    """
    candidates = np.asarray(candidates, dtype=float)
    order = scan_order(len(candidates), seed)
    backend = resolve_kernel(kernel)
    return backend.count_neighbors(
        queries, candidates[order], r, need, metric=metric
    )


def scan_order(n_candidates: int, seed: int) -> np.ndarray:
    """The random scan order of ``n_candidates`` candidates under
    ``seed`` — what :func:`random_scan_counts` permutes them by.

    ``np.random.default_rng(seed).permutation(n_candidates)``.  Each
    thread keeps one generator of its own and rewinds it to the seed's
    initial state, which is derived once per seed (seeds are per
    partition, so they recur across a stream's batches); no generator
    is shared between threads.
    """
    generator = getattr(_local, "generator", None)
    if generator is None:
        generator = _local.generator = np.random.Generator(
            np.random.PCG64(0)
        )
    generator.bit_generator.state = _initial_state(operator.index(seed))
    return generator.permutation(n_candidates)


_local = threading.local()


@functools.lru_cache(maxsize=1024)
def _initial_state(seed: int) -> dict:
    """The state ``default_rng(seed)`` starts from; never mutated."""
    return np.random.PCG64(seed).state


def window_counts(
    backend, queries, members, pool, rows, windows, r, need, metric=None
) -> tuple[np.ndarray, int]:
    """Neighbor counts of stacked ``queries`` and the evals charged:
    problem ``p`` is the next ``members[p]`` queries against the next
    ``windows[p]`` of ``pool[rows]``, with ``need[p]`` (or one ``need``).

    A batched pass pads every window to its widest, so problems share a
    ``count_neighbors_batch`` call only with a like ``need`` and a window
    size within the same power of two: none pads past twice its width.
    """
    classes = np.stack(
        [np.broadcast_to(need, windows.shape), np.frexp(windows)[1]], axis=1
    )
    keys, call = np.unique(classes, axis=0, return_inverse=True)
    counts = np.zeros(queries.shape[0], dtype=np.int64)
    distance_evals = 0
    for at, (value, _) in enumerate(keys.tolist()):
        problem = call.ravel() == at
        mine = np.repeat(problem, members)
        results = backend.count_neighbors_batch(list(zip(
            np.split(queries[mine], np.cumsum(members[problem])[:-1]),
            np.split(pool[rows[np.repeat(problem, windows)]],
                     np.cumsum(windows[problem])[:-1]),
        )), r, value, metric=metric)
        counts[mine] = np.concatenate([found for found, _, _ in results])
        distance_evals += sum(charged for _, charged, _ in results)
    return counts, distance_evals
