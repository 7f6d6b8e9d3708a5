"""Bucket-granular partition cost estimation.

The Sec. IV lemmas assume a partition is uniformly dense.  DSHC partitions
are *close* to uniform, but real partitions still contain density
gradients (cluster tails), and both detectors respond to *local*
structure: Cell-Based prunes at cell granularity, and a Nested-Loop point
terminates after ``k / mu`` trials where ``mu`` depends on the density
around *that point*.

This module evaluates the same models per mini bucket and sums — the
uniformity assumption is applied at bucket resolution rather than
partition resolution, so planning decisions (DMT's per-partition algorithm
choice and cost balancing) remain accurate on internally skewed
partitions.  For a truly uniform partition it degenerates to the lemma
formulas.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from ..params import (
    CELL_WEIGHT,
    INDEX_WEIGHT,
    SCAN_FLOOR,
    OutlierParams,
)
from .models import (
    _stencil_areas,
    ball_volume,
    cell_area,
    occupied_cells,
)

__all__ = ["bucketwise_cost", "bucketwise_best_algorithm", "density_regimes"]


def density_regimes(params: OutlierParams, ndim: int = 2) -> tuple[float, float]:
    """The Lemma 4.2 density thresholds ``(rho_dense, rho_sparse)``.

    Density >= ``rho_dense`` puts a region in the dense-pruned regime;
    density < ``rho_sparse`` in the sparse-pruned regime.
    """
    l1_area, cand_area = _stencil_areas(params.r, ndim)
    return params.k / l1_area, params.k / cand_area


@functools.lru_cache(maxsize=64)
def _constants(params: OutlierParams, ndim: int) -> tuple[float, ...]:
    """``(ball volume, rho_dense, rho_sparse, cell volume)``: what every
    bucketwise cost under one ``(params, ndim)`` shares, computed once
    for all the partitions of a plan (and of later plans)."""
    return (
        ball_volume(params.r, ndim), *density_regimes(params, ndim),
        cell_area(params.r, ndim),
    )


def bucketwise_cost(
    algorithm: str,
    buckets: Iterable[tuple[float, float]],
    params: OutlierParams,
    ndim: int = 2,
    support_buckets: Iterable[tuple[float, float]] = (),
) -> float:
    """Cost of ``algorithm`` on a partition described by its buckets.

    ``buckets`` yields ``(n_b, area_b)`` pairs for the partition's core
    area; ``support_buckets`` the same for its supporting area (Def. 3.3)
    — those points are indexed and scanned as neighbor candidates but are
    never classified.  The Nested-Loop trial count for a point in bucket
    ``b`` is ``k * n_cand / E_b`` where ``E_b = rho_b * V_ball`` is the
    point's expected neighbor count at local density — candidates are
    drawn from the whole candidate pool but match with the local neighbor
    probability.
    """
    buckets = list(buckets)
    support_buckets = list(support_buckets)
    return _cost(
        algorithm, buckets, support_buckets, params, ndim,
        *_totals(buckets, support_buckets),
    )


def _totals(buckets, support_buckets) -> tuple[float, float]:
    """``(n_p, n_cand)``: the core points, and core plus support."""
    n_p = sum(n for n, _ in buckets)
    return n_p, n_p + sum(n for n, _ in support_buckets)


def _cost(
    algorithm: str,
    buckets: list,
    support_buckets: list,
    params: OutlierParams,
    ndim: int,
    n_p: float,
    n_cand: float,
) -> float:
    """:func:`bucketwise_cost` over bucket lists and their totals."""
    if n_p <= 0:
        return 0.0
    v_ball, rho_dense, rho_sparse, cell = _constants(params, ndim)

    def nl_evals(n_b: float, area_b: float) -> float:
        if area_b <= 0:
            return n_b * min(SCAN_FLOOR, n_cand)
        expected = (n_b / area_b) * v_ball
        if expected <= 0:
            trials = n_cand
        else:
            trials = params.k * n_cand / expected
        return n_b * min(max(trials, SCAN_FLOOR), n_cand)

    if algorithm == "nested_loop":
        return sum(nl_evals(n_b, a_b) for n_b, a_b in buckets)

    if algorithm in ("cell_based", "cell_based_ring"):
        # Every candidate (core + support) is hashed and occupies cells.
        total = 0.0
        for n_b, area_b in itertools.chain(buckets, support_buckets):
            if n_b <= 0:
                continue
            total += INDEX_WEIGHT * n_b
            total += CELL_WEIGHT * occupied_cells(n_b, area_b, cell)
        # Per-point evaluations happen for core points in unpruned cells.
        for n_b, area_b in buckets:
            if n_b <= 0:
                continue
            rho = n_b / area_b if area_b > 0 else float("inf")
            if rho >= rho_dense or rho < rho_sparse:
                continue  # locally pruned: no per-point evaluations
            total += nl_evals(n_b, area_b)
        return total

    if algorithm == "kdtree":
        # Build over all candidates, one range count per core point whose
        # visit count tracks the local expected neighbor count.
        import math

        log_n = max(1.0, math.log2(max(n_cand, 2.0)))
        total = n_cand * log_n
        for n_b, area_b in buckets:
            if n_b <= 0:
                continue
            expected = (
                (n_b / area_b) * v_ball if area_b > 0 else float(n_b)
            )
            total += n_b * (log_n + max(expected, 1.0))
        return total

    if algorithm == "pivot":
        # Pivot table over all candidates plus a filtered scan per core
        # point; the filter keeps roughly the 2r-wide pivot-distance ring.
        n_pivots = 8.0
        total = INDEX_WEIGHT * n_pivots * n_cand / 8.0
        for n_b, area_b in buckets:
            if n_b <= 0:
                continue
            side = max(area_b ** (1.0 / ndim), params.r)
            ring_fraction = min(1.0, 2.0 * params.r / side)
            survivors = n_cand * ring_fraction
            total += n_b * (
                n_pivots + min(nl_evals(1.0, area_b / max(n_b, 1.0)),
                               survivors)
            )
        return total

    raise ValueError(f"no bucketwise model for algorithm {algorithm!r}")


def bucketwise_best_algorithm(
    buckets: Sequence[tuple[float, float]],
    params: OutlierParams,
    ndim: int = 2,
    candidates: tuple[str, ...] = ("nested_loop", "cell_based"),
    support_buckets: Sequence[tuple[float, float]] = (),
) -> tuple[str, float]:
    """Cheapest candidate algorithm and its cost for these buckets (the
    bucket lists and their totals are taken once for all candidates)."""
    if not candidates:
        raise ValueError("need at least one candidate algorithm")
    buckets = list(buckets)
    support_buckets = list(support_buckets)
    totals = _totals(buckets, support_buckets)
    best, best_cost = None, float("inf")
    for name in candidates:
        cost = _cost(name, buckets, support_buckets, params, ndim, *totals)
        if cost < best_cost:
            best, best_cost = name, cost
    return best, best_cost
