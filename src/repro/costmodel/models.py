"""Theoretical cost models for the detection algorithms (Sec. IV).

These are the paper's first contribution on the optimization side: closed
-form costs for the two classes of centralized detectors as a function of a
partition's cardinality ``n``, covered area ``A``, and the outlier
parameters ``(r, k)``.

* **Lemma 4.1** (Nested-Loop, random selection & comparison)::

      Cost(D) = |D| * A(D) * k / A(p)

  where ``A(p)`` is the area of the ``r``-ball.  We additionally clamp the
  per-point trial count at ``n`` — a point can never examine more
  candidates than exist — which the lemma's expectation omits but any
  implementation enforces (this is what makes extremely sparse partitions
  cost ``n^2``, not infinity).

* **Lemma 4.2** (Cell-Based, stated for 2-d in the paper, generalized to
  d dims here using the cell geometry of Sec. IV-B)::

      Cost(D) = n                                if (9/8) r^2 * rho >= k
      Cost(D) = n                                if (49/8) r^2 * rho <  k
      Cost(D) = n + NestedLoopCost(D)            otherwise

  with ``rho = n / A`` the density.  The ``9/8 r^2`` and ``49/8 r^2`` terms
  are the areas of the L1 (3x3) and candidate (7x7) cell stencils with cell
  area ``r^2 / 8``; in d dims the stencil sizes become ``3^d`` and
  ``(2*floor(2*sqrt(d))+3)^d`` cells of volume ``(r / (2 sqrt(d)))^d``.

* **Corollary 4.3**: pick Cell-Based in either pruning regime, Nested-Loop
  in between.

Degenerate partitions
---------------------
A zero-area partition (all points coincident — common in streaming
micro-batches of repeated readings) is treated by *every* model as the
infinitely-dense limit: Cell-Based collapses to one occupied cell in its
rule-1 pruning regime, Nested-Loop terminates after exactly ``k`` hits
per point (or a full scan when ``n <= k``), and the index models clamp
per-query visits at ``n``.  All costs stay finite and mutually
comparable, so :func:`select_algorithm` makes one consistent, cheapest
choice instead of comparing a vacuous ``scan_floor`` scan against an
infinite density.

Implementation calibration
--------------------------
The lemmas count abstract scalar operations; the library's deterministic
cost accounting follows that same execution model (the detectors charge
scalar-faithful distance evaluations even though they compute in
vectorized blocks).  The remaining constants express the non-distance
primitives in distance-eval units (see repro/params.py):

* ``INDEX_WEIGHT`` — one cell-hash insert;
* ``CELL_WEIGHT`` — per-occupied-cell stencil probing (up to 9 + 49
  neighbor-cell hash lookups);
* ``SCAN_FLOOR`` — minimum candidates a scan examines per point (1).

The regime boundaries — which drive Corollary 4.3's algorithm choice —
are unchanged; only the unit conversion is calibrated.
"""

from __future__ import annotations

import math

from ..params import (
    CELL_WEIGHT,
    INDEX_WEIGHT,
    SCAN_FLOOR,
    OutlierParams,
)
from ..detectors.cell_based import candidate_radius

__all__ = [
    "ball_volume",
    "density",
    "expected_occupied_cells",
    "nested_loop_cost",
    "cell_based_cost",
    "cell_based_ring_cost",
    "kdtree_cost",
    "pivot_cost",
    "proximity_graph_cost",
    "select_algorithm",
    "estimate_cost",
    "fast_tier_cost",
    "default_sample_size",
    "select_tier",
    "ALL_TACTICS",
]


def ball_volume(r: float, ndim: int) -> float:
    """Volume of the d-dimensional ball of radius ``r`` (``A(p)``)."""
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    return (math.pi ** (ndim / 2.0)) / math.gamma(ndim / 2.0 + 1.0) * r**ndim


def density(n: float, area: float) -> float:
    """Data density: cardinality over covered domain area (Sec. IV-A)."""
    if area <= 0:
        return float("inf")
    return n / area


# Calibration constants live in repro.params (the detectors charge the
# same weights at runtime); imported above and re-exported for model users.


def expected_occupied_cells(
    n: float, area: float, r: float, ndim: int = 2
) -> float:
    """Expected number of non-empty Cell-Based grid cells.

    With ``C = area / cell_area`` available cells and ``n`` uniform points,
    the occupied count follows the Poisson occupancy ``C (1 - e^{-n/C})``
    — close to ``n`` when points are sparse (every point its own cell) and
    close to ``C`` when dense (cells shared).
    """
    return occupied_cells(n, area, cell_area(r, ndim))


def cell_area(r: float, ndim: int = 2) -> float:
    """Volume of one Cell-Based grid cell: side ``r / (2 sqrt(d))``."""
    return (r / (2.0 * math.sqrt(ndim))) ** ndim


def occupied_cells(n: float, area: float, cell: float) -> float:
    """:func:`expected_occupied_cells` for cells of volume ``cell``."""
    if n <= 0:
        return 0.0
    if area <= 0:
        # Degenerate (zero-area) data: every point hashes to the same
        # cell, so exactly one cell is occupied.
        return 1.0
    available = area / cell
    if available <= 0:
        return 1.0
    return available * (1.0 - math.exp(-n / available))


def nested_loop_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    scan_floor: float = SCAN_FLOOR,
) -> float:
    """Lemma 4.1 expected cost.

    The per-point trial count is clamped below at the vectorization chunk
    (a point cannot examine fewer candidates) and above at ``n`` (it
    cannot examine more candidates than exist).
    """
    if n <= 0:
        return 0.0
    if area <= 0:
        # Zero-area (degenerate) partitions are the infinitely-dense
        # limit: every candidate a point examines is a neighbor, so the
        # scan terminates after exactly k hits — never fewer — or after
        # exhausting the partition when n <= k.  (The lemma's expectation
        # k * A / A(p) tends to 0 here, but a point must still *find* k
        # neighbors before it can stop.)
        return n * min(max(scan_floor, float(params.k)), n)
    per_point = params.k * area / ball_volume(params.r, ndim)
    return n * min(max(per_point, scan_floor), n)


def _stencil_areas(r: float, ndim: int) -> tuple[float, float]:
    """Domain areas of the L1 stencil and the full candidate stencil."""
    cell_side = r / (2.0 * math.sqrt(ndim))
    cell_volume = cell_side**ndim
    l1_cells = 3**ndim
    cand_cells = (2 * candidate_radius(ndim) + 1) ** ndim
    return l1_cells * cell_volume, cand_cells * cell_volume


def cell_based_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    index_weight: float = INDEX_WEIGHT,
    cell_weight: float = CELL_WEIGHT,
) -> float:
    """Lemma 4.2 cost (generalized to d dims, indexing weighted).

    The linear term is split into per-point hashing and per-occupied-cell
    stencil counting; Lemma 4.2 folds both into "|D|" because in a scalar
    implementation they are comparable, but their balance shifts with
    occupancy (sparse data has ~one cell per point).
    """
    if n <= 0:
        return 0.0
    rho = density(n, area)
    l1_area, cand_area = _stencil_areas(params.r, ndim)
    indexing = index_weight * n + cell_weight * expected_occupied_cells(
        n, area, params.r, ndim
    )
    if rho * l1_area >= params.k:
        return indexing  # dense regime: rule 1 prunes everything
    if rho * cand_area < params.k:
        return indexing  # sparse regime: rule 2 prunes everything
    return indexing + nested_loop_cost(n, area, params, ndim)


def kdtree_cost(
    n: float, area: float, params: OutlierParams, ndim: int = 2
) -> float:
    """Cost proxy for the index-based extension detector.

    Build ``n log n`` plus one range count per point whose expected visit
    count is the expected neighbor count ``rho * A(p)`` (>= 1 visit).
    """
    if n <= 0:
        return 0.0
    log_n = max(1.0, math.log2(max(n, 2.0)))
    expected_neighbors = density(n, area) * ball_volume(params.r, ndim)
    # A range count can visit at most the n points that exist; this also
    # keeps the degenerate zero-area case (infinite density) finite.
    return n * log_n + n * min(max(expected_neighbors, 1.0), n)


def cell_based_ring_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    index_weight: float = INDEX_WEIGHT,
) -> float:
    """Cost of the ring-optimized Cell-Based extension detector.

    Same pruning regimes as Lemma 4.2; in the unresolved regime each point
    scans only the expected L2-ring population instead of Nested-Looping
    the whole partition.
    """
    if n <= 0:
        return 0.0
    rho = density(n, area)
    l1_area, cand_area = _stencil_areas(params.r, ndim)
    indexing = index_weight * n + CELL_WEIGHT * expected_occupied_cells(
        n, area, params.r, ndim
    )
    if rho * l1_area >= params.k or rho * cand_area < params.k:
        return indexing
    ring_points = rho * (cand_area - l1_area)
    return indexing + n * min(ring_points, n)


def pivot_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    n_pivots: int = 8,
) -> float:
    """Cost proxy for the pivot-based extension detector.

    Per point: ``n_pivots`` pivot distances plus exact checks on the
    candidates surviving the triangle-inequality filter.  The filter's
    selectivity is approximated by the fraction of the domain within the
    pivot ring of width ``2r`` — a crude but monotone-in-density model.
    """
    if n <= 0:
        return 0.0
    ring_fraction = min(
        1.0, 2.0 * params.r / max(area ** (1.0 / ndim), params.r)
    )
    survivors = n * ring_fraction
    per_point = n_pivots + min(
        max(params.k * max(area, 1.0) / ball_volume(params.r, ndim),
            SCAN_FLOOR),
        survivors,
    )
    return INDEX_WEIGHT * n_pivots * n / 8.0 + n * per_point


def proximity_graph_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    graph_k: int | None = None,
    iters: int = 3,
) -> float:
    """Cost model for the proximity-graph tactic.

    Three terms, mirroring the detector's phases:

    * graph build — NN-descent evaluates roughly ``K`` initial edges per
      point plus local joins of ~``K^2/2`` candidates per refinement
      round: ``n * K * (1 + iters * K / 2)``;
    * certification — one pass over stored flags, charged at the index
      weight;
    * residue scan — the uncertified fraction pays Lemma 4.1.  With
      expected neighbor count ``mu = rho * A(p)``, a point fails
      certification roughly when its k-th neighbor falls outside ``r``;
      ``min(k / mu, 1)`` is the crude-but-monotone proxy (dense data
      certifies almost everything, sparse data degrades to a full
      Nested-Loop — at which point Corollary 4.3 will not pick this
      tactic).

    The degenerate zero-area partition is the infinitely-dense limit:
    ``mu = inf`` makes the residue term vanish and the (finite) build
    term dominates, so costs stay finite and commensurable with the
    other four tactics.
    """
    if n <= 0:
        return 0.0
    K = graph_k if graph_k is not None else params.k + 4
    K = max(1.0, min(float(K), max(n - 1.0, 1.0)))
    build = n * K * (1.0 + iters * K / 2.0)
    mu = density(n, area) * ball_volume(params.r, ndim)
    residue_frac = 1.0 if mu <= 0 else min(params.k / mu, 1.0)
    residue = residue_frac * nested_loop_cost(n, area, params, ndim)
    return INDEX_WEIGHT * n + build + residue


#: Model registry aligned with the detector registry names.
_MODELS = {
    "nested_loop": nested_loop_cost,
    "cell_based": cell_based_cost,
    "cell_based_ring": cell_based_ring_cost,
    "kdtree": kdtree_cost,
    "pivot": pivot_cost,
    "proximity_graph": proximity_graph_cost,
}

#: The five tactic families Corollary 4.3 can choose among (the ring
#: detector is a variant of cell_based and shares its regime structure).
#: The DMT default stays the paper's pair — pass this to widen selection.
ALL_TACTICS = (
    "nested_loop",
    "cell_based",
    "kdtree",
    "pivot",
    "proximity_graph",
)


def estimate_cost(
    algorithm: str, n: float, area: float, params: OutlierParams, ndim: int = 2
) -> float:
    """Cost of ``algorithm`` on a partition with the given statistics."""
    try:
        model = _MODELS[algorithm]
    except KeyError:
        raise ValueError(
            f"no cost model for {algorithm!r}; known: {sorted(_MODELS)}"
        ) from None
    return model(n, area, params, ndim)


def select_algorithm(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    candidates: tuple[str, ...] = ("nested_loop", "cell_based"),
) -> str:
    """Corollary 4.3: the cheapest algorithm for these partition statistics.

    With the default candidate pair this reduces to the paper's rule: Cell
    -Based in the very-dense or very-sparse regime, Nested-Loop in between.
    Ties break toward the earlier entry in ``candidates``.
    """
    if not candidates:
        raise ValueError("need at least one candidate algorithm")
    best = candidates[0]
    best_cost = estimate_cost(best, n, area, params, ndim)
    for name in candidates[1:]:
        cost = estimate_cost(name, n, area, params, ndim)
        if cost < best_cost:
            best, best_cost = name, cost
    return best


def fast_tier_cost(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    sample_size: float | None = None,
    candidates: tuple[str, ...] = ("nested_loop", "cell_based"),
    mu: float | None = None,
) -> float:
    """Cost of the sensitivity-sampled fast tier (certify + exact residue).

    Three terms, mirroring :mod:`repro.tiers`'s phases:

    * sample assembly — one hash-ranked pass over the data, charged at the
      index weight;
    * certification — every point counts sample witnesses with an early
      exit at ``k + 1``, so the per-point work is
      ``min(m, k + 1 / p_hit)`` where ``p_hit = mu / n`` is the chance a
      sample candidate is a witness (``mu = rho * A(p)`` the expected
      neighbor count);
    * residue — the uncertified fraction pays the exact machinery.  A
      point certifies when it has ``>= k`` witnesses among ``m`` samples,
      i.e. roughly when ``m * mu / n >= k``; ``min(k * n / (m * mu), 1)``
      is the same crude-but-monotone residue proxy the proximity-graph
      model uses.

    ``mu`` overrides the uniform-density expected neighbor count with a
    measured estimate (e.g. the mini-bucket point-weighted mean from
    :func:`repro.tiers.estimated_mean_neighbors`) — real data is
    clustered, so the uniform proxy can be badly pessimistic about how
    much the sample certifies.

    Zero-area data is the infinitely-dense limit shared by every model
    here: ``mu = inf`` drives both the early-exit term and the residue
    fraction to their minima, so the cost stays finite and comparable —
    raw ``inf`` densities (e.g. ``MiniBucketStats.bucket_density`` on a
    zero-area bucket) never leak into the tier comparison.
    """
    if n <= 0:
        return 0.0
    m = float(sample_size) if sample_size is not None else default_sample_size(
        n, params
    )
    m = min(max(m, 1.0), n)
    if mu is None:
        mu = density(n, area) * ball_volume(params.r, ndim)
    if mu <= 0:
        per_point, residue_frac = m, 1.0
    elif math.isinf(mu):
        per_point, residue_frac = min(float(params.k) + 1.0, m), 0.0
    else:
        hit_rate = min(mu / n, 1.0)
        expected_scan = (
            m if hit_rate <= 0 else (float(params.k) + 1.0) / hit_rate
        )
        per_point = min(expected_scan, m)
        residue_frac = min(float(params.k) * n / (m * mu), 1.0)
    certify = n * max(per_point, SCAN_FLOOR)
    residue_n = residue_frac * n
    exact_model = select_algorithm(
        residue_n, area * residue_frac, params, ndim, candidates
    )
    residue_cost = estimate_cost(
        exact_model, residue_n, area * residue_frac, params, ndim
    )
    return INDEX_WEIGHT * n + certify + residue_cost


def default_sample_size(n: float, params: OutlierParams) -> float:
    """Default sensitivity-sample size for ``n`` points.

    Large enough that a point in a region of average density sees well
    over ``k`` sample witnesses (``16 (k+1)`` floor), capped at two
    fifths of the data.  The cap trades certify-pass work (grid-pruned,
    so cheap per query) for certification power: at ``m = 2n/5`` a point
    needs only ``~2.5k`` true neighbors to certify, which keeps the
    residue — and with it the shuffle the exact machinery pays for —
    small on clustered data.
    """
    if n <= 0:
        return 0.0
    return float(min(n, max(16.0 * (params.k + 1), 0.4 * n)))


def select_tier(
    n: float,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    sample_size: float | None = None,
    candidates: tuple[str, ...] = ("nested_loop", "cell_based"),
    mu: float | None = None,
) -> str:
    """Pick ``"fast"`` or ``"exact"`` for the given dataset statistics.

    ``detect --tier auto`` routes here: the fast tier wins when its
    certify-then-residue cost undercuts running the cheapest exact tactic
    over the whole dataset.  ``mu`` is the measured expected neighbor
    count when available (see :func:`fast_tier_cost`).  Both sides share
    the degenerate-input treatment above, so the comparison is always
    between finite numbers.
    """
    if n <= 0:
        return "exact"
    exact_model = select_algorithm(n, area, params, ndim, candidates)
    exact = estimate_cost(exact_model, n, area, params, ndim)
    fast = fast_tier_cost(
        n, area, params, ndim, sample_size, candidates, mu=mu
    )
    return "fast" if fast < exact else "exact"
