"""Tiered fast→exact detection via sensitivity sampling (ROADMAP item 3).

The exact DOD machinery pays partition-local detector costs for every
point.  The *fast tier* prepends one linear pass built on the mini-bucket
sensitivity construction (Lucic et al., arXiv 1605.00519; composed for
distributed state after Ceccarello et al., arXiv 1802.09205):

1. **sample** — draw a deterministic sensitivity sample: per-mini-bucket
   quotas proportional to the estimated bucket mass, selection within a
   bucket by splitmix64 hash rank of the point id (layout-independent,
   seedable — the same hash the Bernoulli sampler uses);
2. **certify** — every point counts its witnesses among the sample with
   the configured kernel/metric and an early exit at ``k + 1``.  A point
   with ``>= k`` sample neighbors within ``r`` (self excluded) provably
   has ``>= k`` true neighbors — the sample is a subset of the data — so
   it is certified an inlier with the explicit bound ``count >= k``;
3. **residue** — everything uncertified flows to the exact machinery
   unchanged.  Certified points stay in every partition pool as
   supporting records, so Lemma 3.1 exactness is untouched: the fast
   tier can only *pre-clear* inliers, never change a verdict.

Certification is one-sided and sound for every metric (witnesses are
verified with the actual metric), so the tier composes with the
``MetricSafe`` degrade path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

import numpy as np

from ..detectors._scan import window_counts
from ..geometry import CellIndex
from ..kernels import resolve_kernel
from ..mapreduce import (
    JobResult,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..metrics import resolve_metric
from ..costmodel import ball_volume, default_sample_size, select_tier
from ..params import OutlierParams
from ..sampling import splitmix64
from ..sampling.minibuckets import MiniBucketStats

__all__ = [
    "TIER_CHOICES",
    "DEFAULT_TIER",
    "SensitivitySample",
    "TierCertification",
    "resolve_tier",
    "build_sensitivity_sample",
    "certified_mask",
    "run_certification",
    "support_halo",
    "estimated_mean_neighbors",
    "pick_tier",
]

#: What a ``--tier`` flag accepts.
TIER_CHOICES = ("exact", "fast", "auto")

#: Tier used when nothing is requested: the exact machinery, unchanged.
DEFAULT_TIER = "exact"


def resolve_tier(spec: Optional[str]) -> str:
    """Normalize a tier request to ``"exact"``, ``"fast"`` or ``"auto"``.

    ``None`` means :data:`DEFAULT_TIER`.  ``"auto"`` stays symbolic —
    the caller resolves it against the cost model
    (:func:`repro.costmodel.select_tier`) once dataset statistics are in
    hand, and persists the *resolved* tier in run identity.
    """
    tier = DEFAULT_TIER if spec is None else str(spec).lower()
    if tier not in TIER_CHOICES:
        raise ValueError(
            f"unknown tier {spec!r}; choose from {TIER_CHOICES}"
        )
    return tier


@dataclass(frozen=True)
class SensitivitySample:
    """A deterministic sensitivity sample: ids + points, hash-selected.

    ``grid`` (the mini-bucket grid the sample was drawn on) enables the
    certification scan to prune candidates by cell distance; without it
    every query scans the whole sample.  Pruning never changes the
    certified set — only cells strictly farther than ``r`` are dropped —
    so a grid-less sample (e.g. restored from an old snapshot) is merely
    slower, never different.
    """

    ids: np.ndarray  # (m,) int64 point ids
    points: np.ndarray  # (m, d) float
    grid: Optional[object] = None  # UniformGrid, when available

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class TierCertification:
    """What the fast pass established, in deterministic terms."""

    n_points: int
    certified: int
    sample_size: int
    bound: int  # every certified point has >= bound true neighbors
    distance_evals: int
    #: Certified points strictly farther than ``r`` from every residue
    #: point: they can never witness a remaining query, so the detection
    #: shuffle skips them entirely.
    dropped: int = 0

    @property
    def residue(self) -> int:
        return self.n_points - self.certified

    @property
    def residue_fraction(self) -> float:
        if self.n_points <= 0:
            return 0.0
        return self.residue / self.n_points


def build_sensitivity_sample(
    points: np.ndarray,
    ids: np.ndarray,
    stats: MiniBucketStats,
    params: OutlierParams,
    seed: int = 1,
    target_size: Optional[int] = None,
) -> SensitivitySample:
    """Draw the sensitivity sample from mini-bucket statistics.

    Quotas are proportional to each bucket's *estimated* mass (its
    sensitivity weight); when the estimate is degenerate (tiny datasets
    where the Bernoulli sample missed everything) the actual populations
    stand in.  Within a bucket, points are ranked by
    ``splitmix64(id, seed)`` and the quota head is taken — deterministic
    and independent of block layout, exactly like the Bernoulli sampler.
    Quotas use raw counts, never :meth:`MiniBucketStats.bucket_density`,
    so the zero-area ``inf`` convention cannot leak into the selection.
    """
    points = np.asarray(points, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    n = points.shape[0]
    if n == 0:
        return SensitivitySample(
            ids=np.empty(0, dtype=np.int64),
            points=np.empty((0, points.shape[1] if points.ndim == 2 else 0)),
        )
    if target_size is None:
        target_size = int(round(default_sample_size(n, params)))
    target_size = int(min(max(target_size, 1), n))

    flats = stats.grid.flat_indices(stats.grid.cells_of(points))
    weights = np.maximum(np.asarray(stats.counts, dtype=float), 0.0)
    populations = np.bincount(flats, minlength=stats.grid.n_cells)
    occupied_weight = float(weights[populations > 0].sum())
    if occupied_weight <= 0:
        weights = populations.astype(float)
        occupied_weight = float(weights.sum())
    quotas = np.ceil(
        target_size * weights / occupied_weight
    ).astype(np.int64)
    quotas = np.minimum(quotas, populations)

    hashes = splitmix64(ids.astype(np.uint64), seed)
    order = np.lexsort((hashes, flats))
    sorted_flats = flats[order]
    # Rank of each point within its bucket, in hash order.
    boundaries = np.flatnonzero(np.diff(sorted_flats)) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [n])))
    ranks = np.arange(n) - np.repeat(starts, lengths)
    keep = ranks < quotas[sorted_flats]
    rows = np.sort(order[keep])
    return SensitivitySample(
        ids=ids[rows], points=points[rows], grid=stats.grid
    )


def certified_mask(
    points: np.ndarray,
    ids: np.ndarray,
    sample: SensitivitySample,
    cfg,
) -> Tuple[np.ndarray, int]:
    """Which of ``points`` the sample certifies as inliers under the
    run's :class:`~repro.core.config.RunConfig` ``cfg`` (its params,
    kernel and metric).

    Returns ``(mask, distance_evals)``.  A point certifies when it has at
    least ``k`` sample witnesses within ``r``, *excluding itself* when it
    is part of the sample — asking the kernel for ``need = k + 1``
    witnesses covers both cases under the early-exit contract.
    """
    params = cfg.params
    points = np.asarray(points, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    n = points.shape[0]
    if n == 0 or sample.size == 0:
        return np.zeros(n, dtype=bool), 0
    counts, evals = _witness_counts(
        resolve_kernel(cfg.kernel), points, sample, params.r, params.k + 1,
        resolve_metric(cfg.metric),
    )
    in_sample = np.isin(ids, sample.ids)
    witnesses = np.asarray(counts, dtype=np.int64) - in_sample.astype(
        np.int64
    )
    return witnesses >= params.k, int(evals)


def _witness_counts(
    backend, points, sample, r, need, metric_obj
) -> Tuple[np.ndarray, int]:
    """Each point's witnesses among ``sample.points`` (``need`` at
    most) and the evals charged — a whole-sample scan's, whether or not
    cell distances prune it.

    Non-Euclidean balls have no cell-distance bound on the grid, so
    metric runs (and grid-less samples) scan the whole sample.
    Otherwise a sample point can witness a query only if their
    mini-bucket cells differ by at most ``reach = floor(r / cell_width)
    + 1`` along every axis — any farther pair is separated by strictly
    more than ``r`` (minimum gap ``(reach + 1) * width > r``).  Queries
    are therefore grouped by *supercells* of ``reach + 1`` cells a side,
    and each group scans the sample points in its 3^d supercell window,
    in sample order — a superset of every member's exact ``±reach``
    window, so the pruned counts (capped at ``need`` by the kernel
    contract) are identical to a full-sample scan.  The coarse grouping
    trades a ~2x wider window for ~reach^d fewer groups, which share
    batched kernel calls by window size
    (:func:`~repro.detectors._scan.window_counts`).
    """
    grid = sample.grid
    if grid is None or not metric_obj.is_euclidean:
        return backend.count_neighbors(
            points, sample.points, r, need, metric=metric_obj
        )
    widths = np.asarray(grid.cell_widths, dtype=float)
    shape = np.asarray(grid.shape, dtype=np.int64)
    # Degenerate (zero-width) axes keep the full span along that axis.
    reach = np.where(
        widths > 0,
        np.floor(r / np.where(widths > 0, widths, 1.0)).astype(np.int64)
        + 1,
        shape,
    )
    witnesses = CellIndex(grid.cells_of(sample.points) // (reach + 1))
    groups = CellIndex(grid.cells_of(points) // (reach + 1))
    rows, windows = witnesses.neighbourhood(groups.cells, 1)
    # Each window in sample order, as a whole-sample scan meets it: the
    # charged evals are stop positions in that order.
    rows = rows[np.lexsort(
        (rows, np.repeat(np.arange(windows.size), windows))
    )]
    counts = np.zeros(points.shape[0], dtype=np.int64)
    scanned = windows > 0
    queries = groups.rows[np.repeat(scanned, groups.counts)]
    counts[queries], evals = window_counts(
        backend, points[queries], groups.counts[scanned], sample.points,
        rows, windows[scanned], r, need, metric_obj,
    )
    return counts, evals


def support_halo(
    points: np.ndarray,
    ids: np.ndarray,
    certified: np.ndarray,
    cfg,
    grid=None,
) -> Tuple[Set[int], int]:
    """Certified ids the residue detection can drop from the shuffle,
    under the run's :class:`~repro.core.config.RunConfig` ``cfg``.

    Every detector pool only has to answer queries for *residue* points,
    and a witness for a residue query lies within ``r`` of it.  A
    certified point strictly farther than ``r`` from every residue point
    therefore appears in no pool that matters: the mapper can skip its
    core and support emissions outright, which shrinks shuffle volume —
    the dominant cost once certification has made the detector cheap —
    without touching any verdict.  Distances use the actual configured
    metric, so the drop is sound wherever certification is.

    Returns ``(droppable_ids, distance_evals)``.
    """
    points = np.asarray(points, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    certified = np.asarray(certified, dtype=bool)
    cert_rows = np.flatnonzero(certified)
    res_rows = np.flatnonzero(~certified)
    if cert_rows.size == 0:
        return set(), 0
    if res_rows.size == 0:
        # No queries remain anywhere: every certified point is droppable.
        return {int(i) for i in ids[cert_rows]}, 0
    residue = SensitivitySample(
        ids=ids[res_rows], points=points[res_rows], grid=grid
    )
    counts, evals = _witness_counts(
        resolve_kernel(cfg.kernel), points[cert_rows], residue,
        cfg.params.r, 1, resolve_metric(cfg.metric),
    )
    far = np.asarray(counts) == 0
    return {int(i) for i in ids[cert_rows[far]]}, int(evals)


class _CertifyMapper(Mapper):
    """Count sample witnesses for each block; emit certified ids.

    The whole sample rides inside the mapper (it is small by
    construction), so the pass is map-only in spirit: one ``n x m``
    kernel call per block, a single tiny reducer to union the ids.
    """

    def __init__(self, sample: SensitivitySample, cfg) -> None:
        self.sample = sample
        self.cfg = cfg

    def map_block(self, records, ctx: TaskContext):
        if not records:
            return []
        mask, evals = certified_mask(
            records.points, records.ids, self.sample, self.cfg
        )
        certified = records.ids[mask]
        ctx.add_cost(float(evals))
        ctx.counters.incr("tier", "tasks")
        ctx.counters.incr("tier", "certified", int(mask.sum()))
        ctx.counters.incr("tier", "residue", int((~mask).sum()))
        ctx.counters.incr("tier", "distance_evals", int(evals))
        return [(0, certified.tolist())]


class _UnionReducer(Reducer):
    def reduce(self, key, values, ctx: TaskContext):
        merged: Set[int] = set()
        for ids in values:
            merged.update(int(i) for i in ids)
        # The union is charged its (deterministic) size.
        ctx.add_cost(1.0 + float(len(merged)))
        yield key, sorted(merged)


def run_certification(
    runtime: LocalRuntime,
    records: RecordBatch,
    sample: SensitivitySample,
    cfg,
) -> Tuple[Set[int], Set[int], TierCertification, JobResult]:
    """Run the certification pass as a MapReduce job.

    ``cfg`` is the run's :class:`~repro.core.config.RunConfig` (its
    params, kernel and metric verify the witnesses).  Returns ``(certified_ids, dropped_ids, certification, job_result)``.
    ``dropped_ids`` (a subset of ``certified_ids``) is the
    :func:`support_halo` complement — certified points no residue query
    can reach, which the detection mapper skips entirely.  The returned
    :class:`JobResult` carries the ``tier`` counter group and the pass's
    deterministic cost units; callers append it to the run's job list so
    reports see the tier work like any other phase.
    """
    job = MapReduceJob(
        name="tier-certify",
        mapper=_CertifyMapper(sample, cfg),
        reducer=_UnionReducer(),
        n_reducers=1,  # the certified-id union is tiny and centralized
    )
    # The certify mapper is fully vectorized, so default-sized blocks
    # only buy kernel-call overhead: count witnesses in big strides.
    # Per-point eval counts are blocking-independent (each query's
    # candidate window depends on its own cell), so this is a pure
    # wall-clock knob — certified set and counters stay deterministic.
    result = runtime.run(job, records, block_records=4096)
    certified: Set[int] = set()
    for _, out_ids in result.outputs:
        certified.update(out_ids)
    cert_mask = np.isin(
        records.ids, np.fromiter(certified, dtype=np.int64)
    )
    dropped, halo_evals = support_halo(
        records.points, records.ids, cert_mask, cfg, grid=sample.grid
    )
    result.counters.incr("tier", "shuffle_dropped", len(dropped))
    result.counters.incr("tier", "distance_evals", halo_evals)
    cert = TierCertification(
        n_points=result.counters.get("tier", "certified")
        + result.counters.get("tier", "residue"),
        certified=result.counters.get("tier", "certified"),
        sample_size=sample.size,
        bound=cfg.params.k,
        distance_evals=result.counters.get("tier", "distance_evals"),
        dropped=len(dropped),
    )
    return certified, dropped, cert, result


def estimated_mean_neighbors(
    stats: MiniBucketStats, params: OutlierParams, ndim: int
) -> Optional[float]:
    """Point-weighted expected neighbor count from mini-bucket stats.

    ``mu = A(p) * sum_b c_b * (c_b / area_b) / sum_b c_b`` — the density
    a random point actually experiences, which on clustered data is far
    above the uniform-domain density.  The zero-area bucket limit is
    normalized *here*: a degenerate grid means every point is stacked on
    every other, so the estimate is ``inf`` (the infinitely-dense limit
    the cost models already clamp) — the raw per-bucket ``inf`` from
    :meth:`MiniBucketStats.bucket_density` never enters a comparison.
    Returns ``None`` when the stats carry no mass (nothing sampled).
    """
    counts = np.asarray(stats.counts, dtype=float)
    total = float(counts.sum())
    if total <= 0:
        return None
    cell_area = stats.grid.cell_rect(stats.grid.unflatten(0)).area
    if cell_area <= 0:
        return float("inf")
    mean_density = float((counts * counts).sum()) / (cell_area * total)
    return mean_density * ball_volume(params.r, ndim)


def pick_tier(
    tier: str,
    n: int,
    area: float,
    params: OutlierParams,
    ndim: int = 2,
    stats: Optional[MiniBucketStats] = None,
) -> str:
    """Resolve ``"auto"`` against the cost model; pass through otherwise.

    With ``stats`` in hand the comparison uses the measured neighbor
    estimate; without, the uniform-density proxy (conservative: it
    under-certifies, so ``auto`` leans exact on data it cannot judge).
    """
    if tier != "auto":
        return tier
    mu = (
        estimated_mean_neighbors(stats, params, ndim)
        if stats is not None else None
    )
    return select_tier(float(n), float(area), params, ndim, mu=mu)
