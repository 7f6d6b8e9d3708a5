"""The shipped metric spaces.

Four metrics cover the three scenario families the ROADMAP names:

* :class:`EuclideanMetric` — the default space every legacy fast path
  assumes; the only metric whose coordinate-grid geometry is valid
  (``grid_compatible``).
* :class:`MinkowskiMetric` — L_p for ``p >= 1`` (p < 1 violates the
  triangle inequality and is rejected); high-dimensional embedding
  workloads pick the norm that matches their feature scaling.
* :class:`HaversineMetric` — great-circle distance over (lat, lon)
  degree rows, in kilometres; the geospatial example's real distance.
* :class:`EditDistanceMetric` — Levenshtein over integer-code rows
  (strings encoded via :func:`encode_strings`); inherently scalar, so
  it exercises the kernel layer's non-vectorized fallback.

All four satisfy the metric axioms (property-tested in
``tests/test_metric_equivalence.py``); the triangle inequality is load-
bearing for pivot pruning and metric-safe support resolution, so a new
metric that violates it would silently break exactness — keep the axiom
suite in sync when adding one.
"""

from __future__ import annotations

import numpy as np

from .base import Metric, MetricUnsupported

__all__ = [
    "EuclideanMetric",
    "MinkowskiMetric",
    "HaversineMetric",
    "EditDistanceMetric",
    "EARTH_RADIUS_KM",
    "PAD_CODE",
    "encode_strings",
]

#: Mean Earth radius (IUGG), km — the haversine scale factor.
EARTH_RADIUS_KM = 6371.0088

#: Sentinel padding code for encoded strings (real codes are >= 0).
PAD_CODE = -1.0


class EuclideanMetric(Metric):
    """L2 over float64 rows — the space the whole seed system assumed.

    ``within_block`` compares *squared* distances against ``r**2`` with
    the same per-coordinate accumulation order as the kernel backends
    (``repro.kernels.numpy_backend``), so metric-routed and legacy
    Euclidean scans agree bitwise even on boundary-distance pairs.
    """

    name = "euclidean"
    vectorized = True
    grid_compatible = True

    def _sq_dists(
        self, queries: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        # Per-coordinate accumulation in coordinate order: the same float
        # ops as the scalar oracle and the numpy kernel tile, so boundary
        # distances cannot flip between code paths.
        d2 = np.square(queries[:, 0, None] - candidates[None, :, 0])
        for j in range(1, queries.shape[1]):
            d2 += np.square(queries[:, j, None] - candidates[None, :, j])
        return d2

    def pairwise(
        self, queries: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        return np.sqrt(self._sq_dists(queries, candidates))

    def within_block(
        self, queries: np.ndarray, candidates: np.ndarray, r: float
    ) -> np.ndarray:
        return self._sq_dists(queries, candidates) <= r * r


class MinkowskiMetric(Metric):
    """L_p distance, ``p >= 1``.

    ``p < 1`` is rejected at construction: it breaks the triangle
    inequality, which pivot pruning and metric-safe support resolution
    rely on for exactness.
    """

    name = "minkowski"
    vectorized = True
    grid_compatible = False

    def __init__(self, p: float = 2.0) -> None:
        p = float(p)
        if not p >= 1.0:
            raise ValueError(f"minkowski requires p >= 1, got {p}")
        self.p = p

    def pairwise(
        self, queries: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        diff = np.abs(queries[:, None, :] - candidates[None, :, :])
        if self.p == 1.0:
            return diff.sum(axis=-1)
        if self.p == 2.0:
            return np.sqrt(np.square(diff).sum(axis=-1))
        return np.power(np.power(diff, self.p).sum(axis=-1), 1.0 / self.p)

    def spec(self) -> str:
        return f"{self.name}:{self.p:g}"


class HaversineMetric(Metric):
    """Great-circle distance in km over (latitude, longitude) degree rows.

    Rows must be exactly 2-wide; anything else is a workload-shape error
    surfaced as :class:`MetricUnsupported` rather than nonsense
    kilometres.
    """

    name = "haversine"
    vectorized = True
    grid_compatible = False

    def pairwise(
        self, queries: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        if queries.shape[1] != 2:
            raise MetricUnsupported(
                "haversine requires (lat, lon) rows — got "
                f"{queries.shape[1]}-dimensional points"
            )
        q = np.radians(queries)
        c = np.radians(candidates)
        dlat = q[:, 0, None] - c[None, :, 0]
        dlon = q[:, 1, None] - c[None, :, 1]
        h = (
            np.square(np.sin(dlat / 2.0))
            + np.cos(q[:, 0, None])
            * np.cos(c[None, :, 0])
            * np.square(np.sin(dlon / 2.0))
        )
        # Clip guards rounding above 1.0 for near-antipodal pairs.
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(
            np.sqrt(np.clip(h, 0.0, 1.0))
        )


class EditDistanceMetric(Metric):
    """Levenshtein distance over integer-code rows.

    Strings ride through the float64 point pipeline as codepoint rows
    padded with :data:`PAD_CODE` (:func:`encode_strings`); padding is
    stripped before comparison, so rows of different true lengths
    coexist in one matrix.  The dynamic program is inherently
    sequential — ``vectorized`` is False and the kernel layer scans this
    metric with its scalar fallback.
    """

    name = "edit_distance"
    vectorized = False
    grid_compatible = False

    @staticmethod
    def _codes(row: np.ndarray) -> np.ndarray:
        codes = np.rint(row).astype(np.int64)
        return codes[codes >= 0]

    def _levenshtein(self, a: np.ndarray, b: np.ndarray) -> int:
        if a.size == 0:
            return int(b.size)
        if b.size == 0:
            return int(a.size)
        prev = np.arange(b.size + 1, dtype=np.int64)
        cur = np.empty_like(prev)
        for i in range(1, a.size + 1):
            cur[0] = i
            sub = prev[:-1] + (b != a[i - 1])
            for j in range(1, b.size + 1):
                cur[j] = min(cur[j - 1] + 1, prev[j] + 1, sub[j - 1])
            prev, cur = cur, prev
        return int(prev[-1])

    def pairwise(
        self, queries: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        out = np.empty((queries.shape[0], candidates.shape[0]), dtype=float)
        q_codes = [self._codes(row) for row in queries]
        c_codes = [self._codes(row) for row in candidates]
        for i, a in enumerate(q_codes):
            for j, b in enumerate(c_codes):
                out[i, j] = self._levenshtein(a, b)
        return out


def encode_strings(strings, width: int | None = None) -> np.ndarray:
    """Encode strings as a float64 (n, width) codepoint matrix.

    Rows are padded with :data:`PAD_CODE`; ``width`` defaults to the
    longest string (minimum 1 so the matrix is never 0-wide).
    """
    strings = list(strings)
    if width is None:
        width = max((len(s) for s in strings), default=1)
    width = max(int(width), 1)
    out = np.full((len(strings), width), PAD_CODE, dtype=np.float64)
    for i, s in enumerate(strings):
        if len(s) > width:
            raise ValueError(
                f"string of length {len(s)} exceeds encoding width {width}"
            )
        for j, ch in enumerate(s):
            out[i, j] = float(ord(ch))
    return out
