"""Axis-aligned hyper-rectangles.

Rectangles are the geometric currency of the whole system: grid cells
(Sec. III-A of the paper), supporting areas (Def. 3.3), mini buckets and
DSHC clusters (Sec. V-A) are all axis-aligned boxes.  ``Rect`` is immutable
and hashable so it can be used as a dictionary key and stored in plans that
are shipped between the (simulated) map and reduce sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Rect", "RECT_TOL", "forms_rectangle"]

#: Def. 5.3's absolute tolerance: faces closer than this count as equal.
RECT_TOL = 1e-9


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned box ``[low_i, high_i]`` in each dimension.

    Degenerate boxes (``low_i == high_i``) are allowed; inverted boxes are
    rejected at construction time.
    """

    low: tuple[float, ...]
    high: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise ValueError(
                f"low has {len(self.low)} dims but high has {len(self.high)}"
            )
        if not self.low:
            raise ValueError("Rect must have at least one dimension")
        for lo, hi in zip(self.low, self.high):
            if lo > hi:
                raise ValueError(f"inverted bounds: low={lo} > high={hi}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, low: Sequence[float], high: Sequence[float]) -> "Rect":
        """Build a Rect from any pair of sequences (numpy arrays included)."""
        return cls(tuple(float(x) for x in low), tuple(float(x) for x in high))

    @classmethod
    def bounding(cls, points: np.ndarray) -> "Rect":
        """The tight bounding box of an ``(n, d)`` point array."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) array of points")
        return cls.from_arrays(points.min(axis=0), points.max(axis=0))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.low)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.low, self.high))

    @property
    def area(self) -> float:
        """The d-dimensional volume (the paper calls it ``A(D)``)."""
        return math.prod(self.widths)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    # ------------------------------------------------------------------
    # Point predicates
    # ------------------------------------------------------------------
    def contains(self, point: Sequence[float]) -> bool:
        """Closed-interval membership test for a single point."""
        return all(
            lo <= x <= hi for x, lo, hi in zip(point, self.low, self.high)
        )

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        """Vectorized closed-interval membership for an ``(n, d)`` array."""
        points = np.asarray(points, dtype=float)
        low = np.asarray(self.low)
        high = np.asarray(self.high)
        return np.all((points >= low) & (points <= high), axis=1)

    # ------------------------------------------------------------------
    # Rect-vs-rect relations
    # ------------------------------------------------------------------
    def expand(self, r: float) -> "Rect":
        """The ``r``-extension of Def. 3.3: grow every face outward by ``r``.

        The supporting area of a grid cell ``C`` is ``C.expand(r) - C``.
        """
        if r < 0:
            raise ValueError("expansion radius must be non-negative")
        return Rect(
            tuple(lo - r for lo in self.low),
            tuple(hi + r for hi in self.high),
        )

    def clip(self, other: "Rect") -> "Rect":
        """Intersection box, which must be non-empty."""
        low = tuple(max(a, b) for a, b in zip(self.low, other.low))
        high = tuple(min(a, b) for a, b in zip(self.high, other.high))
        return Rect(low, high)

    def intersects(self, other: "Rect") -> bool:
        """Closed-box intersection (touching faces count as intersecting)."""
        return all(
            lo1 <= hi2 and lo2 <= hi1
            for lo1, hi1, lo2, hi2 in zip(
                self.low, self.high, other.low, other.high
            )
        )

    def overlaps_interior(self, other: "Rect") -> bool:
        """Strict interior overlap (touching faces do NOT count)."""
        return all(
            lo1 < hi2 and lo2 < hi1
            for lo1, hi1, lo2, hi2 in zip(
                self.low, self.high, other.low, other.high
            )
        )

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of the two rects."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.low, other.low)),
            tuple(max(a, b) for a, b in zip(self.high, other.high)),
        )

    def forms_rectangle_with(self, other: "Rect", tol: float = RECT_TOL) -> bool:
        """Def. 5.3: can the two boxes be merged into one exact rectangle?

        Requires identical bounds in ``d - 1`` dimensions and exact
        face-to-face contact in the remaining dimension.
        """
        return forms_rectangle(self.low, self.high, other.low, other.high, tol)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def distance_to_boundary(self, point: Sequence[float]) -> float:
        """Distance from an *interior* point to the nearest face.

        Used by the Domain baseline: a point further than ``r`` from every
        face of its partition cannot have neighbors in other partitions.
        """
        return min(
            min(x - lo, hi - x)
            for x, lo, hi in zip(point, self.low, self.high)
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth if this rect were enlarged to cover ``other``.

        This is the classic R-tree ChooseLeaf metric used by the AF-tree.
        """
        return self.union_bbox(other).area - self.area

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ", ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.low, self.high)
        )
        return f"Rect({dims})"


def forms_rectangle(low, high, other_low, other_high, tol: float = RECT_TOL) -> bool:
    """:meth:`Rect.forms_rectangle_with` on bare ``(low, high)`` bounds, for
    callers that keep boxes as coordinate tuples (DSHC's cluster records)."""
    touching = False
    mismatched = 0
    for lo, hi, o_lo, o_hi in zip(low, high, other_low, other_high):
        if abs(lo - o_lo) > tol or abs(hi - o_hi) > tol:
            mismatched += 1
            if mismatched > 1:
                return False
            touching = abs(lo - o_hi) <= tol or abs(hi - o_lo) <= tol
    return touching
