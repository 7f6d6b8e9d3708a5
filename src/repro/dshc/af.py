"""Aggregate Features (Def. 5.1) — the summaries DSHC clusters carry.

An AF summarizes a set of mini buckets forming one cluster: the number of
(estimated) points, the bounding coordinates, and the derived density.  AFs
are additive (Def. 5.4), which is what lets DSHC run in a single scan: a
merge is O(d) regardless of how many buckets each side aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..geometry import Rect

__all__ = ["AggregateFeature"]


@dataclass(frozen=True)
class AggregateFeature:
    """Def. 5.1: ``(numPoints, minB, maxB, Density)``.

    ``rect`` stores ``(minB, maxB)``; density is derived from the frozen
    fields on first use and kept (DSHC compares it for every candidate of
    every bucket), so it can never drift out of sync after merges.
    """

    num_points: float
    rect: Rect

    @property
    def low(self) -> tuple:
        """``minB``: the bounds the AF-tree reads off every leaf entry."""
        return self.rect.low

    @property
    def high(self) -> tuple:
        """``maxB``."""
        return self.rect.high

    @cached_property
    def density(self) -> float:
        """``numPoints / prod_i (maxB(i) - minB(i))`` (Def. 5.1)."""
        area = self.rect.area
        if area <= 0:
            return float("inf")
        return self.num_points / area

    def merge(self, other: "AggregateFeature") -> "AggregateFeature":
        """Def. 5.4: component-wise AF addition.

        The caller is responsible for checking the merging criteria
        (Def. 5.2) first — in particular that the union is an exact
        rectangle, otherwise the bounding box would cover space belonging
        to neither side and the density would be diluted.
        """
        return AggregateFeature(
            self.num_points + other.num_points,
            self.rect.union_bbox(other.rect),
        )

    def density_difference(self, other: "AggregateFeature") -> float:
        """|density(self) - density(other)|, the Def. 5.2 criterion 1."""
        a, b = self.density, other.density
        if a == float("inf") and b == float("inf"):
            return 0.0
        return abs(a - b)
