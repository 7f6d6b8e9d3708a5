"""Datasets of d-dimensional points.

A :class:`Dataset` wraps an ``(n, d)`` float array plus stable integer point
ids.  Ids matter because the distributed pipeline replicates points (support
copies) and reports outliers by id; equality of result sets across
strategies is checked on ids, never on float coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..geometry import Rect
from ..mapreduce.batch import RecordBatch

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """An immutable point collection with ids.

    ``points`` is ``(n, d)`` float64 and finite with ``d >= 1``;
    ``ids`` is ``(n,)`` int64 and unique.
    """

    points: np.ndarray
    ids: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        ids = np.asarray(self.ids, dtype=np.int64)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if points.shape[1] == 0:
            raise ValueError("points need at least one coordinate (d >= 1)")
        if ids.shape != (points.shape[0],):
            raise ValueError("ids must be a 1-d array aligned with points")
        # Sort and compare neighbours: ``np.unique`` costs about 1 us per
        # id on numpy 2.4, ~60x this.
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("point ids must be unique")
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"row {int(np.argmin(finite))} has NaN/inf coordinates; "
                "distances to it are undefined"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ids", ids)

    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray, name: str = "dataset") -> "Dataset":
        """Wrap a raw array, assigning ids ``0..n-1``."""
        points = np.asarray(points, dtype=float)
        return cls(points, np.arange(points.shape[0], dtype=np.int64), name)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    @property
    def bounds(self) -> Rect:
        """Tight bounding box — ``Domain(D)`` when no domain is given."""
        return Rect.bounding(self.points)

    @property
    def density(self) -> float:
        """Cardinality over covered domain area (the paper's density)."""
        area = self.bounds.area
        if area <= 0:
            return float("inf")
        return self.n / area

    # ------------------------------------------------------------------
    def subset(self, mask_or_index: np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset with the selected rows (ids preserved)."""
        return Dataset(
            self.points[mask_or_index],
            self.ids[mask_or_index],
            name or self.name,
        )

    def batch(self) -> RecordBatch:
        """Every row as one record batch — what a job over this dataset
        reads; its columns are this dataset's arrays, not copies."""
        return RecordBatch(self.ids, self.points)

    def records(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(id, point)`` records, one Python pair per row."""
        return iter(self.batch())

    def concat(self, other: "Dataset", name: str | None = None) -> "Dataset":
        """Union of two datasets with disjoint ids."""
        return Dataset(
            np.vstack([self.points, other.points]),
            np.concatenate([self.ids, other.ids]),
            name or self.name,
        )

    def with_ids_offset(self, offset: int) -> "Dataset":
        """Shift all ids by ``offset`` (for building disjoint unions)."""
        return Dataset(self.points, self.ids + offset, self.name)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({self.name!r}, n={self.n}, d={self.ndim})"
