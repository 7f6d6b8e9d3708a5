"""The point-record format: rows of a column batch.

A point record is never a Python object of its own.  An input block, a
mapper's output for one partition and a reducer's input are all
:class:`RecordBatch` values — an int64 id column and an ``(n, d)``
float64 point matrix, plus two optional per-row columns: the Fig. 3
``tags`` (0 = core, 1 = support) once a record is routed, and the
shuffle ``keys`` of rows that are routed but not yet grouped.

The runtime knows two things about the type: it cuts an input batch
into blocks by slicing, and a batch travelling as a shuffle value
counts as ``len(batch)`` records of ``batch.nbytes`` bytes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RecordBatch"]


class RecordBatch:
    """``n`` point records held as columns.

    Indexing with a slice, an index array or a boolean mask selects rows
    of every column (a slice gives views, not copies).
    """

    __slots__ = ("ids", "points", "tags", "keys")

    def __init__(self, ids, points, tags=None, keys=None) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.points = np.asarray(points, dtype=float)
        self.tags = None if tags is None else np.asarray(tags, dtype=np.int8)
        self.keys = None if keys is None else np.asarray(keys, dtype=np.int64)
        n = self.ids.shape[0] if self.ids.ndim == 1 else -1
        if self.points.ndim != 2 or self.points.shape[0] != n:
            raise ValueError("need (n,) ids aligned with (n, d) points")
        for column in (self.tags, self.keys):
            if column is not None and column.shape != (n,):
                raise ValueError("tags and keys are one value per row")

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, rows) -> "RecordBatch":
        return RecordBatch(
            self.ids[rows], self.points[rows],
            None if self.tags is None else self.tags[rows],
            None if self.keys is None else self.keys[rows],
        )

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        """``(id, point)`` per row: what a mapper without a
        ``map_block`` receives as ``map(key, value)``."""
        return zip(self.ids.tolist(), self.points)

    @property
    def nbytes(self) -> int:
        """Bytes of all columns — the batch's shuffle volume."""
        return sum(
            column.nbytes
            for column in (self.ids, self.points, self.tags, self.keys)
            if column is not None
        )

    @staticmethod
    def concat(batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """The rows of ``batches`` (at least one, all carrying the same
        optional columns) in order."""

        def column(name: str) -> Optional[np.ndarray]:
            parts = [getattr(batch, name) for batch in batches]
            return None if parts[0] is None else np.concatenate(parts)

        if len(batches) == 1:
            return batches[0]
        return RecordBatch(
            column("ids"), column("points"), column("tags"), column("keys")
        )

    def group_by_key(self) -> List[Tuple[int, "RecordBatch"]]:
        """Split the rows by their ``keys`` column: ``[(key, rows)]`` in
        ascending key order, keys as Python ints.  The sort is stable,
        so each group holds its rows in their order here; the groups
        carry no ``keys`` column."""
        if not len(self):
            return []
        order = np.argsort(self.keys, kind="stable")
        keys = self.keys[order]
        rows = RecordBatch(
            self.ids[order], self.points[order],
            None if self.tags is None else self.tags[order],
        )
        cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        starts = [0, *cuts]
        return [
            (key, rows[start:stop])
            for key, start, stop in zip(
                keys[starts].tolist(), starts, [*cuts, len(keys)]
            )
        ]
