"""Dataset I/O and preparation utilities.

Real deployments read points from files and often need light preparation
before distance thresholds are meaningful (per-dimension scales differ).
These helpers cover the common cases without pulling in a dataframe
dependency.
"""

from __future__ import annotations

import numpy as np

from ..core.dataset import Dataset

__all__ = [
    "finite_row_mask",
    "load_csv",
    "save_csv",
    "normalize_minmax",
    "standardize",
    "subsample",
]


def finite_row_mask(coords: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose coordinates are all finite.

    A NaN or infinite coordinate poisons grid routing silently: NaN
    compares false with everything, so such a point falls out of every
    partition's rectangle and simply vanishes from the answer.  Loaders
    therefore reject or quarantine these rows up front instead of
    letting them corrupt detection.
    """
    return np.isfinite(np.asarray(coords, dtype=float)).all(axis=1)


def _read_table(
    path: str, with_ids: bool, delimiter: str = ",", source=None
) -> tuple[np.ndarray, np.ndarray]:
    """Parse a point-per-line CSV: the raw table and its
    :func:`finite_row_mask` (the id column, if any, is not screened).

    The one parse behind :func:`load_csv`, ``repro detect`` and the
    service worker; they differ only in what they do with non-finite
    rows.  ``source`` is what is read when it is not ``path`` itself
    (the CLI's stdin).  Raises ``ValueError`` when the input is missing,
    unreadable, empty or too narrow.
    """
    try:
        raw = np.loadtxt(
            path if source is None else source, delimiter=delimiter, ndmin=2
        )
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    except (OSError, ValueError) as exc:
        # np.loadtxt raises ValueError for ragged rows (dimension
        # mismatch) and unparsable fields alike.
        raise ValueError(
            f"could not read {path} as CSV points: {exc}"
        ) from exc
    if raw.shape[0] == 0:
        raise ValueError(f"{path}: no points")
    if with_ids and raw.shape[1] < 2:
        raise ValueError(
            f"{path}: with ids, a row needs an id column plus at least "
            "one coordinate column"
        )
    return raw, finite_row_mask(raw[:, 1:] if with_ids else raw)


def _table_dataset(
    raw: np.ndarray, with_ids: bool, name: str = "dataset"
) -> Dataset:
    if with_ids:
        return Dataset(raw[:, 1:], raw[:, 0].astype(np.int64), name)
    return Dataset.from_points(raw, name)


def load_csv(
    path: str,
    with_ids: bool = False,
    delimiter: str = ",",
    name: str | None = None,
    invalid: str = "error",
) -> Dataset:
    """Load a point-per-line CSV.

    With ``with_ids`` the first column is taken as the integer point id;
    otherwise ids are assigned ``0..n-1``.  Rows with NaN/inf
    coordinates are rejected (``invalid="error"``, the default) or
    silently dropped (``invalid="drop"``).  A missing, unreadable or
    empty file is a ``ValueError`` too.
    """
    if invalid not in ("error", "drop"):
        raise ValueError("invalid must be 'error' or 'drop'")
    raw, mask = _read_table(path, with_ids, delimiter)
    if not mask.all():
        if invalid == "error":
            raise ValueError(
                f"{path}: {int((~mask).sum())} rows have NaN/inf "
                "coordinates (load with invalid='drop' to discard them)"
            )
        raw = raw[mask]
        if raw.shape[0] == 0:
            raise ValueError(f"{path}: no usable rows")
    return _table_dataset(raw, with_ids, name or path)


def save_csv(
    dataset: Dataset,
    path: str,
    with_ids: bool = False,
    delimiter: str = ",",
) -> None:
    """Write a dataset in the format :func:`load_csv` reads."""
    if with_ids:
        table = np.hstack(
            [dataset.ids[:, None].astype(float), dataset.points]
        )
    else:
        table = dataset.points
    np.savetxt(path, table, delimiter=delimiter, fmt="%.10g")


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Rescale every dimension into [0, 1] (degenerate dims map to 0).

    Distance thresholds then speak the same units in every dimension —
    the usual preparation before a single ``r`` is chosen.
    """
    low = dataset.points.min(axis=0)
    span = dataset.points.max(axis=0) - low
    safe = np.where(span > 0, span, 1.0)
    return Dataset(
        (dataset.points - low) / safe, dataset.ids,
        f"{dataset.name}-minmax",
    )


def standardize(dataset: Dataset) -> Dataset:
    """Zero-mean, unit-variance per dimension (degenerate dims stay 0)."""
    mean = dataset.points.mean(axis=0)
    std = dataset.points.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    return Dataset(
        (dataset.points - mean) / safe, dataset.ids,
        f"{dataset.name}-std",
    )


def subsample(dataset: Dataset, n: int, seed: int = 0) -> Dataset:
    """A uniform random subset of ``n`` points (ids preserved)."""
    if n >= dataset.n:
        return dataset
    rng = np.random.default_rng(seed)
    rows = rng.choice(dataset.n, size=n, replace=False)
    rows.sort()
    return dataset.subset(rows, f"{dataset.name}-sub{n}")
