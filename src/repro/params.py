"""The distance-threshold outlier parameters (Def. 2.2).

Lives at the package root (rather than in :mod:`repro.core`) because every
layer — detectors, cost models, partitioning strategies — depends on it,
and none of them should drag in the full core package.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

__all__ = [
    "OutlierParams",
    "INDEX_WEIGHT",
    "CELL_WEIGHT",
    "SCAN_FLOOR",
    "UNIT_SECONDS",
    "JOB_STARTUP_SECONDS",
]

#: Cost-unit calibration.  One *unit* models one scalar distance
#: computation in the paper's reference implementation.  The weights below
#: express the other primitive operations in those units, so that the
#: deterministic cost accounting (and hence the simulated cluster times)
#: reflects a scalar per-operation execution model rather than this
#: library's vectorized numpy kernels — see costmodel/models.py.
INDEX_WEIGHT = 20.0  # hash one point into its grid cell (~insert cost)
CELL_WEIGHT = 800.0  # per-occupied-cell stencil probing (up to 9 + 49
#                      neighbor-cell hash lookups at ~10-15 ops each)
SCAN_FLOOR = 1.0  # min candidates a scan examines per point

#: Nominal wall seconds per cost unit used when converting simulated
#: cost-unit makespans to "cluster seconds" (one scalar distance
#: computation ~ 100ns on the paper's 3GHz testbed nodes).
UNIT_SECONDS = 1e-7

#: Simulated per-MapReduce-job startup/teardown cost (scheduling,
#: container launch, commit).  This is what makes multi-job pipelines —
#: the Domain baseline needs a second confirmation job — structurally
#: more expensive, as the paper's Sec. I stresses ("prohibitive costs
#: involved in reading, writing, and re-distribution of the data over a
#: series of separate jobs").  Chosen proportional to the nominal
#: UNIT_SECONDS world, not real Hadoop's ~10s.
JOB_STARTUP_SECONDS = 0.01


@dataclass(frozen=True)
class OutlierParams:
    """The ``(r, k)`` pair: a point is an outlier iff it has fewer than
    ``k`` neighbors within distance ``r``."""

    r: float
    k: int

    def __post_init__(self) -> None:
        check_positive_finite(self.r, "distance threshold r")
        k = check_whole(self.k, "neighbor count threshold k")
        if k < 1:
            raise ValueError("neighbor count threshold k must be >= 1")
        object.__setattr__(self, "k", k)


def check_positive_finite(value, name: str) -> None:
    """Refuse ``value`` unless it is a finite number ``> 0`` (NaN and
    ``inf`` included: no distance comparison means anything with them)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_whole(value, name: str) -> int:
    """``value`` as an ``int``: any integer type, or a float that is a
    whole number (``12.0``); a fractional count is refused."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")
