"""repro — Multi-Tactic Distance-based Outlier Detection (DOD, ICDE 2017).

A full reproduction of the DOD system: the single-pass MapReduce detection
framework with supporting areas, the Nested-Loop / Cell-Based centralized
detectors with their theoretical cost models, and the density-aware
multi-tactic optimizer (DSHC clustering + per-partition algorithm plans +
cost-balanced reducer allocation) — all running on a simulated
shared-nothing MapReduce substrate.

Quickstart::

    import repro

    data = repro.data.state_dataset("MA", n=5_000, seed=1)
    params = repro.OutlierParams(r=2.0, k=10)
    result = repro.detect_outliers(data, params, strategy="DMT")
    print(sorted(result.outlier_ids)[:10], result.breakdown())
"""

from . import (
    allocation,
    costmodel,
    data,
    detectors,
    dshc,
    geometry,
    mapreduce,
    observability,
    partitioning,
    sampling,
)
from .core import (
    Dataset,
    DetectionRun,
    OutlierParams,
    PipelineResult,
    brute_force_outliers,
    detect_outliers,
)
from .mapreduce import ClusterConfig, LocalRuntime
from .observability import RunReport, Span, Tracer

__version__ = "1.0.0"

__all__ = [
    "Dataset",
    "OutlierParams",
    "detect_outliers",
    "brute_force_outliers",
    "PipelineResult",
    "DetectionRun",
    "ClusterConfig",
    "LocalRuntime",
    "RunReport",
    "Span",
    "Tracer",
    "allocation",
    "costmodel",
    "data",
    "detectors",
    "dshc",
    "geometry",
    "mapreduce",
    "observability",
    "partitioning",
    "sampling",
    "__version__",
]
