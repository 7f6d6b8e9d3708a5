"""Core outlier semantics, the DOD framework, and the end-to-end pipeline."""

from .dataset import Dataset
from .framework import DetectionRun
from .outliers import OutlierParams, brute_force_outliers, neighbor_counts
from .pipeline import PipelineResult, detect_outliers, resolve_strategy

__all__ = [
    "Dataset",
    "OutlierParams",
    "brute_force_outliers",
    "neighbor_counts",
    "DetectionRun",
    "PipelineResult",
    "detect_outliers",
    "resolve_strategy",
]
