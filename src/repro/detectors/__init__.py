"""Centralized distance-threshold outlier detectors (the candidate set A)."""

from .base import DetectionResult, Detector
from .cell_based import (
    CellBasedDetector,
    CellBasedRingDetector,
    candidate_radius,
)
from .kdtree import KDTreeDetector
from .nested_loop import NestedLoopDetector
from .pivot import PivotDetector, select_pivots_maxmin
from .proximity_graph import ProximityGraphDetector

#: Registry used by algorithm plans: name -> constructor.
DETECTOR_REGISTRY = {
    NestedLoopDetector.name: NestedLoopDetector,
    CellBasedDetector.name: CellBasedDetector,
    CellBasedRingDetector.name: CellBasedRingDetector,
    KDTreeDetector.name: KDTreeDetector,
    PivotDetector.name: PivotDetector,
    ProximityGraphDetector.name: ProximityGraphDetector,
}

#: Detectors that are exact under any registered metric; the rest rely
#: on Euclidean grid/axis geometry and raise ``MetricUnsupported`` when
#: constructed with a non-Euclidean metric.
METRIC_GENERIC_DETECTORS = tuple(
    name for name, cls in DETECTOR_REGISTRY.items() if cls.metric_generic
)


def make_detector(name: str, kernel=None, metric=None) -> Detector:
    """Instantiate a detector by registry name.

    ``kernel`` selects the distance backend for scan-based detectors
    (``Detector.uses_kernel``); detectors with their own index
    structures (kdtree, pivot) ignore it, so one kernel spec can be
    threaded through a whole run regardless of the per-partition
    algorithm plan.  ``metric`` selects the metric space — every
    detector accepts it, and the grid tactics raise a typed
    ``MetricUnsupported`` at construction when it is non-Euclidean.
    """
    try:
        cls = DETECTOR_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; known: {sorted(DETECTOR_REGISTRY)}"
        ) from None
    if cls.uses_kernel:
        return cls(kernel=kernel, metric=metric)
    return cls(metric=metric)


def run_partitions(detectors, partitions, params) -> list:
    """``detectors[i].run(*partitions[i], params)`` for every ``i``, in
    one :meth:`~repro.detectors.base.Detector.run_batch` per detector
    class — how a reduce task detects all of its partitions at once."""
    results: list = [None] * len(detectors)
    by_class: dict = {}
    for i, detector in enumerate(detectors):
        by_class.setdefault(type(detector), []).append(i)
    for cls, index in by_class.items():
        batch = cls.run_batch(
            [detectors[i] for i in index],
            [partitions[i] for i in index], params,
        )
        for i, result in zip(index, batch):
            results[i] = result
    return results


def partition_scan_seed(partition_id: int, base_seed: int = 7) -> int:
    """Deterministic per-partition scan seed.

    Every detector used to inherit the same default ``seed=7``, so all
    partitions scanned their points in the *same* pseudo-random
    permutation — correlated early-termination luck across partitions,
    which skews the per-partition ``distance_evals`` the cost model and
    the Fig. 7/8 load-balance comparisons feed on.  Mixing the partition
    id through the 32-bit golden-ratio constant (Fibonacci hashing)
    decorrelates neighbouring ids while staying reproducible: the seed is
    a pure function of ``(base_seed, partition_id)``.
    """
    return (base_seed + 0x9E3779B1 * (int(partition_id) + 1)) % 2**32


def make_partition_detector(
    name: str, partition_id: int, kernel=None, metric=None
) -> Detector:
    """Instantiate a detector seeded for one partition.

    Detectors without a ``seed`` attribute (deterministic scan orders)
    are returned unchanged.  ``kernel`` threads the distance backend to
    scan-based detectors (ignored by the others); ``metric`` threads the
    metric space to every detector.
    """
    detector = make_detector(name, kernel=kernel, metric=metric)
    if hasattr(detector, "seed"):
        detector.seed = partition_scan_seed(
            partition_id, base_seed=detector.seed
        )
    return detector


__all__ = [
    "Detector",
    "DetectionResult",
    "NestedLoopDetector",
    "CellBasedDetector",
    "CellBasedRingDetector",
    "KDTreeDetector",
    "PivotDetector",
    "ProximityGraphDetector",
    "select_pivots_maxmin",
    "candidate_radius",
    "DETECTOR_REGISTRY",
    "METRIC_GENERIC_DETECTORS",
    "make_detector",
    "make_partition_detector",
    "partition_scan_seed",
    "run_partitions",
]
