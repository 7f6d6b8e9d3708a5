"""Pluggable metric spaces for every distance the system evaluates.

The metric is a *result-changing* knob (unlike the kernel backend,
which only changes wall time), so it threads through run identity
everywhere: checkpoint manifests, streaming snapshots and service job
specs all record it.

The metric is what the ``--metric`` flag / ``metric=`` argument names;
``"auto"``/``None`` means :data:`DEFAULT_METRIC`.  Parameterized metrics
use ``name:param`` specs — ``minkowski:1.5`` is L_1.5.  See
``docs/metrics.md``.
"""

from __future__ import annotations

from .base import Metric, MetricUnsupported
from .builtin import (
    EARTH_RADIUS_KM,
    EditDistanceMetric,
    EuclideanMetric,
    HaversineMetric,
    MinkowskiMetric,
    PAD_CODE,
    encode_strings,
)

__all__ = [
    "Metric",
    "MetricUnsupported",
    "EuclideanMetric",
    "MinkowskiMetric",
    "HaversineMetric",
    "EditDistanceMetric",
    "EARTH_RADIUS_KM",
    "PAD_CODE",
    "encode_strings",
    "METRIC_REGISTRY",
    "METRIC_CHOICES",
    "DEFAULT_METRIC",
    "make_metric",
    "resolve_metric",
]

#: Metric registry: name -> constructor (spec parameters pass through
#: as positional arguments, e.g. ``minkowski:1.5`` -> MinkowskiMetric(1.5)).
METRIC_REGISTRY: dict[str, type[Metric]] = {
    EuclideanMetric.name: EuclideanMetric,
    MinkowskiMetric.name: MinkowskiMetric,
    HaversineMetric.name: HaversineMetric,
    EditDistanceMetric.name: EditDistanceMetric,
}

#: What a ``--metric`` flag accepts (parameterized specs also allowed).
METRIC_CHOICES = ("auto",) + tuple(METRIC_REGISTRY)

#: Metric used when nothing is requested.
DEFAULT_METRIC = "euclidean"


def make_metric(spec: str) -> Metric:
    """Instantiate a metric from a ``name`` or ``name:param`` spec.

    Raises ``ValueError`` for unknown names or malformed parameters.
    """
    name, _, param = spec.partition(":")
    try:
        cls = METRIC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; known: {sorted(METRIC_REGISTRY)}"
        ) from None
    if not param:
        return cls()
    try:
        return cls(float(param))
    except TypeError:
        raise ValueError(
            f"metric {name!r} does not accept a parameter ({spec!r})"
        ) from None


def resolve_metric(spec=None) -> Metric:
    """Turn a metric spec into a ready instance.

    ``spec`` may be a :class:`Metric` instance (returned as-is), a
    registry spec string, or ``None``/``"auto"`` — :data:`DEFAULT_METRIC`.
    """
    if isinstance(spec, Metric):
        return spec
    if spec is None or spec == "auto":
        spec = DEFAULT_METRIC
    if not isinstance(spec, str):
        raise TypeError(
            f"metric spec must be a name or Metric, got {type(spec)!r}"
        )
    return make_metric(spec)
