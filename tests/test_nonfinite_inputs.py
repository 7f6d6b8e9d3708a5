"""Every tactic refuses a partition with a non-finite coordinate.

NaN fails every distance comparison, so a scan that took it would call
the point an outlier without complaint; ``inf`` makes numpy warn while
it subtracts.  ``validate_partition_inputs`` refuses both, in core and in
support rows, before any detector computes a distance.  The module runs
with ``RuntimeWarning`` as an error, so a warning leaked before the
refusal fails here too.
"""

import numpy as np
import pytest

from repro.core import OutlierParams
from repro.detectors import DETECTOR_REGISTRY, make_detector

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PARAMS = OutlierParams(r=1.0, k=2)
BAD = [np.nan, np.inf, -np.inf]


def _uniform(n=40):
    return np.random.default_rng(0).uniform(0.0, 3.0, size=(n, 2))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(DETECTOR_REGISTRY))
def test_a_non_finite_core_row_is_refused(name, bad):
    points = np.vstack([_uniform(), [[bad, 1.0]]])
    with pytest.raises(ValueError, match="finite"):
        make_detector(name).detect(
            points, np.arange(points.shape[0]), np.empty((0, 2)), PARAMS
        )


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(DETECTOR_REGISTRY))
def test_a_non_finite_support_row_is_refused(name, bad):
    points = _uniform()
    with pytest.raises(ValueError, match="finite"):
        make_detector(name).detect(
            points, np.arange(40), np.array([[1.0, bad]]), PARAMS
        )


@pytest.mark.parametrize("name", ["nested_loop", "proximity_graph"])
def test_the_batched_entry_refuses_too(name):
    """``run_batch`` (what a reduce task calls) validates every
    partition of the batch."""
    detector = make_detector(name)
    good = (_uniform(), np.arange(40), np.empty((0, 2)))
    bad = (_uniform(), np.arange(40), np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        type(detector).run_batch([detector, detector], [good, bad], PARAMS)
