"""Every tactic refuses a partition with a non-finite coordinate, and
so does the distance kernel itself.

NaN fails every distance comparison, so a scan that took it would call
the point an outlier without complaint; ``inf`` makes numpy warn while
it subtracts.  Both are refused, in core and in support rows, before any
detector computes a distance: by ``validate_partition_inputs`` in the
index tactics, and by ``Kernel.count_neighbors_batch`` — one check per
batch, before any tile runs — in Nested-Loop, whose reduce path relies
on that single check.  The module runs with ``RuntimeWarning`` as an
error, so a warning leaked before the refusal fails here too.
"""

import numpy as np
import pytest

from repro.core import OutlierParams
from repro.detectors import DETECTOR_REGISTRY, make_detector
from repro.kernels import KERNEL_REGISTRY, make_kernel

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


class _Untiled(Exception):
    pass


@pytest.mark.parametrize("at", ["query", "candidate"])
@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("backend", sorted(KERNEL_REGISTRY))
def test_the_kernel_refuses_before_any_tile(backend, bad, at, monkeypatch):
    """A non-finite coordinate in any problem of a batch — here the
    second of three, the third a trivial one — is refused before the
    backend body runs, and no call is booked."""
    kernel = make_kernel(backend)

    def untiled(*args, **kwargs):
        raise _Untiled

    monkeypatch.setattr(kernel, "_count_batch", untiled)
    queries, candidates = _uniform(10), _uniform(30)
    if at == "query":
        spoiled = (np.vstack([queries, [[1.0, bad]]]), candidates)
    else:
        spoiled = (queries, np.vstack([candidates, [[bad, 1.0]]]))
    batch = [(queries, candidates), spoiled, (np.empty((0, 2)), candidates)]
    with pytest.raises(ValueError, match="finite"):
        kernel.count_neighbors_batch(batch, PARAMS.r, PARAMS.k + 1)
    assert kernel.calls == 0


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("backend", sorted(KERNEL_REGISTRY))
def test_a_single_scan_refuses_too(backend, bad):
    """``count_neighbors`` (a batch of one), with a coordinate-major
    candidate block as Nested-Loop hands it over."""
    candidates = np.asfortranarray(np.vstack([_uniform(30), [[bad, 0.5]]]))
    with pytest.raises(ValueError, match="finite"):
        make_kernel(backend).count_neighbors(
            _uniform(10), candidates, PARAMS.r, PARAMS.k + 1
        )


@pytest.mark.parametrize("backend", sorted(KERNEL_REGISTRY))
def test_finite_blocks_of_any_layout_scan(backend):
    """A coordinate-major candidate block (how Nested-Loop hands its
    scan order over) answers as the row-major one."""
    queries, candidates = _uniform(10), _uniform(30)
    kernel = make_kernel(backend)
    row_major = kernel.count_neighbors(queries, candidates, 1.0, 3)
    column_major = kernel.count_neighbors(
        queries, np.asfortranarray(candidates), 1.0, 3
    )
    assert row_major[0].tolist() == column_major[0].tolist()
    assert row_major[1] == column_major[1]
