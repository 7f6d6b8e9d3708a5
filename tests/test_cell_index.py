"""The sparse cell index behind Cell-Based and the fast tier's pruning.

:class:`~repro.geometry.CellIndex` is checked against a reference dict
of lists keyed by coordinate tuples, the windowed kernel calls that
the ring variant and the fast tier share against one call per problem,
and the two Cell-Based detectors against the inputs they must refuse.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest

from repro.data import uniform
from repro.detectors import (
    CellBasedDetector,
    CellBasedRingDetector,
    NestedLoopDetector,
)
from repro.detectors._scan import window_counts
from repro.geometry import CellIndex, Rect
from repro.kernels import NumpyKernel
from repro.params import OutlierParams


def dict_index(coords):
    members = defaultdict(list)
    for row, cell in enumerate(map(tuple, coords)):
        members[cell].append(row)
    return members


def offsets(ndim, radius, beyond=-1):
    """The offsets of Chebyshev norm in ``(beyond, radius]``, in
    lexicographic order."""
    return [
        offset for offset in itertools.product(
            range(-radius, radius + 1), repeat=ndim
        )
        if max(map(abs, offset), default=0) > beyond
    ]


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("spread", [3, 40, 10**15])
def test_index_matches_a_dict_of_lists(ndim, spread):
    rng = np.random.default_rng(ndim * 7 + len(str(spread)))
    coords = rng.integers(-spread, spread, size=(300, ndim))
    coords[::3] = coords[1::3][: coords[::3].shape[0]]  # shared cells
    index = CellIndex(coords)
    members = dict_index(coords)
    assert index.counts.size == len(members)
    # Cells are numbered in lexicographic order of their coordinates.
    assert [tuple(c) for c in index.cells] == sorted(members)
    for cell, rows in zip(index.cells, np.split(
        index.rows, np.cumsum(index.counts)[:-1]
    )):
        assert rows.tolist() == members[tuple(cell)]
    targets = np.vstack([index.cells, coords[:20] + 1])
    for radius in (0, 1, 2):
        walked = list(index.runs(targets, radius))
        assert [prefix for prefix, _, _ in walked] == offsets(ndim - 1, radius)
        for prefix, begin, end in walked:
            for t, lo, hi in zip(targets, begin, end):
                assert index.rows[lo:hi].tolist() == [
                    row for last in range(-radius, radius + 1)
                    for row in members.get(tuple(t + (*prefix, last)), ())
                ]
    rows, sizes = index.neighbourhood(targets, 2, beyond=1)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    for t, lo, hi in zip(targets, bounds[:-1], bounds[1:]):
        expected = [
            row for o in offsets(ndim, 2, beyond=1)
            for row in members.get(tuple(t + o), ())
        ]
        assert rows[lo:hi].tolist() == expected


def test_runs_miss_absent_cells():
    index = CellIndex(np.array([[0, 0], [0, 5], [5, 0]]))
    targets = np.array([[0, 5], [5, 5], [5, 0], [9, 9], [-1, 0], [0, 1]])
    [(_, begin, end)] = index.runs(targets, 0)
    assert [index.rows[lo:hi].tolist() for lo, hi in zip(begin, end)] == [
        [1], [], [2], [], [], []
    ]


class RecordingKernel(NumpyKernel):
    """Records the window sizes of every batched call."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def count_neighbors_batch(self, problems, r, need, metric=None):
        self.batches.append([c.shape[0] for _, c in problems])
        return super().count_neighbors_batch(problems, r, need, metric)


def test_window_counts_batch_windows_of_like_size():
    """A batched pass pads every window to its widest: one call holds
    only windows within a power of two of each other, and each problem
    still gets what its own call gives.  One window is a hundred times
    its neighbours, as a ring beside a dense cluster is."""
    rng = np.random.default_rng(2)
    pool = rng.uniform(0.0, 10.0, size=(1_000, 2))
    windows = np.array([700, 3, 5, 4, 0, 6, 2, 8, 7, 1])
    members = np.array([2, 1, 3, 1, 2, 1, 1, 2, 1, 1])
    need = np.array([2, 2, 2, 1, 2, 2, 2, 1, 2, 2])
    rows = rng.integers(0, pool.shape[0], size=windows.sum())
    queries = rng.uniform(0.0, 10.0, size=(members.sum(), 2))
    kernel = RecordingKernel()
    counts, evals = window_counts(
        kernel, queries, members, pool, rows, windows, 1.5, need
    )
    for sizes in kernel.batches:
        assert max(sizes) < 2 * max(min(sizes), 1)
    expected, charged = [], 0
    for q, c, n in zip(
        np.split(queries, np.cumsum(members)[:-1]),
        np.split(pool[rows], np.cumsum(windows)[:-1]), need,
    ):
        found, spent = NumpyKernel().count_neighbors(q, c, 1.5, int(n))
        expected.append(found)
        charged += spent
    assert counts.tolist() == np.concatenate(expected).tolist()
    assert evals == charged


def test_fractional_coordinates_floor_into_cells():
    index = CellIndex(np.array([[0.5, -0.5], [0.0, -1.0], [1.0, 0.0]]))
    assert index.cells.tolist() == [[0, -1], [1, 0]]
    assert index.cell_of.tolist() == [0, 0, 1]


def test_index_refuses_coordinates_it_cannot_number():
    for bad in (np.nan, np.inf, -np.inf, 2.0**62, -1e300):
        with pytest.raises(ValueError, match="finite"):
            CellIndex(np.array([[0.0, 0.0], [bad, 1.0]]))


@pytest.mark.parametrize("cls", [CellBasedDetector, CellBasedRingDetector])
def test_a_nan_coordinate_is_refused_not_answered(cls):
    """A NaN row would spread through the grid origin into every cell
    key and make every point an inlier.  The shared partition validator
    refuses it, for Nested-Loop (which used to call the NaN row an
    outlier) as for Cell-Based."""
    points = uniform(40, Rect((0.0, 0.0), (3.0, 3.0)), seed=1).points
    points = np.vstack([points, [[np.nan, 1.0]]])
    params = OutlierParams(r=1.0, k=2)
    for detector in (NestedLoopDetector(), cls()):
        with pytest.raises(ValueError, match="finite"):
            detector.detect(
                points, np.arange(points.shape[0]), np.empty((0, 2)), params
            )
