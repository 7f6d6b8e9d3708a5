"""Blocking equivalence: the one tiled driver vs. the two loops it replaced.

``Kernel._scan_tiles`` walks the queries in row blocks, fills each match
tile into reused buffers, and runs a prefix sum only over the rows a row
count says decided.  The two loops it replaced — ``NumpyKernel._count``
and ``Kernel._count_metric_tiled`` as they stood before — are kept here
verbatim as the oracle: every query still walks the same tile widths, so
``counts``, charged evals **and** computed evals must be equal, not
close.  ``tests/test_kernel_equivalence.py`` draws at most 10 x 60
points and cannot see a block boundary; here the row-block constant is
patched down to 1 / 2 / 7 / 16 so blocks split mid-data, the last block
is short, and rows decide in the first, a middle and the last tile of a
block.  One fixed case runs at the shipped constant, and a
``tracemalloc`` bound pins the buffer reuse that the speed comes from.
The loops know no sweep, so ``driver_count`` keeps the numpy kernel on
its plain scan (``tests/test_kernel_sweep.py`` holds the sweep to the
oracle).

CI runs this with ``HYPOTHESIS_PROFILE=ci`` in the kernel-equivalence
job.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import NumpyKernel, PythonKernel, base, numpy_backend
from repro.kernels.base import scalar_metric_count
from repro.metrics import make_metric


# ----------------------------------------------------------------------
# The oracle: the parent's two tiled loops, verbatim (the tile width
# is an argument), behind the guard ``count_neighbors`` applies to both.
# ----------------------------------------------------------------------
def reference_count(queries, candidates, r, need, tile):
    r2 = r * r
    counts = np.zeros(queries.shape[0], dtype=np.int64)
    undecided = np.arange(queries.shape[0])
    charged = 0
    computed = 0
    width = max(8, min(tile, 2 * need))
    start = 0
    while start < candidates.shape[0] and undecided.size:
        block = candidates[start:start + width]
        start += block.shape[0]
        width = min(tile, 2 * width)
        q = queries[undecided]
        d2 = np.square(q[:, 0, None] - block[None, :, 0])
        for j in range(1, q.shape[1]):
            d2 += np.square(q[:, j, None] - block[None, :, j])
        computed += q.shape[0] * block.shape[0]
        within = d2 <= r2
        cumulative = counts[undecided, None] + np.cumsum(within, axis=1)
        reached = cumulative >= need
        decided_here = reached[:, -1]
        if decided_here.any():
            stop_at = reached[decided_here].argmax(axis=1) + 1
            charged += int(stop_at.sum())
            counts[undecided[decided_here]] = need
        still = ~decided_here
        charged += int(still.sum()) * block.shape[0]
        counts[undecided[still]] += within[still].sum(axis=1)
        undecided = undecided[still]
    return counts, charged, computed


def reference_metric_tiled(queries, candidates, r, need, tile, metric):
    counts = np.zeros(queries.shape[0], dtype=np.int64)
    undecided = np.arange(queries.shape[0])
    charged = 0
    computed = 0
    width = max(8, min(tile, 2 * need))
    start = 0
    while start < candidates.shape[0] and undecided.size:
        block = candidates[start:start + width]
        start += block.shape[0]
        width = min(tile, 2 * width)
        q = queries[undecided]
        within = metric.within_block(q, block, r)
        computed += q.shape[0] * block.shape[0]
        cumulative = counts[undecided, None] + np.cumsum(within, axis=1)
        reached = cumulative >= need
        decided_here = reached[:, -1]
        if decided_here.any():
            stop_at = reached[decided_here].argmax(axis=1) + 1
            charged += int(stop_at.sum())
            counts[undecided[decided_here]] = need
        still = ~decided_here
        charged += int(still.sum()) * block.shape[0]
        counts[undecided[still]] += within[still].sum(axis=1)
        undecided = undecided[still]
    return counts, charged, computed


def guarded(reference, queries, candidates, r, need, *rest):
    if need <= 0 or queries.shape[0] == 0 or candidates.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64), 0, 0
    return reference(queries, candidates, r, need, *rest)


def driver_count(queries, candidates, r, need, tile, rows, metric=None):
    """``(counts, charged, computed)`` of the shipped kernel's plain scan
    with the tile and row-block constants patched to ``tile`` and
    ``rows`` (``None``: as shipped)."""
    kernel = NumpyKernel()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "SWEEP_MIN_QUERIES", math.inf)
        if tile is not None:
            patch.setattr(base, "TILE", tile)
        if rows is not None:
            patch.setattr(base, "ROW_BLOCK", rows)
        counts, charged = kernel.count_neighbors(
            queries, candidates, r, need, metric=metric
        )
    assert charged == kernel.evals_charged
    return counts, charged, kernel.evals_computed


def assert_same(got, expected):
    assert got[0].dtype == expected[0].dtype
    assert got[0].tolist() == expected[0].tolist()
    assert got[1:] == expected[1:]


# ----------------------------------------------------------------------
# Property: quantized blocks wide enough to cross block and tile edges
# ----------------------------------------------------------------------
# The strategy of test_kernel_equivalence.py (quantized coordinates, so
# duplicates and d == r are common), widened past a row block and past
# the 256 cap of the tile progression.
def grid_blocks(dims, x_step, y_step=None):
    y_step = x_step if y_step is None else y_step

    @st.composite
    def blocks(draw):
        d = draw(dims)
        n_q = draw(st.integers(min_value=0, max_value=40))
        n_c = draw(st.integers(min_value=0, max_value=300))
        steps = np.asarray([x_step, y_step, x_step][:d])

        def points(n):
            cells = draw(
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=n * d, max_size=n * d,
                )
            )
            return np.asarray(cells, dtype=float).reshape(n, d) * steps

        return (
            points(n_q),
            points(n_c),
            draw(st.integers(min_value=-1, max_value=70)),
            draw(st.sampled_from([8, 16, 256])),
            draw(st.sampled_from([1, 2, 7, 16])),
        )

    return blocks()


class TestDriverEqualsTheLoopsItReplaced:
    @given(
        blocks=grid_blocks(st.integers(min_value=1, max_value=3), 0.25),
        r=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
    )
    def test_euclidean(self, blocks, r):
        queries, candidates, need, tile, rows = blocks
        assert_same(
            driver_count(queries, candidates, r, need, tile, rows),
            guarded(reference_count, queries, candidates, r, need, tile),
        )

    @pytest.mark.parametrize(
        "spec,x_step,y_step,radii",
        [
            ("minkowski:1", 0.25, 0.25, [0.5, 1.0, 2.0]),
            # (lat, lon) degrees on a coarse grid, r in km.
            ("haversine", 2.5, 7.5, [300.0, 900.0, 2500.0]),
        ],
    )
    @given(data=st.data())
    def test_vectorised_metrics(self, spec, x_step, y_step, radii, data):
        metric = make_metric(spec)
        queries, candidates, need, tile, rows = data.draw(
            grid_blocks(st.just(2), x_step, y_step)
        )
        r = data.draw(st.sampled_from(radii))
        got = driver_count(
            queries, candidates, r, need, tile, rows, metric=metric
        )
        assert_same(
            got,
            guarded(
                reference_metric_tiled, queries, candidates, r, need,
                tile, metric,
            ),
        )
        scalar = guarded(
            scalar_metric_count, queries, candidates, r, need, metric
        )
        assert_same(got[:2], scalar[:2])


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
class TestBoundariesAreCrossed:
    def test_rows_decide_in_first_middle_and_last_tile_of_a_block(self):
        # 60 candidates in 8-wide tiles, need = 3.  A query at 10 * g
        # matches only the candidates placed at 10 * g, so each group's
        # scalar stop position is written below: group 0 decides in the
        # first tile, 1 in a middle one, 2 on the last candidate of the
        # short last tile, 3 and 4 never.  23 queries cycling through
        # the groups in row blocks of 7: every block holds all five and
        # the last block is short.
        candidates = np.full((60, 1), 99.0)
        matches = {0: [0, 1, 2], 1: [20, 21, 30], 2: [40, 50, 59], 3: [5, 45]}
        for group, positions in matches.items():
            candidates[positions] = 10.0 * group
        groups = np.arange(23) % 5
        queries = 10.0 * groups[:, None]
        stop = np.asarray([3, 31, 60, 60, 60])[groups]
        count = np.asarray([3, 3, 3, 2, 0])[groups]
        got = driver_count(queries, candidates, 0.5, 3, 8, 7)
        assert got[0].tolist() == count.tolist()
        assert got[1] == stop.sum()
        assert_same(got, reference_count(queries, candidates, 0.5, 3, 8))

    def test_default_constant_past_a_block_and_the_tile_cap(self):
        # Un-patched: 1 300 queries are three row blocks (the last
        # short), 700 candidates reach the tile cap twice.  The call is
        # sparse enough to sweep; driver_count keeps it on the plain
        # scan the frozen loops reproduce.
        assert base.ROW_BLOCK < 1300
        assert 2 * base.TILE < 700
        rng = np.random.default_rng(20)
        queries = rng.random((1300, 2)) * 40
        candidates = rng.random((700, 2)) * 40
        r, need, tile = 5.0, 41, base.TILE
        got = driver_count(queries, candidates, r, need, None, None)
        oracle_counts, oracle_charged = PythonKernel().count_neighbors(
            queries, candidates, r, need
        )
        assert got[0].tolist() == oracle_counts.tolist()
        assert got[1] == oracle_charged
        assert 0 < (got[0] == need).sum() < 1300  # both kinds of row
        assert_same(got, reference_count(queries, candidates, r, need, tile))


class TestMemory:
    def test_one_large_call_allocates_tiles_not_temporaries(self):
        # The speed of the scan is that nothing but the boolean tile is
        # allocated per tile: two (ROW_BLOCK x tile) float64 buffers per
        # call.  The loop this replaced held several (4000 x 256) 8-byte
        # temporaries at once — 33.5 MiB traced here, against 2.5.
        points = np.random.default_rng(0).random((4000, 2)) * 100
        kernel = NumpyKernel()
        kernel.count_neighbors(points[:50], points[:50], 5.0, 41)
        tracemalloc.start()
        try:
            kernel.count_neighbors(points, points, 5.0, 41)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB traced"
