"""The numpy kernel's sweep, held to the scalar oracle.

On a large sparse problem ``NumpyKernel`` cuts the queries into cells
along the candidates' widest and second widest axes, and each cell
scans only the candidates within ``reach`` of it on both axes, charging
each decided query its ``need``-th match's position in the full order
through a per-cell position map.  ``(counts, charged)`` must equal the
``python`` oracle's byte for byte.  The gate keeps small problems on the
plain scan, so the properties patch its constants (as
``tests/test_kernel_blocking.py`` patches ``ROW_BLOCK``) until every
draw sweeps, in cells down to one query (or one coordinate).  The draws
aim at what the windows' margins and the position maps must get right:
quantised coordinates (duplicates and ``d == r`` common), pairs exactly
``r`` apart on the first and on the second cut axis, coordinates offset
by ``1e6`` on a grid of tenths on every axis (so ``q - c`` and the
window bounds round), ``d`` from 1 (strips only) to 3, zero-width axes,
and swept problems beside plain ones in one batched call.  Two
fixed cases put a candidate one ulp past ``fl(q + r)`` on either cut
axis, where the oracle still counts it; one un-patched call of
``batch_scan``'s shape asserts that the shipped gate sweeps, and one
sparse run asserts it sweeps end to end.

CI runs this with ``HYPOTHESIS_PROFILE=ci`` in the kernel-equivalence
job.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, detect_outliers
from repro.kernels import NumpyKernel, PythonKernel, base, numpy_backend
from repro.mapreduce.counters import Counters
from repro.params import OutlierParams

#: ``CELL_LENGTHS`` (in ``r``): one coordinate per cell, small cells,
#: the shipped ones, and cells wider than a window.
CELLS = st.sampled_from([(1e-3, 1e-3), (0.5, 0.5), (1.5, 2.0), (4.0, 3.0)])
TILES = st.sampled_from([8, 256])


def open_gate(patch, cells, min_queries=1, tile=256):
    patch.setattr(base, "TILE", tile)
    patch.setattr(numpy_backend, "SWEEP_MIN_QUERIES", min_queries)
    patch.setattr(numpy_backend, "SWEEP_STOP_SHARE", 0.0)
    patch.setattr(numpy_backend, "CELL_LENGTHS", cells)


def swept(queries, candidates, r, need, cells=(1e-3, 1e-3), tile=256):
    """``(counts, charged)`` of the numpy kernel with its gate open to
    every call."""
    kernel = NumpyKernel()
    with pytest.MonkeyPatch.context() as patch:
        open_gate(patch, cells, tile=tile)
        assert numpy_backend._cells(
            queries, np.ascontiguousarray(candidates.T), r, need
        ) is not None
        return kernel.count_neighbors(queries, candidates, r, need)


def assert_oracle(got, queries, candidates, r, need):
    counts, charged = PythonKernel().count_neighbors(
        queries, candidates, r, need
    )
    assert got[0].dtype == counts.dtype
    assert got[0].tolist() == counts.tolist()
    assert got[1] == charged


@st.composite
def grid_blocks(draw, step, offset=0.0, d=None, flat=None):
    """Points on a grid of ``step`` (cells 0..12) shifted by ``offset``
    on every axis; in some draws one axis every point shares (zero
    width)."""
    if d is None:
        d = draw(st.integers(min_value=1, max_value=3))
    if flat is None:
        flat = draw(st.sampled_from([None, *range(d)]))

    def points(n):
        cells = draw(
            st.lists(
                st.integers(min_value=0, max_value=12),
                min_size=n * d, max_size=n * d,
            )
        )
        cells = np.asarray(cells, dtype=float).reshape(n, d)
        if flat is not None:
            cells[:, flat] = 6
        return offset + cells * step

    queries = points(draw(st.integers(min_value=1, max_value=40)))
    candidates = points(draw(st.integers(min_value=1, max_value=120)))
    r = draw(st.integers(min_value=1, max_value=8)) * step
    need = draw(st.integers(min_value=1, max_value=30))
    return queries, candidates, r, need


@st.composite
def pairs_at_r(draw, axis):
    """Each query's partner lies ``r`` from it along ``axis`` with the
    other coordinate equal; two far anchors make x the widest axis, so
    ``axis`` 0 is the first cut axis and ``axis`` 1 the second."""
    step = draw(st.sampled_from([0.25, 0.1]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    r = draw(st.integers(min_value=1, max_value=8)) * step
    n = draw(st.integers(min_value=1, max_value=30))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=n, max_size=n,
        )
    )
    queries = offset + np.asarray(cells, dtype=float) * step
    signs = draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    )
    partners = queries.copy()
    partners[:, axis] += np.asarray(signs) * r
    anchors = offset + np.asarray([[-60.0, 0.0], [100.0, 0.0]]) * step
    candidates = np.vstack([partners, queries, anchors])
    order = draw(st.permutations(range(len(candidates))))
    need = draw(st.integers(min_value=1, max_value=4))
    return queries, candidates[list(order)], r, need


class TestSweepEqualsTheOracle:
    @given(blocks=grid_blocks(0.25), cells=CELLS, tile=TILES)
    def test_quantised(self, blocks, cells, tile):
        assert_oracle(swept(*blocks, cells, tile), *blocks)

    @given(blocks=grid_blocks(0.1, offset=1e6), cells=CELLS, tile=TILES)
    def test_offset_by_a_million(self, blocks, cells, tile):
        assert_oracle(swept(*blocks, cells, tile), *blocks)

    @given(blocks=grid_blocks(0.25, d=1), cells=CELLS)
    def test_one_dimension_cuts_strips_only(self, blocks, cells):
        assert_oracle(swept(*blocks, cells), *blocks)

    @given(blocks=grid_blocks(0.25, offset=1e6, d=3), cells=CELLS)
    def test_three_dimensions(self, blocks, cells):
        assert_oracle(swept(*blocks, cells), *blocks)

    @given(blocks=grid_blocks(0.25, d=2, flat=1), cells=CELLS)
    def test_a_zero_width_second_axis(self, blocks, cells):
        assert_oracle(swept(*blocks, cells), *blocks)

    @given(blocks=pairs_at_r(0), cells=CELLS)
    def test_pairs_exactly_r_apart_on_the_sweep_axis(self, blocks, cells):
        queries, candidates, r, need = blocks
        assert np.ptp(candidates, axis=0).argmax() == 0
        assert_oracle(swept(*blocks, cells), *blocks)

    @given(blocks=pairs_at_r(1), cells=CELLS)
    def test_pairs_exactly_r_apart_on_the_second_axis(self, blocks, cells):
        queries, candidates, r, need = blocks
        assert np.ptp(candidates, axis=0).argmax() == 0
        assert_oracle(swept(*blocks, cells), *blocks)

    def test_a_candidate_one_ulp_past_q_plus_r(self):
        # c is the float right after fl(q + r), yet the kernel's rounded
        # (q - c)² is <= fl(r * r): a window of exactly r would leave
        # out a neighbour the oracle counts.
        q, c, r = 0.2, 0.7000000000000001, 0.5
        assert c == np.nextafter(q + r, np.inf)
        assert (q - c) * (q - c) <= r * r
        queries, candidates = np.array([[q]]), np.array([[c]])
        got = swept(queries, candidates, r, 1)
        assert got[0].tolist() == [1]
        assert_oracle(got, queries, candidates, r, 1)

    def test_a_candidate_one_ulp_past_q_plus_r_on_the_second_axis(self):
        # The same neighbour along y; the anchors make x the first axis.
        q, c, r = 0.2, 0.7000000000000001, 0.5
        queries = np.array([[0.0, q]])
        candidates = np.array([[0.0, c], [-30.0, q], [30.0, q]])
        got = swept(queries, candidates, r, 1)
        assert got[0].tolist() == [1]
        assert_oracle(got, queries, candidates, r, 1)


@st.composite
def stacked_problems(draw):
    """2–4 problems of one dimension; with the gate open from 6
    queries on, the larger ones sweep and the rest scan whole."""
    d = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(grid_blocks(0.25, d=d))[:2]
        for _ in range(draw(st.integers(min_value=2, max_value=4)))
    ]


class TestSweptAndPlainInOneCall:
    @given(
        problems=stacked_problems(),
        r=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        need=st.integers(min_value=1, max_value=12),
        cells=CELLS,
        tile=TILES,
    )
    @settings(deadline=None)
    def test_each_problem_as_its_own_call(
        self, problems, r, need, cells, tile
    ):
        with pytest.MonkeyPatch.context() as patch:
            open_gate(patch, cells, min_queries=6, tile=tile)
            kernel = NumpyKernel()
            got = kernel.count_neighbors_batch(problems, r, need)
            assert kernel.calls == len(problems)
            for (queries, candidates), (counts, charged, computed) in zip(
                problems, got
            ):
                alone = NumpyKernel()
                own = alone.count_neighbors(queries, candidates, r, need)
                assert counts.tolist() == own[0].tolist()
                assert (charged, computed) == (own[1], alone.evals_computed)
                assert_oracle((counts, charged), queries, candidates, r, need)


    def test_a_whole_problem_does_not_pad_the_cells(self):
        # A dense partition the gate scans whole (4 000 candidates in a
        # 3 x 3 square) beside a sparse one it cuts into 257 cells.  In
        # one block every cell's window is padded to 4 000 columns (a
        # 27 MiB peak); the cells take a pass of their own (0.6 MiB).
        import tracemalloc

        rng = np.random.default_rng(8)
        dense = rng.random((4000, 2)) * 3
        sparse = rng.random((600, 2)) * 30 + 50
        problems = [(dense[:100], dense), (sparse, sparse)]
        kernel = NumpyKernel()
        tracemalloc.start()
        try:
            got = kernel.count_neighbors_batch(problems, 1.0, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert kernel.evals_computed < kernel.evals_charged
        for (queries, candidates), (counts, charged, _) in zip(
            problems, got
        ):
            assert_oracle((counts, charged), queries, candidates, 1.0, 5)


class TestShippedGate:
    def test_a_batch_scan_shaped_call_sweeps(self):
        # A sparse partition: 600 of 1 500 uniform candidates in a
        # 48 x 48 square as queries, r = 5, need = 41.  Lemma 4.1 puts
        # the stop near 41 · 48² / (π · 25) ≈ 1 200 candidates, past a
        # quarter of them, so the shipped gate sweeps.
        rng = np.random.default_rng(31)
        candidates = rng.random((1500, 2)) * 48
        queries = candidates[:600]
        kernel = NumpyKernel()
        got = kernel.count_neighbors(queries, candidates, 5.0, 41)
        assert_oracle(got, queries, candidates, 5.0, 41)
        # Only a swept call computes fewer distances than it charges.
        assert kernel.evals_computed < kernel.evals_charged

    def test_a_sparse_run_sweeps_end_to_end(self):
        # Two uniSpace partitions of ~700 sparse points each: every
        # kernel call has >= 512 queries and a stop position past a
        # quarter of its candidates, so the shipped gate sweeps inside a
        # whole run too.  Same outliers and charged evals as the python
        # oracle, fewer distances computed.
        points = np.random.default_rng(5).uniform(0, 45, (1400, 2))
        data = Dataset.from_points(points, "sparse")
        params = OutlierParams(r=5.0, k=40)

        def run(kernel):
            result = detect_outliers(
                data, params, strategy="uniSpace", detector="nested_loop",
                n_partitions=2, n_reducers=2, kernel=kernel,
            )
            group = Counters()
            for job in result.run.jobs:
                group.merge(job.counters)
            return result.outlier_ids, group.group("kernel")

        oracle_ids, oracle = run("python")
        ids, swept = run("numpy")
        assert ids == oracle_ids
        assert swept["evals_charged"] == oracle["evals_charged"]
        assert swept["evals_computed"] < oracle["evals_computed"]
