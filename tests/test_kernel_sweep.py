"""The numpy kernel's sweep, held to the scalar oracle.

On a large sparse call ``NumpyKernel`` cuts the queries into strips
along the candidates' widest axis and scans, per strip, only the
candidates within ``reach`` of it on that axis, charging each decided
query its ``need``-th match's position in the full order through a
position map.  ``(counts, charged)`` must equal the ``python`` oracle's
byte for byte.  The gate keeps small calls on the plain scan, so the
properties patch its constants (as ``tests/test_kernel_blocking.py``
patches ``ROW_BLOCK``) until every draw sweeps, in strips down to one
query.  The draws aim at what the window's margin and the position map
must get right: quantised coordinates (duplicates and ``d == r``
common), pairs exactly ``r`` apart on the sweep axis, coordinates
offset by ``1e6`` on a grid of tenths (so ``q - c`` and the window
bounds round), ``d`` from 1 to 3 and zero-width axes.  One fixed case
puts a candidate one ulp past ``fl(q + r)`` where the oracle still
counts it; one un-patched call of ``batch_scan``'s shape asserts that
the shipped gate sweeps.

CI runs this with ``HYPOTHESIS_PROFILE=ci`` in the kernel-equivalence
job.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import NumpyKernel, PythonKernel, numpy_backend

#: ``(STRIP_MIN_QUERIES, STRIP_WIDTH)``: one query (or one coordinate)
#: per strip, small strips, and strips wider than a window.
STRIPS = st.sampled_from([(1, 0.0), (1, 0.5), (2, 0.5), (7, 2.0), (64, 0.5)])
TILES = st.sampled_from([8, 256])


def swept(queries, candidates, r, need, strips=(1, 0.5), tile=256):
    """``(counts, charged)`` of the numpy kernel with its gate open to
    every call."""
    kernel = NumpyKernel(tile=tile)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "SWEEP_MIN_QUERIES", 1)
        patch.setattr(numpy_backend, "SWEEP_STOP_SHARE", 0.0)
        patch.setattr(numpy_backend, "STRIP_MIN_QUERIES", strips[0])
        patch.setattr(numpy_backend, "STRIP_WIDTH", strips[1])
        assert numpy_backend._sweep_axis(
            queries, candidates, r, need
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
def grid_blocks(draw, step, offset=0.0):
    """Points on a grid of ``step`` (cells 0..12) shifted by ``offset``;
    in some draws one axis every point shares (zero width)."""
    d = draw(st.integers(min_value=1, max_value=3))
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
def pairs_at_r(draw):
    """Each query's partner lies ``r`` from it along x with ``Δy == 0``;
    two far anchors make x the widest (the sweep) axis."""
    step = draw(st.sampled_from([0.25, 0.1]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    r = draw(st.integers(min_value=1, max_value=8)) * step
    n = draw(st.integers(min_value=1, max_value=30))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=n, max_size=n,
        )
    )
    queries = offset + np.asarray(cells, dtype=float) * step
    signs = draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    )
    partners = queries.copy()
    partners[:, 0] += np.asarray(signs) * r
    anchors = offset + np.asarray([[-60.0, 0.0], [100.0, 0.0]]) * step
    candidates = np.vstack([partners, queries, anchors])
    order = draw(st.permutations(range(len(candidates))))
    need = draw(st.integers(min_value=1, max_value=4))
    return queries, candidates[list(order)], r, need


class TestSweepEqualsTheOracle:
    @given(blocks=grid_blocks(0.25), strips=STRIPS, tile=TILES)
    def test_quantised(self, blocks, strips, tile):
        assert_oracle(swept(*blocks, strips, tile), *blocks)

    @given(blocks=grid_blocks(0.1, offset=1e6), strips=STRIPS, tile=TILES)
    def test_offset_by_a_million(self, blocks, strips, tile):
        assert_oracle(swept(*blocks, strips, tile), *blocks)

    @given(blocks=pairs_at_r(), strips=STRIPS)
    def test_pairs_exactly_r_apart_on_the_sweep_axis(self, blocks, strips):
        queries, candidates, r, need = blocks
        assert np.ptp(candidates, axis=0).argmax() == 0
        assert_oracle(swept(*blocks, strips), *blocks)

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
