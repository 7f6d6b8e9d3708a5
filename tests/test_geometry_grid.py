"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Rect, UniformGrid, balanced_factorization


DOMAIN = Rect((0.0, 0.0), (10.0, 20.0))


class TestFactorization:
    def test_exact_square(self):
        assert balanced_factorization(16, 2) == (4, 4)

    def test_rounds_up(self):
        f = balanced_factorization(10, 2)
        assert np.prod(f) >= 10

    def test_one_dim(self):
        assert balanced_factorization(7, 1) == (7,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_factorization(0, 2)
        with pytest.raises(ValueError):
            balanced_factorization(4, 0)

    @given(st.integers(1, 200), st.integers(1, 4))
    def test_always_covers(self, m, d):
        assert np.prod(balanced_factorization(m, d)) >= m


class TestIndexing:
    def test_cell_of_center(self):
        g = UniformGrid(DOMAIN, (2, 4))
        assert g.cell_of((2.0, 2.0)) == (0, 0)
        assert g.cell_of((7.0, 18.0)) == (1, 3)

    def test_boundary_points_clamped(self):
        g = UniformGrid(DOMAIN, (2, 4))
        assert g.cell_of((10.0, 20.0)) == (1, 3)
        assert g.cell_of((-5.0, -5.0)) == (0, 0)

    def test_cells_of_matches_scalar(self):
        g = UniformGrid(DOMAIN, (5, 7))
        rng = np.random.default_rng(0)
        pts = rng.uniform((0, 0), (10, 20), size=(200, 2))
        batch = g.cells_of(pts)
        for p, idx in zip(pts, batch):
            assert g.cell_of(p) == tuple(idx)

    def test_flat_roundtrip(self):
        g = UniformGrid(DOMAIN, (3, 5))
        for idx in g.iter_cells():
            assert g.unflatten(g.flat_index(idx)) == idx

    def test_flat_indices_vectorized(self):
        g = UniformGrid(DOMAIN, (3, 5))
        idx = np.array([[0, 0], [2, 4], [1, 3]])
        flat = g.flat_indices(idx)
        assert flat.tolist() == [
            g.flat_index(tuple(row)) for row in idx
        ]


class TestGeometry:
    def test_cells_tile_domain(self):
        g = UniformGrid(DOMAIN, (4, 4))
        total = sum(g.cell_rect(i).area for i in g.iter_cells())
        assert total == pytest.approx(DOMAIN.area)

    def test_last_cell_snaps_to_domain(self):
        g = UniformGrid(Rect((0.0,), (1.0,)), (3,))
        assert g.cell_rect((2,)).high == (1.0,)

    def test_cell_rect_out_of_range(self):
        g = UniformGrid(DOMAIN, (2, 2))
        with pytest.raises(IndexError):
            g.cell_rect((2, 0))

    def test_cells_within_full_domain(self):
        g = UniformGrid(DOMAIN, (3, 3))
        assert len(list(g.cells_within(DOMAIN))) == 9

    def test_cells_within_small_rect(self):
        g = UniformGrid(DOMAIN, (10, 10))
        probe = Rect((0.1, 0.1), (0.9, 1.9))
        cells = list(g.cells_within(probe))
        assert cells == [(0, 0)]

    def test_cells_within_face_on_boundary(self):
        g = UniformGrid(Rect((0.0,), (10.0,)), (10,))
        # Upper face exactly on a cell boundary: belongs to the lower cell.
        cells = list(g.cells_within(Rect((0.5,), (1.0,))))
        assert cells == [(0,)]

    def test_point_is_in_its_cell_rect(self):
        g = UniformGrid(DOMAIN, (7, 3))
        rng = np.random.default_rng(1)
        for p in rng.uniform((0, 0), (10, 20), size=(100, 2)):
            assert g.cell_rect(g.cell_of(p)).contains(p)

    def test_with_cells(self):
        g = UniformGrid.with_cells(DOMAIN, 30)
        assert g.n_cells >= 30
