"""Unit tests for repro.geometry.rect."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Rect


def boxes(ndim=2, lo=-100.0, hi=100.0):
    """Hypothesis strategy producing valid Rects."""
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.lists(
        st.tuples(coord, coord), min_size=ndim, max_size=ndim
    ).map(
        lambda dims: Rect(
            tuple(min(a, b) for a, b in dims),
            tuple(max(a, b) for a, b in dims),
        )
    )


class TestConstruction:
    def test_basic(self):
        r = Rect((0.0, 0.0), (2.0, 3.0))
        assert r.ndim == 2
        assert r.area == 6.0
        assert r.widths == (2.0, 3.0)
        assert r.center == (1.0, 1.5)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            Rect((1.0,), (0.0,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rect((0.0, 0.0), (1.0,))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_degenerate_allowed(self):
        r = Rect((1.0, 1.0), (1.0, 2.0))
        assert r.area == 0.0

    def test_from_arrays(self):
        r = Rect.from_arrays(np.array([0, 0]), np.array([1, 2]))
        assert r.high == (1.0, 2.0)

    def test_bounding(self):
        pts = np.array([[0.0, 5.0], [2.0, 1.0], [-1.0, 3.0]])
        r = Rect.bounding(pts)
        assert r.low == (-1.0, 1.0)
        assert r.high == (2.0, 5.0)

    def test_bounding_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.bounding(np.empty((0, 2)))


class TestContainment:
    def test_contains_closed(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.contains((0.0, 0.0))
        assert r.contains((1.0, 1.0))
        assert not r.contains((1.0001, 0.5))

    def test_contains_mask_matches_scalar(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [1.0, 1.0]])
        np.testing.assert_array_equal(
            r.contains_mask(pts), [True, False, True]
        )

    @given(boxes())
    def test_center_always_contained(self, r):
        assert r.contains(r.center)


class TestRelations:
    def test_expand(self):
        r = Rect((0.0, 0.0), (1.0, 1.0)).expand(2.0)
        assert r.low == (-2.0, -2.0)
        assert r.high == (3.0, 3.0)

    def test_expand_negative_rejected(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0,)).expand(-1.0)

    def test_intersects_touching(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((1.0, 0.0), (2.0, 1.0))
        assert a.intersects(b)
        assert not a.overlaps_interior(b)

    def test_disjoint(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, 0.0), (3.0, 1.0))
        assert not a.intersects(b)

    def test_corner_touch_not_adjacent_after_overlap_check(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((1.0, 1.0), (2.0, 2.0))
        # Corner-only contact is still reported as touching by the loose
        # candidate filter; the strict merge criteria reject it.
        assert not a.forms_rectangle_with(b)

    def test_union_bbox(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, 2.0), (3.0, 3.0))
        u = a.union_bbox(b)
        assert u.low == (0.0, 0.0)
        assert u.high == (3.0, 3.0)

    def test_clip(self):
        a = Rect((0.0, 0.0), (2.0, 2.0))
        b = Rect((1.0, 1.0), (3.0, 3.0))
        c = a.clip(b)
        assert c.low == (1.0, 1.0)
        assert c.high == (2.0, 2.0)

    @given(boxes(), boxes())
    def test_union_bbox_contains_both(self, a, b):
        u = a.union_bbox(b)
        assert u.contains(a.low) and u.contains(a.high)
        assert u.contains(b.low) and u.contains(b.high)

    @given(boxes(), boxes())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)


class TestRectangularUnion:
    def test_exact_stack(self):
        a = Rect((0.0, 0.0), (2.0, 1.0))
        b = Rect((0.0, 1.0), (2.0, 2.0))
        assert a.forms_rectangle_with(b)
        assert b.forms_rectangle_with(a)

    def test_misaligned(self):
        a = Rect((0.0, 0.0), (2.0, 1.0))
        b = Rect((0.5, 1.0), (2.5, 2.0))
        assert not a.forms_rectangle_with(b)

    def test_gap(self):
        a = Rect((0.0, 0.0), (2.0, 1.0))
        b = Rect((0.0, 1.5), (2.0, 2.0))
        assert not a.forms_rectangle_with(b)

    def test_identical_not_mergeable(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        assert not a.forms_rectangle_with(a)

    def test_union_area_is_sum(self):
        a = Rect((0.0, 0.0), (2.0, 1.0))
        b = Rect((0.0, 1.0), (2.0, 2.0))
        assert a.forms_rectangle_with(b)
        u = a.union_bbox(b)
        assert u.area == pytest.approx(a.area + b.area)


class TestMetrics:
    def test_distance_to_boundary(self):
        r = Rect((0.0, 0.0), (10.0, 10.0))
        assert r.distance_to_boundary((5.0, 5.0)) == 5.0
        assert r.distance_to_boundary((1.0, 5.0)) == 1.0

    def test_enlargement(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((0.25, 0.25), (0.75, 0.75))
        assert a.enlargement(b) == 0.0
        c = Rect((0.0, 0.0), (2.0, 1.0))
        assert a.enlargement(c) == pytest.approx(1.0)
