"""Unit and property tests for the multi-bin-packing allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.allocation import allocate


class TestAllocate:
    def test_single_bin(self):
        result = allocate([3.0, 1.0, 2.0], 1)
        assert result.makespan == 6.0
        assert set(result.assignment) == {0}

    def test_perfect_split(self):
        result = allocate([2.0, 2.0, 2.0, 2.0], 2)
        assert result.makespan == 4.0
        assert result.imbalance == pytest.approx(1.0)

    def test_classic_lpt_case_refined(self):
        # Costs where naive LPT gives 11 but optimum is 9; the local
        # search must close (most of) the gap.
        costs = [5, 4, 3, 3, 3]
        result = allocate(costs, 2)
        assert result.makespan <= 10

    def test_more_bins_than_items(self):
        result = allocate([5.0, 1.0], 8)
        assert result.makespan == 5.0

    def test_empty(self):
        result = allocate([], 4)
        assert result.makespan == 0.0
        assert result.as_table() == {}

    def test_empty_schedules_no_bins(self):
        """Regression: packing zero items must yield the explicit empty
        allocation — not n_bins zero-load bins a caller would schedule a
        phantom reducer for each of."""
        result = allocate([], 4)
        assert result.assignment == ()
        assert result.bin_loads == ()
        assert result.imbalance == 1.0

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            allocate([1.0], 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            allocate([-1.0], 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cost_rejected(self, bad):
        # NaN used to put every item in bin 0 with load nan.
        with pytest.raises(ValueError, match="finite"):
            allocate([bad, 1.0, 2.0], 2)

    def test_table_shape(self):
        result = allocate([1.0, 2.0, 3.0], 2)
        table = result.as_table()
        assert set(table.keys()) == {0, 1, 2}
        assert all(0 <= v < 2 for v in table.values())

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
        st.integers(1, 12),
    )
    def test_properties(self, costs, k):
        result = allocate(costs, k)
        # every item assigned to a valid bin
        assert all(0 <= b < k for b in result.assignment)
        # loads are consistent with the assignment
        loads = [0.0] * k
        for item, dest in enumerate(result.assignment):
            loads[dest] += costs[item]
        for computed, reported in zip(loads, result.bin_loads):
            assert computed == pytest.approx(reported)
        # makespan is at least the trivial lower bounds
        assert result.makespan >= max(costs) - 1e-9
        assert result.makespan >= sum(costs) / k - 1e-9

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=4, max_size=40),
        st.integers(2, 8),
    )
    def test_lpt_quality_bound(self, costs, k):
        """LPT + refinement stays within the 4/3 + eps guarantee of the
        optimum (bounded below by standard makespan lower bounds)."""
        result = allocate(costs, k)
        desc = sorted(costs, reverse=True)
        lower = max(desc[0], sum(costs) / k)
        if len(desc) > k:
            # With k+1 items, some bin holds two of the top k+1; the
            # cheapest such pair bounds the optimum from below.
            lower = max(lower, desc[k - 1] + desc[k])
        assert result.makespan <= (4.0 / 3.0) * lower + desc[0] * 1e-9
