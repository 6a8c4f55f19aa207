import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from codecal.binning import (
    MAX_GRID_M,
    BinGrid,
    assign_bins,
    cell_sums,
    member_pairs,
    round_to_grid_index,
)
from codecal.errors import DataError

from oracles import brute_bin_of, brute_nearest_grid


class TestBinGrid:
    def test_values(self):
        # The grid values are i/m for i = 1..m, with no zero point.
        grid = BinGrid(4)
        scores = np.linspace(0.0, 1.0, 101)
        values = np.unique(round_to_grid_index(scores, grid)) / grid.m
        np.testing.assert_array_equal(values, [0.25, 0.5, 0.75, 1.0])

    def test_rejects_small_m(self):
        with pytest.raises(DataError):
            BinGrid(1)

    def test_rejects_non_integer(self):
        with pytest.raises(DataError):
            BinGrid(2.5)

    def test_bounded_above(self):
        assert BinGrid(MAX_GRID_M).m == MAX_GRID_M
        with pytest.raises(DataError, match=f"from 2 to {MAX_GRID_M}, got {MAX_GRID_M + 1}"):
            BinGrid(MAX_GRID_M + 1)


class TestAssignBin:
    def test_boundary_goes_right(self):
        assert assign_bins([0.05], BinGrid(20)).tolist() == [2]

    def test_zero_in_first_bin(self):
        assert assign_bins([0.0], BinGrid(20)).tolist() == [1]

    def test_one_in_last_bin(self):
        assert assign_bins([1.0], BinGrid(20)).tolist() == [20]

    def test_out_of_range(self):
        with pytest.raises(DataError):
            assign_bins([1.2], BinGrid(20))
        with pytest.raises(DataError):
            assign_bins([-0.1], BinGrid(20))

    def test_matches_interval_definition(self):
        rng = np.random.default_rng(42)
        for m in (2, 5, 20):
            grid = BinGrid(m)
            scores = rng.random(200)
            got = assign_bins(scores, grid)
            expected = [brute_bin_of(p, m) for p in scores]
            np.testing.assert_array_equal(got, expected)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=50))
    def test_always_in_range(self, p, m):
        (b,) = assign_bins([p], BinGrid(m))
        assert 1 <= b <= m


class TestRoundToGrid:
    def test_nearest_value(self):
        assert round_to_grid_index([0.12], BinGrid(10))[0] / 10 == 0.1

    def test_tie_rounds_up(self):
        assert round_to_grid_index([0.075], BinGrid(20))[0] / 20 == 0.1

    def test_no_zero_point(self):
        assert round_to_grid_index([0.01, 0.0], BinGrid(20)).tolist() == [1, 1]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for m in (2, 5, 20):
            grid = BinGrid(m)
            for p in rng.random(300):
                assert round_to_grid_index([p], grid)[0] / m == brute_nearest_grid(float(p), m)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=50))
    def test_idempotent(self, p, m):
        grid = BinGrid(m)
        once = round_to_grid_index([p], grid)
        assert round_to_grid_index(once / m, grid).tolist() == once.tolist()

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=50))
    def test_error_bound(self, p, m):
        grid = BinGrid(m)
        err = abs(round_to_grid_index([p], grid)[0] / m - p)
        if p >= 1 / (2 * m):
            assert err <= 1 / (2 * m) + 1e-12
        else:
            # Below the first grid value the nearest point is 1/m away at worst.
            assert err <= 1 / m + 1e-12

    def test_index_matches_value(self):
        grid = BinGrid(20)
        scores = np.linspace(0, 1, 101)
        idx = round_to_grid_index(scores, grid)
        assert idx.tolist() == [round_to_grid_index([p], grid)[0] for p in scores]
        np.testing.assert_array_equal(idx / grid.m, [brute_nearest_grid(p, 20) for p in scores])


def per_group_bincount(membership, cells, m, weights):
    """Reference: one bincount per group over that group's rows, in row order."""
    k = membership.shape[1]
    counts = np.zeros((k, m), dtype=np.int64)
    sums = [np.zeros((k, m)) for _ in weights]
    for j in range(k):
        sel = membership[:, j].astype(bool)
        counts[j] = np.bincount(cells[sel] - 1, minlength=m)
        for table, w in zip(sums, weights):
            table[j] = np.bincount(cells[sel] - 1, weights=w[sel], minlength=m)
    return counts, sums


@st.composite
def memberships(draw):
    """Random (n, k) memberships with some groups forced empty, cells and two weights."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(0, 6))
    m = draw(st.integers(2, 12))
    membership = draw(arrays(np.int8, (n, k), elements=st.integers(0, 1)))
    membership[:, draw(arrays(np.bool_, k))] = 0
    cells = draw(arrays(np.int64, n, elements=st.integers(1, m)))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    weights = [draw(arrays(np.float64, n, elements=finite)) for _ in range(2)]
    return membership, cells, m, weights


class TestCellSums:
    @given(memberships())
    def test_matches_per_group_bincount(self, case):
        membership, cells, m, weights = case
        counts, *sums = cell_sums(cells, m, member_pairs(membership), *weights)
        ref_counts, ref_sums = per_group_bincount(membership, cells, m, weights)
        assert counts.shape == (membership.shape[1], m)
        assert np.array_equal(counts, ref_counts)
        for got, want in zip(sums, ref_sums):
            assert np.array_equal(got, want)

    @given(memberships())
    def test_no_pairs_is_one_group_of_all_rows(self, case):
        _, cells, m, weights = case
        everyone = np.ones((cells.size, 1), dtype=np.int8)
        got = cell_sums(cells, m, None, *weights)
        want = cell_sums(cells, m, member_pairs(everyone), *weights)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_pairs_are_group_major(self):
        membership = np.array([[1, 1], [0, 1], [1, 0]])
        k, group, row = member_pairs(membership)
        assert k == 2
        assert group.tolist() == [0, 0, 1, 1]
        assert row.tolist() == [0, 2, 0, 1]
