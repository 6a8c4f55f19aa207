import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from codecal.binning import MAX_GRID_M, BinGrid, round_to_grid_index
from codecal.calibrators import (
    GRAD_TOL,
    HESSIAN_BLOCK_ROWS,
    NEWTON_MAX_ITER,
    RIDGE,
    STOP_REASONS,
    TIKHONOV,
    _apply_patch,
    _newton_fit,
    _ranked_regions,
    _region,
    GcurModel,
    HistogramBinningModel,
    IterativePatchModel,
    PlattModel,
    clamped_logit,
    fit_gcur_linear,
    fit_gcur_logistic,
    fit_histogram_binning,
    fit_ighb,
    fit_iglb,
    fit_platt,
    model_from_json,
    model_to_json,
    sigmoid,
)
from codecal.cli import METHOD_NAMES
from codecal.errors import DataError, FitError
from codecal.groups import GroupColumns, GroupingConfig, GroupingModel, GroupSet
from codecal.synthgen import Block, SynthSpec, generate

from malformed import edited, json_paths, json_values
from oracles import reference_ighb


def led_by_all(names, *blocks):
    """The int8 ``blocks`` side by side as named groups after an ALL group, as grouping puts it."""
    n = blocks[0].shape[0]
    return GroupSet(["ALL", *names], np.hstack([np.ones((n, 1), dtype=np.int8), *blocks]))


def ones_groups(n):
    return GroupSet(["ALL"], np.ones((n, 1), dtype=int))


def two_block_groups(n_first, n_second):
    cols = np.zeros((n_first + n_second, 2), dtype=int)
    cols[:n_first, 0] = 1
    cols[n_first:, 1] = 1
    return GroupSet(["a", "b"], cols)


class TestSigmoidLogit:
    def test_sigmoid_of_log_half(self):
        assert sigmoid(np.log(0.5)) == pytest.approx(1 / 3, abs=1e-12)

    def test_clamped_logit_center(self):
        assert clamped_logit(0.5) == 0.0

    def test_clamped_logit_saturated(self):
        assert clamped_logit(1.0) == pytest.approx(np.log((1 - 1e-6) / 1e-6), abs=1e-9)
        assert clamped_logit(1.0) == pytest.approx(13.8155, abs=1e-3)

    def test_round_trip(self):
        p = np.linspace(1e-6, 1 - 1e-6, 101)
        np.testing.assert_allclose(sigmoid(clamped_logit(p)), p, atol=1e-9)


class TestPlatt:
    def test_identity_params_at_half(self):
        model = PlattModel(a=1.0, b=0.0)
        assert model.apply(np.array([0.5]))[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_parameter_recovery(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, 10000)
        y = (rng.random(10000) < sigmoid(2.0 * np.log(p) + 1.0)).astype(float)
        model = fit_platt(p, y)
        assert model.convergence["converged"]
        assert model.a == pytest.approx(2.0, abs=0.1)
        assert model.b == pytest.approx(1.0, abs=0.1)

    def test_monotone_when_coefficient_positive(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 0.9, 2000)
        y = (rng.random(2000) < p).astype(float)
        model = fit_platt(p, y)
        assert model.a > 0.0
        grid = np.linspace(0.01, 0.99, 50)
        out = model.apply(grid)
        assert np.all(np.diff(out) > 0.0)

    def test_single_class_rejected(self):
        with pytest.raises(FitError):
            fit_platt([0.2, 0.7], [1, 1])

    def test_outputs_in_unit_interval(self):
        model = PlattModel(a=-3.0, b=5.0)
        out = model.apply(np.linspace(0.0, 1.0, 11))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestHistogramBinning:
    def test_frozen_cell_correction(self):
        # Four samples rounding to 0.7, half correct: the cell moves to 0.5.
        p = np.array([0.68, 0.71, 0.72, 0.69])
        y = np.array([1, 0, 1, 0])
        model = fit_histogram_binning(p, y, BinGrid(10))
        assert model.deltas[6] == pytest.approx(-0.2, abs=1e-12)
        assert model.apply(np.array([0.7]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_unseen_cell_is_rounding_only(self):
        model = fit_histogram_binning([0.68, 0.71], [1, 0], BinGrid(10))
        assert model.apply(np.array([0.11]))[0] == pytest.approx(0.1, abs=1e-15)

    def test_zero_deltas_round_only(self):
        model = HistogramBinningModel(grid_m=20, deltas=[0.0] * 20)
        assert model.apply(np.array([0.42]))[0] == pytest.approx(0.40, abs=1e-15)

    def test_fixed_point_on_training_cells(self):
        rng = np.random.default_rng(7)
        p = rng.random(200)
        y = rng.integers(0, 2, size=200).astype(float)
        grid = BinGrid(10)
        model = fit_histogram_binning(p, y, grid)
        q = model.apply(p)
        cells = round_to_grid_index(p, grid)
        for cell in np.unique(cells):
            mask = cells == cell
            assert abs(float(q[mask].mean()) - float(y[mask].mean())) <= 1e-12

    def test_outputs_clipped(self):
        model = HistogramBinningModel(grid_m=10, deltas=[0.5] * 10)
        assert model.apply(np.array([0.99]))[0] == 1.0


class TestGcurLinear:
    def test_disjoint_offsets(self):
        p = np.full(20, 0.5)
        y = np.array([1] * 7 + [0] * 3 + [1] * 4 + [0] * 6, dtype=float)
        model = fit_gcur_linear(p, y, two_block_groups(10, 10))
        assert model.lambdas[0] == pytest.approx(0.2, abs=1e-9)
        assert model.lambdas[1] == pytest.approx(-0.1, abs=1e-9)
        g = two_block_groups(10, 10).select(model.group_names)
        out = model.apply(p, g)
        np.testing.assert_allclose(out[:10], 0.7, atol=1e-9)
        np.testing.assert_allclose(out[10:], 0.4, atol=1e-9)

    def test_overlapping_groups_zero_mean_residual(self):
        rng = np.random.default_rng(3)
        n = 500
        p = rng.uniform(0.3, 0.7, n)
        y = (rng.random(n) < p).astype(float)
        cols = np.column_stack(
            [
                np.ones(n, dtype=int),
                (np.arange(n) < 300).astype(int),
                (np.arange(n) % 2 == 0).astype(int),
            ]
        )
        groups = GroupSet(["ALL", "head", "even"], cols)
        model = fit_gcur_linear(p, y, groups)
        q = model.apply(p, cols)
        for j in range(3):
            mask = cols[:, j].astype(bool)
            assert abs(float(np.mean(y[mask] - q[mask]))) <= 1e-8

    def test_collinear_partition_reported_not_fatal(self):
        p = np.full(20, 0.5)
        y = np.array([1] * 7 + [0] * 3 + [1] * 4 + [0] * 6, dtype=float)
        cols = np.column_stack(
            [
                (np.arange(20) < 10).astype(int),
                (np.arange(20) >= 10).astype(int),
                np.ones(20, dtype=int),
            ]
        )
        model = fit_gcur_linear(p, y, GroupSet(["a", "b", "ALL"], cols))
        assert model.dependent_columns == ["ALL"]
        assert np.all(np.isfinite(model.lambdas))

    def test_degenerate_group_dropped_and_recorded(self):
        cols = np.column_stack([np.ones(10, dtype=int), np.zeros(10, dtype=int)])
        groups = GroupSet(["ALL", "ghost"], cols)
        y = np.array([1, 0] * 5, dtype=float)
        model = fit_gcur_linear(np.full(10, 0.5), y, groups)
        assert model.group_names == ["ALL"]
        assert model.dropped_groups == ["ghost"]

    def test_apply_clamps(self):
        model = GcurModel(variant="linear", group_names=["ALL"], lambdas=[0.1])
        out = model.apply(np.array([0.85, 0.95]), np.ones((2, 1), dtype=int))
        assert out[0] == pytest.approx(0.95, abs=1e-12)
        assert out[1] == 1.0

    def test_apply_requires_membership(self):
        model = GcurModel(variant="linear", group_names=["ALL"], lambdas=[0.1])
        with pytest.raises(DataError):
            model.apply(np.array([0.5]))


def rank_dependent_columns(g, names):
    """Reference: columns that do not raise the rank of the columns before them."""
    ranks = [0] + [np.linalg.matrix_rank(g[:, : j + 1].astype(float)) for j in range(len(names))]
    return [name for j, name in enumerate(names) if ranks[j + 1] == ranks[j]]


@st.composite
def memberships_with_dependencies(draw):
    """0/1 columns where some are copies, complements or disjoint unions of earlier ones."""
    n = draw(st.integers(2, 40))
    cols = [np.ones(n, dtype=np.int8)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 8))):
        kinds = ["random", "copy", "complement", "union"] if cols else ["random"]
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            cols.append(np.array(bits, dtype=np.int8))
            continue
        a = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "copy":
            cols.append(a.copy())
        elif kind == "complement":
            cols.append(1 - a)
        else:
            b = cols[draw(st.integers(0, len(cols) - 1))]
            cols.append(a | b if not np.any(a & b) else a.copy())
    membership = np.column_stack(cols)
    return GroupSet([f"g{j}" for j in range(membership.shape[1])], membership)


class TestDependentColumns:
    @given(memberships_with_dependencies())
    def test_matches_rank_reference(self, groups):
        assume(groups.membership.any())
        n = groups.n_samples
        model = fit_gcur_linear(np.full(n, 0.5), np.arange(n) % 2, groups)
        kept = model.group_names
        want = rank_dependent_columns(groups.select(kept), kept)
        assert model.dependent_columns == (want if len(kept) > 1 else [])

    def test_independent_column_after_copies(self):
        # A column one row away from an earlier one, behind four exact
        # copies of it: the R diagonal of an unpivoted QR of g was
        # rounding noise for it too, so it was listed as dependent.
        base = np.zeros(24, dtype=np.int8)
        base[[4, 7, 8, 9, 12, 13, 14, 15, 16, 19, 22, 23]] = 1
        near = base.copy()
        near[3] = 1
        groups = GroupSet(list("abcdef"), np.column_stack([base] * 5 + [near]))
        model = fit_gcur_linear(np.full(24, 0.5), np.arange(24) % 2, groups)
        assert model.dependent_columns == list("bcde")


class TestGcurLogistic:
    def test_group_offset_recovery(self):
        rng = np.random.default_rng(5)
        n = 20000
        z = rng.normal(0.0, 1.0, n)
        p = sigmoid(z)
        member = (rng.random(n) < 0.5).astype(int).reshape(-1, 1)
        y = (rng.random(n) < sigmoid(z + member[:, 0])).astype(float)
        model = fit_gcur_logistic(p, y, GroupSet(["boost"], member))
        assert model.convergence["converged"]
        assert model.intercept == pytest.approx(0.0, abs=0.1)
        assert model.score_coef == pytest.approx(1.0, abs=0.1)
        assert model.group_coefs[0] == pytest.approx(1.0, abs=0.1)

    def test_single_class_rejected(self):
        with pytest.raises(FitError):
            fit_gcur_logistic([0.2, 0.7], [0, 0], ones_groups(2))

    def test_outputs_in_unit_interval(self):
        model = GcurModel(
            variant="logistic",
            group_names=["a"],
            intercept=2.0,
            score_coef=3.0,
            group_coefs=[-4.0],
        )
        out = model.apply(np.linspace(0.0, 1.0, 21), np.ones((21, 1), dtype=int))
        assert out.min() >= 0.0 and out.max() <= 1.0


def single_product_newton(X, y, loss):
    """``_newton_fit`` as it was before its Hessian was summed in row blocks."""
    n, d = X.shape
    w = np.zeros(d)

    def objective(wv):
        z = X @ wv
        if loss == "ce":
            data_term = float(np.mean(np.logaddexp(0.0, z) - y * z))
        else:
            data_term = float(np.mean((sigmoid(z) - y) ** 2))
        return data_term + 0.5 * RIDGE * float(wv @ wv)

    converged = False
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        mu = sigmoid(X @ w)
        s = mu * (1.0 - mu)
        if loss == "ce":
            grad = X.T @ (mu - y) / n + RIDGE * w
            hess = (X.T * s) @ X / n + RIDGE * np.eye(d)
        else:
            grad = 2.0 * X.T @ ((mu - y) * s) / n + RIDGE * w
            hess = 2.0 * (X.T * (s * s)) @ X / n + RIDGE * np.eye(d)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= GRAD_TOL:
            converged = True
            iterations -= 1
            break
        step = np.linalg.solve(hess, grad)
        current = objective(w)
        t = 1.0
        while t > 1e-12 and objective(w - t * step) >= current:
            t *= 0.5
        if t <= 1e-12:
            break
        w = w - t * step
    return w, {"converged": converged, "iterations": iterations, "grad_norm": gnorm}


def logistic_design(n, n_groups, seed):
    """An intercept, a logit score and ``n_groups`` 0/1 group columns, with labels."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.5, n)
    groups = (rng.random((n, n_groups)) < 0.3).astype(float)
    X = np.column_stack([np.ones(n), z, groups])
    y = (rng.random(n) < sigmoid(0.8 * z + groups @ rng.normal(0.0, 0.5, n_groups))).astype(float)
    return X, y


class TestBlockedHessian:
    @pytest.mark.parametrize("loss", ["ce", "squared"])
    @pytest.mark.parametrize("n", [5, 1000, HESSIAN_BLOCK_ROWS])
    def test_one_block_is_bit_identical(self, n, loss):
        X, y = logistic_design(n, 6, n)
        w, info = _newton_fit(X, y, loss)
        want_w, want_info = single_product_newton(X, y, loss)
        assert w.tobytes() == want_w.tobytes()
        assert info == want_info

    @pytest.mark.parametrize("loss", ["ce", "squared"])
    def test_many_blocks_agree(self, loss):
        X, y = logistic_design(3 * HESSIAN_BLOCK_ROWS + 17, 6, 7)
        w, info = _newton_fit(X, y, loss)
        want_w, want_info = single_product_newton(X, y, loss)
        np.testing.assert_allclose(w, want_w, rtol=1e-12, atol=0.0)
        assert info["converged"] == want_info["converged"]

    def test_no_weighted_copy_of_the_design(self):
        X, y = logistic_design(3 * HESSIAN_BLOCK_ROWS + 17, 24, 8)
        tracemalloc.start()
        try:
            _newton_fit(X, y, "ce")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2


class TestIghb:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(DataError, match="alpha must be positive and finite"):
            fit_ighb(np.full(4, 0.5), np.array([1, 0, 1, 0]), ones_groups(4), BinGrid(10), alpha)

    def test_single_patch_trace(self):
        # One cell at 0.5 with 13/20 positives: one shift by +0.15, then the
        # residual is zero and the budget holds.
        p = np.full(20, 0.5)
        y = np.array([1] * 13 + [0] * 7)
        model = fit_ighb(p, y, ones_groups(20), BinGrid(20), alpha=0.01)
        assert model.converged
        assert model.stop_reason == "error_budget"
        assert len(model.patches) == 1
        patch = model.patches[0]
        assert patch["group"] == 0
        assert patch["cell"] == 10
        assert patch["delta"] == pytest.approx(0.15, abs=1e-12)
        out = model.apply(np.array([0.5]), np.ones((1, 1), dtype=int))
        assert out[0] == pytest.approx(0.65, abs=1e-15)

    def test_already_within_budget(self):
        p = np.full(10, 0.5)
        y = np.array([1, 0] * 5)
        model = fit_ighb(p, y, ones_groups(10), BinGrid(10))
        assert model.converged
        assert model.patches == []

    def test_stall_stops_without_progress(self):
        # All mass at the lowest grid value with label 0: the shift clamps
        # back onto the same cell, so the first patch would move nothing.
        p = np.full(4, 0.05)
        y = np.zeros(4)
        model = fit_ighb(p, y, ones_groups(4), BinGrid(20), alpha=1e-4, max_iters=5)
        assert not model.converged
        assert model.stop_reason == "no_progress"
        assert model.patches == []
        out = model.apply(p, np.ones((4, 1), dtype=int))
        np.testing.assert_allclose(out, 0.05, atol=1e-15)

    def test_iteration_cap(self):
        p = np.array([0.1, 0.1, 0.5, 0.5])
        y = np.array([1, 1, 0, 0])
        model = fit_ighb(p, y, ones_groups(4), BinGrid(10), alpha=1e-4, max_iters=1)
        assert not model.converged
        assert model.stop_reason == "max_iters"
        assert len(model.patches) == 1

    def test_tied_groups_resolve_to_lowest_index(self):
        # Two disjoint groups with bitwise-identical residual stats.
        p = np.full(10, 0.3)
        y = np.ones(10)
        model = fit_ighb(p, y, two_block_groups(5, 5), BinGrid(20))
        assert [patch["group"] for patch in model.patches] == [0, 1]
        assert model.converged

    def test_apply_is_deterministic(self):
        rng = np.random.default_rng(9)
        p = rng.random(300)
        y = rng.integers(0, 2, size=300)
        cols = np.column_stack([np.ones(300, dtype=int), (p < 0.5).astype(int)])
        groups = GroupSet(["ALL", "low"], cols)
        model = fit_ighb(p, y, groups, BinGrid(10))
        first = model.apply(p, cols)
        second = model.apply(p, cols)
        np.testing.assert_array_equal(first, second)
        assert first.min() >= 0.1 - 1e-15 and first.max() <= 1.0


class TestIglb:
    def fixture(self):
        p = np.full(10, 0.5)
        y = np.array([1] * 8 + [0] * 2)
        return p, y, ones_groups(10)

    def test_intercept_only_region(self):
        # Constant scores have zero logit spread, so the region fit reduces
        # to an intercept matching the region label mean.
        p, y, groups = self.fixture()
        model = fit_iglb(p, y, p.copy(), y.copy(), groups, groups, BinGrid(10))
        assert model.converged
        assert len(model.patches) == 1
        patch = model.patches[0]
        assert patch["side"] == "ge"
        assert patch["bin"] == 1
        assert patch["alpha"] == pytest.approx(np.log(4.0), abs=1e-3)
        assert patch["beta"] == 0.0
        out = model.apply(np.array([0.5]), np.ones((1, 1), dtype=int))
        assert out[0] == pytest.approx(0.8, abs=1e-15)

    def test_val_brier_history_strictly_decreasing(self):
        p, y, groups = self.fixture()
        model = fit_iglb(p, y, p.copy(), y.copy(), groups, groups, BinGrid(10))
        history = model.val_brier_history
        assert history[0] == pytest.approx(0.25, abs=1e-15)
        assert history[1] == pytest.approx(0.16, abs=1e-12)
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_harmful_patch_rejected_by_validation(self):
        # The train split wants 0.8 but the val split is 80% negative, so
        # the tentative patch worsens val Brier and nothing is accepted.
        p, y, groups = self.fixture()
        val_y = np.array([0] * 8 + [1] * 2)
        model = fit_iglb(p, y, p.copy(), val_y, groups, groups, BinGrid(10))
        assert model.converged
        assert model.stop_reason == "val_brier"
        assert model.patches == []
        assert model.val_brier_history == [pytest.approx(0.25)]

    def test_single_class_regions_skipped_and_recorded(self):
        # Group a holds only positives, so every region of it is skipped
        # once it becomes the worst offender.
        p = np.array([0.9] * 5 + [0.5] * 5)
        y = np.array([1] * 5 + [1, 0, 1, 0, 1])
        groups = two_block_groups(5, 5)
        model = fit_iglb(p, y, p.copy(), y.copy(), groups, groups, BinGrid(10))
        assert len(model.patches) == 1
        assert model.patches[0]["group"] == 1
        assert model.patches[0]["bin"] == 1
        assert model.patches[0]["side"] == "ge"
        skips = model.skipped_regions
        assert len(skips) == 11
        assert all(s["group"] == 0 for s in skips)
        assert all(s["iteration"] == 1 for s in skips)

    def test_group_name_mismatch_rejected(self):
        p, y, groups = self.fixture()
        other = GroupSet(["other"], np.ones((10, 1), dtype=int))
        with pytest.raises(DataError):
            fit_iglb(p, y, p.copy(), y.copy(), groups, other, BinGrid(10))

    def test_bad_epsilon_rejected(self):
        p, y, groups = self.fixture()
        with pytest.raises(DataError):
            fit_iglb(p, y, p, y, groups, groups, BinGrid(10), epsilon=1.5)


def tuple_sorted_regions(counts, rsums, lsums, n):
    """Reference region ranking: every (group, bin, side) as a tuple, sorted.

    Sort key is weight descending, then group, then bin, then "le"
    before "ge"; rows are ``(group, bin, side, count, single_class)``.
    """
    k, m = counts.shape
    candidates = []
    for j in range(k):
        c_le = np.cumsum(counts[j])
        r_le = np.cumsum(rsums[j])
        l_le = np.cumsum(lsums[j])
        c_ge = np.cumsum(counts[j][::-1])[::-1]
        r_ge = np.cumsum(rsums[j][::-1])[::-1]
        l_ge = np.cumsum(lsums[j][::-1])[::-1]
        for m0 in range(m):
            for side, c, r, lbl in (("le", c_le, r_le, l_le), ("ge", c_ge, r_ge, l_ge)):
                cnt = c[m0]
                if cnt == 0:
                    weight = 0.0
                    single = True
                else:
                    delta = r[m0] / cnt
                    weight = cnt / n * delta * delta
                    single = lbl[m0] == 0.0 or lbl[m0] == cnt
                candidates.append((weight, j, m0 + 1, side, cnt, single))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], 0 if c[3] == "le" else 1))
    return [(j, b, side, cnt, bool(single)) for _, j, b, side, cnt, single in candidates]


@st.composite
def cell_tables(draw):
    """Per-(group, cell) counts, residual sums and label sums with forced ties.

    Some cells and groups are empty, a group may sit in a single cell
    (equal weights along both sides), and some groups copy another.
    """
    k = draw(st.integers(1, 5))
    m = draw(st.integers(2, 8))
    counts = draw(arrays(np.int64, (k, m), elements=st.integers(0, 6)))
    counts[draw(arrays(np.bool_, (k, m)))] = 0
    for j in range(k):
        if draw(st.booleans()):
            only = draw(st.integers(0, m - 1))
            counts[j, np.arange(m) != only] = 0
    fraction = draw(arrays(np.float64, (k, m), elements=st.sampled_from([0.0, 0.5, 1.0])))
    lsums = np.floor(counts * fraction)
    rsums = lsums - counts * (np.arange(1, m + 1) / m)
    for j in range(1, k):
        if draw(st.booleans()):
            source = draw(st.integers(0, j - 1))
            for table in (counts, rsums, lsums):
                table[j] = table[source]
    n = int(counts.sum(axis=1).max()) + draw(st.integers(1, 5))
    return counts, rsums, lsums, n


class TestRankedRegions:
    @given(cell_tables())
    def test_matches_tuple_sort(self, tables):
        counts, rsums, lsums, n = tables
        order, cnt, single = _ranked_regions(counts, rsums, lsums, n)
        m = counts.shape[1]
        got = []
        for flat in order.tolist():
            j, rest = divmod(flat, 2 * m)
            m0, side = divmod(rest, 2)
            got.append((j, m0 + 1, ("le", "ge")[side], cnt[flat], bool(single[flat])))
        assert got == tuple_sorted_regions(counts.astype(float), rsums, lsums, n)


# (accuracy, lowest score) of eight planted blocks, each 0.05 wide.  Block
# b3 is never correct, so every region of its group holds one label class.
PINNED_BLOCKS = (
    (0.9, 0.3), (0.7, 0.5), (0.4, 0.6), (0.0, 0.55), (0.6, 0.2), (0.8, 0.6), (0.3, 0.4), (0.5, 0.65)
)


def pinned_split(n, seed):
    """Scores, labels and 13 overlapping groups: ALL, eight blocks, four languages."""
    blocks = tuple(
        Block(f"b{i}", 1 / 8, acc, ("uniform", lo, lo + 0.05))
        for i, (acc, lo) in enumerate(PINNED_BLOCKS)
    )
    languages = ("c", "go", "py", "rs")
    samples, block_groups = generate(
        SynthSpec(blocks=blocks, n_samples=n, seed=seed, languages=languages)
    )
    codes = np.array([languages.index(s.language) for s in samples])
    in_language = (codes[:, None] == np.arange(len(languages))).astype(np.int8)
    groups = led_by_all([*block_groups.names, *languages], block_groups.membership, in_language)
    p = np.array([math.exp(s.token_logprobs[0]) for s in samples])
    y = np.array([s.label for s in samples], dtype=float)
    return p, y, groups


class TestPinnedPatchSequences:
    """Exact patch sequences on a many-group fixture at m=100.

    Any change to how the iterative fitters compute their per-(group,
    cell) statistics or order their candidates must leave these
    sequences bit-for-bit unchanged.
    """

    def test_ighb_patch_sequence(self):
        p, y, groups = pinned_split(2000, 11)
        assert len(groups.names) == 13
        model = fit_ighb(p, y, groups, BinGrid(100), alpha=0.004)
        assert model.converged
        assert model.stop_reason == "error_budget"
        got = [(patch["group"], patch["cell"], patch["delta"]) for patch in model.patches]
        assert got == [
            (0, 57, -0.5700000000000002),
            (0, 31, 0.5847368421052637),
            (0, 56, -0.5599999999999996),
            (0, 33, 0.5756603773584913),
            (0, 59, -0.59),
            (0, 58, -0.5799999999999994),
            (0, 34, 0.4901886792452831),
            (0, 35, 0.5710526315789473),
            (0, 23, 0.4551851851851848),
            (0, 32, 0.5092682926829266),
            (0, 20, 0.574193548387097),
            (4, 60, -0.5999999999999998),
            (0, 24, 0.42666666666666686),
            (0, 30, 0.6411764705882352),
            (3, 64, -0.33642857142857163),
            (0, 22, 0.36695652173913035),
            (4, 55, -0.5499999999999999),
            (6, 62, 0.3015686274509807),
            (0, 62, -0.2999999999999996),
            (0, 25, 0.39285714285714285),
            (0, 21, 0.31272727272727247),
            (0, 66, -0.2926530612244899),
            (6, 63, 0.3018181818181816),
            (2, 52, 0.2558620689655176),
            (0, 54, 0.2524528301886797),
            (0, 63, -0.2411111111111114),
            (6, 61, 0.2233333333333334),
            (10, 67, -0.2906896551724138),
            (11, 70, -0.557142857142857),
            (0, 51, 0.19588235294117662),
            (0, 50, 0.2826086956521739),
            (0, 41, -0.19723404255319152),
            (0, 68, -0.20499999999999993),
            (0, 53, 0.17370370370370367),
            (0, 55, 0.36666666666666675),
            (6, 64, 0.16357142857142862),
        ]

    def test_iglb_patch_sequence(self):
        p, y, groups = pinned_split(2000, 11)
        vp, vy, vgroups = pinned_split(1000, 12)
        model = fit_iglb(p, y, vp, vy, groups, vgroups, BinGrid(100), epsilon=0.05)
        assert model.converged
        assert model.stop_reason == "mass_threshold"
        got = [
            (patch["group"], patch["bin"], patch["side"], patch["alpha"], patch["beta"])
            for patch in model.patches
        ]
        assert got == [
            (0, 35, 'le', 3.6797685294296665, 2.4546946554680367),
            (0, 55, 'ge', -1.1195237360778856, 1.7990717381350654),
            (6, 48, 'le', 2.247759571992276, 2.446138657585475),
            (0, 41, 'le', -1.7043469505332998, -0.1570626175644614),
            (2, 1, 'ge', 1.1598107991960855, -0.7041151145411828),
        ]
        skips = model.skipped_regions
        assert len(skips) == 201
        assert sum(s["iteration"] == 1 for s in skips) == 102
        assert sum(s["iteration"] == 3 for s in skips) == 99
        assert all(s["group"] == 4 for s in skips)
        assert skips[:2] == [
            {"iteration": 1, "group": 4, "bin": 1, "side": "ge"},
            {"iteration": 1, "group": 4, "bin": 2, "side": "ge"},
        ]
        assert skips[-1] == {"iteration": 3, "group": 4, "bin": 38, "side": "le"}
        digest = hashlib.sha256(json.dumps(skips, sort_keys=True).encode()).hexdigest()
        assert digest == "43e71eadebb4951976af21bc7ea0c2781a1a1334c509415de658ec5f0bedfda0"


class TestSerialization:
    def roundtrip(self, model, scores, membership=None):
        restored = model_from_json(model_to_json(model))
        if membership is None:
            np.testing.assert_array_equal(model.apply(scores), restored.apply(scores))
        else:
            np.testing.assert_array_equal(
                model.apply(scores, membership), restored.apply(scores, membership)
            )
        assert model_to_json(restored) == model_to_json(model)

    def test_all_methods_round_trip(self):
        rng = np.random.default_rng(13)
        n = 400
        p = rng.uniform(0.05, 0.95, n)
        y = (rng.random(n) < p).astype(float)
        cols = np.column_stack([np.ones(n, dtype=int), (p > 0.5).astype(int)])
        groups = GroupSet(["ALL", "high"], cols)
        grid = BinGrid(10)
        half = n // 2
        train = slice(0, half)
        val = slice(half, n)
        tg = GroupSet(["ALL", "high"], cols[train])
        vg = GroupSet(["ALL", "high"], cols[val])
        self.roundtrip(fit_platt(p, y), p)
        self.roundtrip(fit_histogram_binning(p, y, grid), p)
        self.roundtrip(fit_gcur_linear(p, y, groups), p, cols)
        self.roundtrip(fit_gcur_logistic(p, y, groups), p, cols)
        self.roundtrip(fit_ighb(p, y, groups, grid), p, cols)
        self.roundtrip(
            fit_iglb(p[train], y[train], p[val], y[val], tg, vg, grid), p, cols
        )

    def test_membership_arity_mismatch(self):
        model = GcurModel(variant="linear", group_names=["a", "b"], lambdas=[0.1, 0.2])
        with pytest.raises(DataError):
            model.apply(np.array([0.5]), np.ones((1, 1), dtype=int))

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError):
            model_from_json('{"schema_version": 1, "method": "mystery", "params": {}}')

    def test_unknown_schema_rejected(self):
        with pytest.raises(DataError):
            model_from_json('{"schema_version": 2, "method": "platt", "params": {}}')

    def test_missing_param_is_data_error(self):
        payload = json.loads(model_to_json(PlattModel(a=1.0, b=0.0, convergence=NEWTON_RECORD)))
        del payload["params"]["a"]
        with pytest.raises(DataError, match="missing field 'a'"):
            model_from_json(json.dumps(payload))

    def test_missing_grid_is_data_error(self):
        payload = json.loads(model_to_json(HistogramBinningModel(grid_m=10, deltas=[0.0] * 10)))
        del payload["grid_m"]
        with pytest.raises(DataError, match="missing field 'grid_m'"):
            model_from_json(json.dumps(payload))

    def test_non_object_document_is_data_error(self):
        with pytest.raises(DataError, match="malformed model"):
            model_from_json("[1, 2]")

    def test_grid_above_the_bound_is_data_error(self):
        m = MAX_GRID_M + 1
        with pytest.raises(DataError, match=f"from 2 to {MAX_GRID_M}, got {m}"):
            model_to_json(HistogramBinningModel(grid_m=m, deltas=[0.0] * m))
        payload = json.loads(model_to_json(HistogramBinningModel(grid_m=10, deltas=[0.0] * 10)))
        payload.update(grid_m=m, params={"deltas": [0.0] * m})
        with pytest.raises(DataError, match=f"from 2 to {MAX_GRID_M}, got {m}"):
            model_from_json(json.dumps(payload))


def applied_model(kind):
    """(model, membership) with a one-group membership matrix where the model reads one."""
    if kind == "platt":
        return PlattModel(a=1.0, b=0.0)
    if kind == "histogram":
        return HistogramBinningModel(grid_m=10, deltas=[0.0] * 10)
    if kind == "gcur":
        return GcurModel(variant="linear", group_names=["a"], lambdas=[0.1])
    return IterativePatchModel(
        method="ighb",
        grid_m=10,
        group_names=["a"],
        patches=[],
        stop_reason="error_budget",
    )


MODEL_KINDS = ("platt", "histogram", "gcur", "ighb")


class TestApplyScoreCheck:
    """Every model's apply validates scores alone, by one rule."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_empty_scores(self, kind):
        with pytest.raises(DataError, match="need at least one score to apply"):
            applied_model(kind).apply(np.array([]), np.ones((0, 1), dtype=int))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_two_dimensional_scores(self, kind):
        with pytest.raises(DataError, match=r"scores must be a 1-d array, got shape \(2, 2\)"):
            applied_model(kind).apply(np.full((2, 2), 0.5), np.ones((2, 1), dtype=int))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_scores_outside_unit_interval(self, kind):
        with pytest.raises(DataError, match=r"scores must lie in \[0, 1\]"):
            applied_model(kind).apply(np.array([0.5, 1.5]), np.ones((2, 1), dtype=int))

    @pytest.mark.parametrize("kind", ["gcur", "ighb"])
    @pytest.mark.parametrize("value", [0.5, 257, float("nan")])
    def test_group_models_refuse_non_binary_membership(self, kind, value):
        with pytest.raises(DataError, match="membership entries must be 0 or 1"):
            applied_model(kind).apply(np.array([0.5]), np.array([[value]]))


def grouping_split(n, seed):
    """Scores, labels and the group set GroupingModel.apply builds from generated columns."""
    rng = np.random.default_rng(seed)
    languages = rng.choice(["c", "go", "py", "rs"], n).tolist()
    difficulties = rng.choice(["easy", "mid", "hard"], n).tolist()
    # Texts of k lines "x = 1", measured: 6k characters and k lines.
    lines = rng.integers(1, 40, n)
    features = {"chars": 6 * lines, "loc": lines}
    ids = [f"s{i}" for i in range(n)]
    columns = GroupColumns(ids, languages, difficulties, [True] * n, features)
    grouping = GroupingModel.fit(columns, GroupingConfig(complexity_source="difficulty_label"))
    shift = np.array([{"c": 0.1, "go": -0.1, "py": 0.05, "rs": 0.0}[lang] for lang in languages])
    p = np.clip(rng.uniform(0.05, 0.95, n) + shift, 0.01, 0.99)
    y = (rng.random(n) < p - shift).astype(float)
    return p, y, grouping.apply(columns)


class TestGroupColumnLayout:
    """Fitted floats depend on the memory layout of the selected columns.

    The reference builds the kept columns with np.column_stack, which is
    C-ordered; an F-ordered selection passes every other test but moves
    the last bits of these coefficients.
    """

    def reference_columns(self, groups):
        kept = [name for name in groups.names if name not in groups.degenerate]
        cols = [groups.membership[:, groups.names.index(name)] for name in kept]
        return kept, np.column_stack(cols).astype(float)

    def test_gcur_linear_lambdas(self):
        p, y, groups = grouping_split(6000, 21)
        kept, g = self.reference_columns(groups)
        want = np.linalg.solve(g.T @ g + TIKHONOV * np.eye(len(kept)), g.T @ (y - p))
        model = fit_gcur_linear(p, y, groups)
        assert model.group_names == kept
        assert model.lambdas == want.tolist()

    def test_gcur_logistic_coefficients(self):
        p, y, groups = grouping_split(6000, 22)
        kept, g = self.reference_columns(groups)
        want, _ = _newton_fit(np.column_stack([np.ones_like(p), clamped_logit(p), g]), y, "ce")
        model = fit_gcur_logistic(p, y, groups)
        assert model.group_names == kept
        assert [model.intercept, model.score_coef, *model.group_coefs] == want.tolist()


def _serialized(model):
    return json.loads(model_to_json(model))


NEWTON_RECORD = {"converged": True, "iterations": 6, "grad_norm": 1e-10}


def _valid_payloads():
    ighb = IterativePatchModel(
        method="ighb", grid_m=10, group_names=["a", "b"],
        patches=[{"group": 1, "cell": 3, "delta": 0.1}], stop_reason="error_budget", alpha=0.1,
    )
    iglb = IterativePatchModel(
        method="iglb", grid_m=10, group_names=["a", "b"],
        patches=[{"group": 0, "bin": 4, "side": "le", "alpha": 0.2, "beta": 1.1}],
        stop_reason="val_brier", epsilon=0.05, ls_loss="ce",
        val_brier_history=[0.25, 0.24],
        skipped_regions=[{"iteration": 0, "group": 1, "bin": 9, "side": "ge"}],
    )
    logistic = GcurModel(
        variant="logistic", group_names=["a"], group_coefs=[0.3], convergence=NEWTON_RECORD
    )
    return {
        "platt": _serialized(PlattModel(a=1.0, b=0.0, convergence=NEWTON_RECORD)),
        "histogram": _serialized(HistogramBinningModel(grid_m=10, deltas=[0.0] * 10)),
        "gcur_linear": _serialized(
            GcurModel(variant="linear", group_names=["a", "b"], lambdas=[0.1, 0.2])
        ),
        "gcur_logistic": _serialized(logistic),
        "ighb": _serialized(ighb),
        "iglb": _serialized(iglb),
    }


def _set(path, value):
    def mutate(payload):
        *head, last = path
        for key in head:
            payload = payload[key]
        payload[last] = value

    return mutate


def _drop(path):
    def mutate(payload):
        *head, last = path
        for key in head:
            payload = payload[key]
        del payload[last]

    return mutate


MALFORMED_MODELS = {
    "patch group >= k": ("ighb", _set(("params", "patches", 0, "group"), 2)),
    "negative patch group": ("ighb", _set(("params", "patches", 0, "group"), -1)),
    "patch without group": ("ighb", _drop(("params", "patches", 0, "group"))),
    "non-dict patch": ("ighb", _set(("params", "patches", 0), [1, 3, 0.1])),
    "patch cell outside the grid": ("ighb", _set(("params", "patches", 0, "cell"), 11)),
    "deltas shorter than grid_m": ("histogram", _set(("params", "deltas"), [0.0] * 9)),
    "more lambdas than group_names": ("gcur_linear", _set(("params", "lambdas"), [0.1] * 3)),
    "fewer group_coefs than group_names": ("gcur_logistic", _set(("params", "group_coefs"), [])),
    "string platt a": ("platt", _set(("params", "a"), "1.0")),
    "boolean platt b": ("platt", _set(("params", "b"), True)),
    "iglb side xx": ("iglb", _set(("params", "patches", 0, "side"), "xx")),
    "iglb patch beta null": ("iglb", _set(("params", "patches", 0, "beta"), None)),
    "infinite ighb alpha": ("ighb", _set(("params", "alpha"), math.inf)),
    "zero ighb alpha": ("ighb", _set(("params", "alpha"), 0.0)),
    "NaN ighb alpha": ("ighb", _set(("params", "alpha"), math.nan)),
    "boolean ighb alpha": ("ighb", _set(("params", "alpha"), True)),
    "infinite iglb epsilon": ("iglb", _set(("params", "epsilon"), math.inf)),
    "negative iglb epsilon": ("iglb", _set(("params", "epsilon"), -0.05)),
    "string ighb converged": ("ighb", _set(("convergence", "converged"), "false")),
    "null iglb converged": ("iglb", _set(("convergence", "converged"), None)),
    "integer ighb converged": ("ighb", _set(("convergence", "converged"), 1)),
    "converged beside no_progress": ("ighb", _set(("convergence", "stop_reason"), "no_progress")),
    "ighb unconverged beside error_budget": ("ighb", _set(("convergence", "converged"), False)),
    "iglb converged beside max_iters": ("iglb", _set(("convergence", "stop_reason"), "max_iters")),
    "ighb iterations beyond the patches": ("ighb", _set(("convergence", "iterations"), 999)),
    "iglb iterations short of the patches": ("iglb", _set(("convergence", "iterations"), 0)),
    "string ighb iterations": ("ighb", _set(("convergence", "iterations"), "x")),
    "float iglb iterations": ("iglb", _set(("convergence", "iterations"), 1.0)),
    "boolean ighb iterations": ("ighb", _set(("convergence", "iterations"), True)),
    "ighb without iterations": ("ighb", _drop(("convergence", "iterations"))),
    "iglb without converged": ("iglb", _drop(("convergence", "converged"))),
    "integer ighb stop_reason": ("ighb", _set(("convergence", "stop_reason"), 7)),
    "empty ighb stop_reason": ("ighb", _set(("convergence", "stop_reason"), "")),
    "iglb stop_reason on ighb": ("ighb", _set(("convergence", "stop_reason"), "val_brier")),
    "ighb stop_reason on iglb": ("iglb", _set(("convergence", "stop_reason"), "no_progress")),
    "ighb without convergence": ("ighb", _drop(("convergence",))),
    "iglb without stop_reason": ("iglb", _drop(("convergence", "stop_reason"))),
    "empty platt convergence": ("platt", _set(("convergence",), {})),
    "platt convergence list": ("platt", _set(("convergence",), [True, 6, 1e-10])),
    "integer platt converged": ("platt", _set(("convergence", "converged"), 1)),
    "platt iterations above the cap": ("platt", _set(("convergence", "iterations"), 101)),
    "negative platt iterations": ("platt", _set(("convergence", "iterations"), -1)),
    "float gcur_logistic iterations": ("gcur_logistic", _set(("convergence", "iterations"), 6.0)),
    "NaN gcur_logistic grad_norm": ("gcur_logistic", _set(("convergence", "grad_norm"), math.nan)),
    "string gcur_logistic grad_norm": ("gcur_logistic", _set(("convergence", "grad_norm"), "0")),
    "extra Newton field": ("gcur_logistic", _set(("convergence", "stop_reason"), "max_iters")),
    "gcur_logistic without convergence": ("gcur_logistic", _drop(("convergence",))),
    "string group_names": ("gcur_linear", _set(("group_names",), "ab")),
    "string group_names of one": ("gcur_logistic", _set(("group_names",), "a")),
    "integer group_names": ("ighb", _set(("group_names",), [0, 1])),
    "duplicate group_names": ("gcur_linear", _set(("group_names",), ["a", "a"])),
    "duplicate iglb group_names": ("iglb", _set(("group_names",), ["a", "a"])),
    "string dropped_groups": ("iglb", _set(("dropped_groups",), "c")),
    "integer dropped_groups": ("gcur_logistic", _set(("dropped_groups",), [3])),
    "integer dependent_columns": ("gcur_linear", _set(("params", "dependent_columns"), [1])),
    "string dependent_columns": ("gcur_linear", _set(("params", "dependent_columns"), "b")),
    "string val_brier_history": ("iglb", _set(("params", "val_brier_history"), "0.25")),
    "val_brier_history as long as the patches": (
        "iglb", _set(("params", "val_brier_history"), [0.25])
    ),
    "NaN in val_brier_history": ("iglb", _set(("params", "val_brier_history", 1), math.nan)),
    "val_brier_history above 1": ("iglb", _set(("params", "val_brier_history", 1), 1.5)),
    "iglb without val_brier_history": ("iglb", _drop(("params", "val_brier_history"))),
    "string skipped_regions": ("iglb", _set(("params", "skipped_regions"), "xy")),
    "skipped region as a list": ("iglb", _set(("params", "skipped_regions", 0), [0, 1, 9, "ge"])),
    "skipped region after the last round": (
        "iglb", _set(("params", "skipped_regions", 0, "iteration"), 2)
    ),
    "skipped region group >= k": ("iglb", _set(("params", "skipped_regions", 0, "group"), 2)),
    "skipped region bin 0": ("iglb", _set(("params", "skipped_regions", 0, "bin"), 0)),
    "skipped region side xx": ("iglb", _set(("params", "skipped_regions", 0, "side"), "xx")),
    "skipped region with an extra field": (
        "iglb", _set(("params", "skipped_regions", 0, "alpha"), 0.1)
    ),
    "iglb without skipped_regions": ("iglb", _drop(("params", "skipped_regions"))),
    "integer ls_loss": ("iglb", _set(("params", "ls_loss"), 7)),
    "unknown ls_loss": ("iglb", _set(("params", "ls_loss"), "mse")),
    "iglb without ls_loss": ("iglb", _drop(("params", "ls_loss"))),
    "unknown top-level field": ("ighb", _set(("bogus",), 1)),
    "unknown ighb params field": ("ighb", _set(("params", "bogus"), 1)),
    "unknown ighb convergence field": ("ighb", _set(("convergence", "extra"), 1)),
    "ighb without alpha": ("ighb", _drop(("params", "alpha"))),
    "ighb without dropped_groups": ("ighb", _drop(("dropped_groups",))),
    "unknown platt params field": ("platt", _set(("params", "c"), 0.5)),
}


@st.composite
def _model_with_an_extra_key(draw):
    """JSON text of a valid model payload with one key added to one of its objects."""
    payload = _valid_payloads()[draw(st.sampled_from(METHOD_NAMES))]

    def value_at(path):
        value = payload
        for key in path:
            value = value[key]
        return value

    objects = [path for path in [(), *json_paths(payload)] if isinstance(value_at(path), dict)]
    path = draw(st.sampled_from(objects))
    key = draw(st.text(max_size=6).filter(lambda key: key not in value_at(path)))
    return edited(payload, (*path, key), draw(json_values))


class TestMalformedModels:
    @pytest.mark.parametrize("method", sorted(_valid_payloads()))
    def test_valid_payload_loads(self, method):
        model = model_from_json(json.dumps(_valid_payloads()[method]))
        assert model.method == method

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_rejected_on_load(self, case):
        method, mutate = MALFORMED_MODELS[case]
        payload = _valid_payloads()[method]
        mutate(payload)
        with pytest.raises(DataError):
            model_from_json(json.dumps(payload))

    @settings(max_examples=200, deadline=None)
    @given(text=_model_with_an_extra_key())
    def test_unknown_key_rejected_at_every_level(self, text):
        """A key model_to_json never writes would not replay, so no object may hold one."""
        with pytest.raises(DataError):
            model_from_json(text)


def _all_fitted(p, y, groups, grid):
    half = p.size // 2
    names, g = groups.names, groups.membership
    return [
        fit_platt(p, y),
        fit_histogram_binning(p, y, grid),
        fit_gcur_linear(p, y, groups),
        fit_gcur_logistic(p, y, groups),
        fit_ighb(p, y, groups, grid),
        fit_iglb(
            p[:half], y[:half], p[half:], y[half:],
            GroupSet(names, g[:half]), GroupSet(names, g[half:]), grid,
        ),
    ]


# Values a model field might be given in code that no loader accepts.
BAD_MODEL_VALUES = [math.nan, math.inf, True, None, "0.5", -1]


@st.composite
def models_built_in_code(draw):
    """A calibrator model built field by field: half the time with every field valid,
    otherwise with any field possibly out of range, mistyped or left at its default."""
    kind = draw(st.sampled_from(METHOD_NAMES))
    valid = draw(st.booleans())

    def pick(good, *bad):
        return good if valid else st.one_of(good, *bad)

    number = pick(st.floats(0.01, 1.0), st.sampled_from(BAD_MODEL_VALUES))
    m = draw(pick(st.integers(2, 5), st.sampled_from([1, True, 2.0])))
    unique_names = st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)
    names = draw(pick(unique_names, st.lists(st.sampled_from("ab"))))
    k = max(len(names), 1)
    record = st.fixed_dictionaries(
        dict(converged=st.booleans(), iterations=st.integers(0, 100), grad_norm=st.floats(0.0, 1.0))
    )
    newton = pick(record, st.sampled_from([{}, {**NEWTON_RECORD, "converged": 1}]))
    convergence = draw(pick(st.fixed_dictionaries({"convergence": newton}), st.just({})))
    if kind == "platt":
        return PlattModel(a=draw(number), b=draw(number), **convergence)
    if kind == "histogram":
        size = m if valid else draw(st.integers(0, 6))
        deltas = draw(st.lists(number, min_size=size, max_size=size))
        return HistogramBinningModel(grid_m=m, deltas=deltas)
    coefs = st.lists(number, min_size=len(names), max_size=len(names) + (not valid))
    if kind == "gcur_linear":
        columns = draw(pick(st.lists(st.sampled_from(names or ["a"])), st.just([1])))
        return GcurModel("linear", names, lambdas=draw(coefs), dependent_columns=columns)
    if kind == "gcur_logistic":
        fields = dict(intercept=draw(number), score_coef=draw(number), group_coefs=draw(coefs))
        return GcurModel("logistic", names, **fields, **convergence)
    where = dict(
        group=pick(st.integers(0, k - 1), st.just(k)),
        side=pick(st.sampled_from(["le", "ge"]), st.just("xx")),
    )
    cell = pick(st.integers(1, m), st.just(0))
    if kind == "ighb":
        patch = st.fixed_dictionaries(dict(group=where["group"], cell=cell, delta=number))
        patches = draw(st.lists(patch, max_size=3))
        extra = dict(alpha=draw(number))
    else:
        patch = st.fixed_dictionaries(dict(**where, bin=cell, alpha=number, beta=number))
        patches = draw(st.lists(patch, max_size=3))
        rounds = len(patches) + 1
        skip = dict(**where, bin=cell, iteration=pick(st.integers(0, rounds - 1), st.just(rounds)))
        history = st.lists(number, min_size=rounds, max_size=rounds + (not valid))
        extra = dict(
            epsilon=draw(number),
            ls_loss=draw(pick(st.sampled_from(["ce", "brier"]), st.sampled_from(["mse", 7, None]))),
            val_brier_history=draw(history),
            skipped_regions=draw(st.lists(st.fixed_dictionaries(skip), max_size=2)),
        )
    return IterativePatchModel(
        method=kind,
        grid_m=m,
        group_names=names,
        patches=patches,
        stop_reason=draw(st.sampled_from(STOP_REASONS[kind] if valid else STOP_REASONS["iglb"])),
        dropped_groups=draw(pick(st.lists(st.sampled_from("xy")), st.just("x"))),
        **extra,
    )


class TestRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 150),
        k=st.integers(1, 4),
        m=st.integers(2, 30),
    )
    def test_apply_after_json_round_trip_is_bit_exact(self, seed, n, k, m):
        rng = np.random.default_rng(seed)
        p = np.where(rng.random(n) < 0.1, rng.integers(0, 2, n), rng.uniform(0, 1, n))
        y = (rng.random(n) < p).astype(float)
        assume(0 < y.sum() < n)
        membership = (rng.random((n, k)) < 0.5).astype(np.int8)
        membership[:, 0] = 1
        groups = GroupSet([f"g{j}" for j in range(k)], membership)
        for model in _all_fitted(p, y, groups, BinGrid(m)):
            restored = model_from_json(model_to_json(model))
            assert model_to_json(restored) == model_to_json(model)
            if hasattr(model, "group_names"):
                args = (p, groups.select(model.group_names))
            else:
                args = (p,)
            assert restored.apply(*args).tobytes() == model.apply(*args).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(model=models_built_in_code())
    def test_every_written_model_reloads(self, model):
        try:
            text = model_to_json(model)
        except DataError:
            return
        assert model_to_json(model_from_json(text)) == text

    @pytest.mark.parametrize(
        "model",
        [
            PlattModel(a=1.0, b=0.0),
            GcurModel(variant="logistic", group_names=["a"], group_coefs=[0.3]),
        ],
    )
    def test_newton_record_required_to_write(self, model):
        with pytest.raises(DataError, match="Newton record is missing field 'converged'"):
            model_to_json(model)



# Score distributions of synthgen blocks: constant, or uniform on [lo, lo + width].
block_scores = st.one_of(
    st.tuples(st.just("constant"), st.floats(0.01, 1.0)),
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 0.3)).map(
        lambda t: ("uniform", t[0], min(t[0] + t[1], 1.0))
    ),
)
# (accuracy, scores) of one to four equally heavy blocks.
planted_blocks = st.lists(st.tuples(st.floats(0.0, 1.0), block_scores), min_size=1, max_size=4)
# Arguments of synth_split, and the grid size.
synth_draws = dict(
    blocks=planted_blocks, n=st.integers(10, 120), seed=st.integers(0, 2**16), m=st.integers(2, 50)
)
small_alphas = st.floats(-5.0, -1.0).map(lambda e: 10.0**e)
# All mass at the lowest grid value with label 0: every shift clamps back
# onto that cell, so ighb's first patch would move nothing.
STALL = dict(blocks=[(0.0, ("constant", 0.05))], n=20, seed=0, m=20, alpha=1e-4)


def synth_split(blocks, n, seed):
    """Scores, labels and groups (ALL, then one per block) of a synthgen draw."""
    spec = SynthSpec(
        blocks=tuple(
            Block(f"b{i}", 1 / len(blocks), acc, scores) for i, (acc, scores) in enumerate(blocks)
        ),
        n_samples=n,
        seed=seed,
    )
    samples, block_groups = generate(spec)
    p = np.array([math.exp(s.token_logprobs[0]) for s in samples])
    y = np.array([s.label for s in samples], dtype=float)
    return p, y, led_by_all(block_groups.names, block_groups.membership)


class TestFitterProperties:
    """The guarantees each grid fitter states, on small synthgen-style inputs."""

    @settings(max_examples=60, deadline=None)
    @given(**synth_draws, alpha=small_alphas)
    @example(**STALL)
    def test_ighb_records_only_patches_that_move_a_training_row(self, blocks, n, seed, m, alpha):
        p, y, groups = synth_split(blocks, n, seed)
        grid = BinGrid(m)
        model = fit_ighb(p, y, groups, grid, alpha)
        g = groups.select(model.group_names).astype(bool)
        cells = round_to_grid_index(p, grid)
        for patch in model.patches:
            moved = _apply_patch("ighb", cells, g, patch, grid)
            assert np.any(moved != cells), patch
            cells = moved

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        k=st.integers(1, 3),
        duplicates=st.integers(0, 2),
        m=st.integers(2, 12),
        alpha=small_alphas,
        on_grid=st.booleans(),
    )
    def test_ighb_matches_full_recount(self, seed, n, k, duplicates, m, alpha, on_grid):
        """fit_ighb keeps its cell tables across rounds; a full recount picks the same patches."""
        rng = np.random.default_rng(seed)
        # Scores on the grid and duplicated group columns give exact ties in weight.
        p = rng.integers(0, m + 1, n) / m if on_grid else rng.uniform(0.0, 1.0, n)
        y = (rng.random(n) < 0.5).astype(float)
        membership = (rng.random((n, k)) < 0.6).astype(np.int8)
        membership = np.hstack([membership, membership[:, :duplicates]])
        groups = GroupSet([f"g{j}" for j in range(membership.shape[1])], membership)
        assume(membership.any())
        model = fit_ighb(p, y, groups, BinGrid(m), alpha, max_iters=200)
        g = groups.select(model.group_names).astype(bool)
        patches, reason = reference_ighb(p, y, g, m, alpha, max_iters=200)
        assert model.stop_reason == reason

        def exact(patches):
            return [(q["group"], q["cell"], q["delta"].hex()) for q in patches]

        assert exact(model.patches) == exact(patches)

    @settings(max_examples=60, deadline=None)
    @given(**synth_draws, alpha=small_alphas)
    def test_ighb_error_budget_holds_after_replay(self, blocks, n, seed, m, alpha):
        p, y, groups = synth_split(blocks, n, seed)
        model = fit_ighb(p, y, groups, BinGrid(m), alpha)
        if model.stop_reason != "error_budget":
            return
        g = groups.select(model.group_names).astype(bool)
        cells = np.rint(model.apply(p, g) * m).astype(int)
        for member in g.T:
            # Mass times gASCE on the rounded cells, from the definition.
            weighted = 0.0
            for cell in np.unique(cells[member]):
                rows = member & (cells == cell)
                delta = float(np.mean(y[rows] - cell / m))
                weighted += rows.sum() / n * delta * delta
            assert weighted <= alpha + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**synth_draws, epsilon=st.floats(1e-3, 0.5))
    def test_iglb_accepts_only_heavy_regions_that_lower_val_brier(self, blocks, n, seed, m, epsilon):
        p, y, groups = synth_split(blocks, n, seed)
        vp, vy, vgroups = synth_split(blocks, n, seed + 1)
        grid = BinGrid(m)
        model = fit_iglb(p, y, vp, vy, groups, vgroups, grid, epsilon=epsilon)
        history = model.val_brier_history
        assert len(history) == len(model.patches) + 1
        assert all(b < a for a, b in zip(history, history[1:]))
        g = groups.select(model.group_names).astype(bool)
        cells = round_to_grid_index(p, grid)
        for patch in model.patches:
            assert _region(cells, g, patch).sum() / n >= epsilon
            cells = _apply_patch("iglb", cells, g, patch, grid)

    @settings(max_examples=60, deadline=None)
    @given(**synth_draws)
    def test_histogram_matches_label_means_on_occupied_cells(self, blocks, n, seed, m):
        p, y, _ = synth_split(blocks, n, seed)
        grid = BinGrid(m)
        calibrated = fit_histogram_binning(p, y, grid).apply(p)
        cells = round_to_grid_index(p, grid)
        for cell in np.unique(cells):
            rows = cells == cell
            assert abs(float(calibrated[rows].mean()) - float(y[rows].mean())) <= 1e-12
