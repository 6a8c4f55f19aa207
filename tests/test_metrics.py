import dataclasses
import math

import numpy as np
import pytest

from codecal.binning import BinGrid
from codecal.calibrators import fit_ighb
from codecal.errors import DataError
from codecal.groups import GroupSet
from codecal.metrics import NEG_INF, EvalReport, brier_skill_score, evaluate

from oracles import (
    brute_accuracy_at_half,
    brute_brier,
    brute_bss,
    brute_ece,
    brute_gasce,
    brute_reliability,
)


def random_instance(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    members = rng.integers(0, 2, size=n)
    if members.sum() == 0:
        members[int(rng.integers(0, n))] = 1
    return scores, labels, members


def report(scores, labels, m=10):
    """``evaluate``'s groupless report on a grid of ``m`` bins."""
    return evaluate(scores, labels, BinGrid(m))


class TestEce:
    def test_two_sample_example(self):
        assert report([0.7, 0.7], [1, 0]).ece == pytest.approx(0.2, abs=1e-15)

    def test_split_bins_example(self):
        got = report([0.7, 0.7, 0.1], [1, 0, 0]).ece
        # Bin with 2/3 of the mass gaps by 0.2, the other by 0.1.
        assert got == pytest.approx(2 / 3 * 0.2 + 1 / 3 * 0.1, abs=1e-15)

    def test_perfectly_calibrated_groups(self):
        scores = np.array([0.25] * 4 + [0.75] * 4)
        labels = np.array([1, 0, 0, 0, 1, 1, 1, 0])
        assert report(scores, labels, 4).ece == pytest.approx(0.0, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        scores, labels, _ = random_instance(rng, n_max=50)
        perm = rng.permutation(scores.size)
        assert report(scores, labels, 7).ece == pytest.approx(
            report(scores[perm], labels[perm], 7).ece, abs=1e-14
        )


class TestBrier:
    def test_constant_half(self):
        labels = [1, 0] * 10
        assert report([0.5] * 20, labels).brier == pytest.approx(0.25, abs=1e-15)

    def test_perfect(self):
        assert report([1.0, 1.0], [1, 1]).brier == 0.0

    def test_fully_wrong(self):
        assert report([1.0, 0.0], [0, 1]).brier == 1.0


class TestBss:
    def test_reference_is_base_rate_variance(self):
        labels = [1, 1, 1, 0]
        assert report([0.5] * 4, labels).brier_ref == pytest.approx(0.75 * 0.25, abs=1e-15)

    def test_degenerate_reference_perfect(self):
        assert report([1.0, 1.0], [1, 1]).bss == 1.0

    def test_degenerate_reference_imperfect(self):
        got = report([0.9, 1.0], [1, 1]).bss
        assert got == NEG_INF
        assert not np.isnan(got)

    def test_better_than_base_rate_is_positive(self):
        labels = np.array([1, 1, 1, 0, 0, 0])
        scores = np.array([0.9, 0.8, 0.9, 0.1, 0.2, 0.1])
        assert report(scores, labels).bss > 0.0


class TestAccuracy:
    def test_boundary_predicts_positive(self):
        assert report([0.5], [0]).accuracy == 0.0
        assert report([0.5], [1]).accuracy == 1.0

    def test_base_rate(self):
        assert report([0.5] * 4, [1, 0, 1, 1]).base_rate == 0.75


def gasce(scores, labels, members, grid):
    """``evaluate``'s gASCE of the group of ``members`` (one 0/1 flag per sample)."""
    group = GroupSet(["g"], np.asarray(members)[:, None])
    return evaluate(scores, labels, grid, group).per_group_gasce["g"]


class TestGasce:
    def test_two_bin_example(self):
        # Two bins of two samples each, residual means 0.1 and -0.3.
        scores = np.array([0.4, 0.4, 0.8, 0.8])
        labels = np.array([1, 0, 1, 0])
        got = gasce(scores, labels, [1, 1, 1, 1], BinGrid(10))
        assert got == pytest.approx(0.5 * 0.1**2 + 0.5 * 0.3**2, abs=1e-12)

    def test_single_bin_equals_squared_mean_residual(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.41, 0.449, size=30)
        labels = rng.integers(0, 2, size=30)
        members = np.ones(30, dtype=int)
        expected = float(np.mean(labels - scores)) ** 2
        assert gasce(scores, labels, members, BinGrid(20)) == pytest.approx(expected, abs=1e-12)

    def test_empty_group_rejected(self):
        # An empty group has nothing to average: it gets no gASCE entry.
        report = evaluate([0.5], [1], BinGrid(10), GroupSet(["g"], [[0]]))
        assert report.per_group_gasce == {}
        assert report.group_summary["g"]["degenerate"] is True

    @pytest.mark.parametrize("value", [0.5, 257, np.nan])
    def test_refuses_values_a_cast_would_hide(self, value):
        with pytest.raises(DataError, match="membership entries must be 0 or 1"):
            gasce([0.2, 0.8, 0.6], [0, 1, 1], [value, value, 0], BinGrid(10))


class TestBruteForceAgreement:
    def test_all_metrics_match_oracles(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            scores, labels, members = random_instance(rng)
            m = int(rng.choice([2, 5, 20]))
            s, l = scores.tolist(), labels.tolist()
            got = evaluate(scores, labels, BinGrid(m), GroupSet(["g"], members[:, None]))
            assert got.ece == pytest.approx(brute_ece(s, l, m), abs=1e-12)
            assert got.brier == pytest.approx(brute_brier(s, l), abs=1e-12)
            bss_ref = brute_bss(s, l)
            for bss_lib in (got.bss, brier_skill_score(scores, labels)):
                if bss_ref == float("-inf"):
                    assert bss_lib == NEG_INF
                else:
                    assert bss_lib == pytest.approx(bss_ref, abs=1e-12)
            assert got.accuracy == pytest.approx(brute_accuracy_at_half(s, l), abs=1e-12)
            assert got.per_group_gasce["g"] == pytest.approx(
                brute_gasce(s, l, members.tolist(), m), abs=1e-12
            )
            want = brute_reliability(s, l, m)
            assert [row[:2] for row in got.reliability] == [row[:2] for row in want]
            for (*_, conf, acc), (*_, want_conf, want_acc) in zip(got.reliability, want):
                assert conf == pytest.approx(want_conf, abs=1e-12)
                assert acc == pytest.approx(want_acc, abs=1e-12)


class TestMulticalibrationCheck:
    """The multicalibration check, ``P(g) * gASCE(g) <= alpha`` for every group.

    It is ighb's stop rule, on the grid-rounded scores: a model that
    stops at once with ``error_budget`` passed it.
    """

    def test_threshold_rearrangement(self):
        # Mass 0.1 group with gASCE 0.49 passes alpha 0.05: 0.1 * 0.49 <= 0.05.
        scores = np.array([0.3] * 10)
        labels = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        members = np.zeros((10, 1), dtype=int)
        members[0, 0] = 1
        model = fit_ighb(scores, labels, GroupSet(["tiny"], members), BinGrid(10), alpha=0.05)
        assert (model.stop_reason, model.patches) == ("error_budget", [])

    def test_failing_group(self):
        scores = np.array([0.1] * 10)
        labels = np.array([1] * 10)
        gs = GroupSet(["ALL"], np.ones((10, 1), dtype=int))
        model = fit_ighb(scores, labels, gs, BinGrid(10), alpha=0.05)
        assert model.patches[0] == {"group": 0, "cell": 1, "delta": pytest.approx(0.9)}

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        gs = GroupSet(["ALL"], np.ones((4, 1), dtype=int))
        with pytest.raises(DataError, match="alpha must be positive and finite"):
            fit_ighb([0.5] * 4, [1, 0, 1, 0], gs, BinGrid(10), alpha=alpha)

    def test_degenerate_group_vacuous(self):
        gs = GroupSet(["ALL", "empty"], np.array([[1, 0]] * 4))
        model = fit_ighb([0.5] * 4, [1, 0, 1, 0], gs, BinGrid(10), alpha=0.05)
        assert (model.stop_reason, model.patches) == ("error_budget", [])
        assert model.dropped_groups == ["empty"]


class TestReliabilityTable:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(11)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        rows = report(scores, labels).reliability
        assert sum(row[1] for row in rows) == 100
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_empty_bins_absent(self):
        rows = report([0.95, 0.97], [1, 1]).reliability
        assert len(rows) == 1
        assert rows[0][0] == 10


class TestEvalReport:
    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        gs = GroupSet(
            ["ALL", "half", "empty"],
            np.column_stack(
                [
                    np.ones(50, dtype=int),
                    (np.arange(50) < 25).astype(int),
                    np.zeros(50, dtype=int),
                ]
            ),
        )
        report = evaluate(scores, labels, BinGrid(10), gs)
        restored = EvalReport.from_json(report.to_json())
        assert restored.to_json() == report.to_json()
        assert restored.bss == report.bss
        assert "empty" not in restored.per_group_gasce
        assert restored.group_summary["empty"]["degenerate"] is True

    def test_dict_names_every_field(self):
        payload = evaluate([0.2, 0.7, 0.9], [0, 1, 1], BinGrid(10)).to_dict()
        assert sorted(payload) == sorted(
            ["schema_version", *(f.name for f in dataclasses.fields(EvalReport))]
        )
        assert payload["reliability"] == [[3, 1, 0.2, 0.0], [8, 1, 0.7, 1.0], [10, 1, 0.9, 1.0]]

    def test_neg_inf_serialized_as_string(self):
        report = evaluate([0.9], [1], BinGrid(10))
        assert report.bss == NEG_INF
        assert '"-inf"' in report.to_json()
        assert EvalReport.from_json(report.to_json()).bss == NEG_INF

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            report([0.5, 0.5], [1])
        with pytest.raises(DataError):
            brier_skill_score([0.5, 0.5], [1])
