import dataclasses
import math

import numpy as np
import pytest

from codecal.binning import BinGrid
from codecal.errors import DataError, DegenerateGroupError
from codecal.groups import GroupSet
from codecal.metrics import (
    NEG_INF,
    EvalReport,
    accuracy_at_half,
    base_rate,
    brier,
    brier_reference,
    brier_skill_score,
    ece,
    evaluate,
    gasce,
    multicalibration_check,
    reliability_table,
)

from oracles import (
    brute_accuracy_at_half,
    brute_brier,
    brute_bss,
    brute_ece,
    brute_gasce,
)


def random_instance(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    members = rng.integers(0, 2, size=n)
    if members.sum() == 0:
        members[int(rng.integers(0, n))] = 1
    return scores, labels, members


class TestEce:
    def test_two_sample_example(self):
        assert ece([0.7, 0.7], [1, 0], BinGrid(10)) == pytest.approx(0.2, abs=1e-15)

    def test_split_bins_example(self):
        got = ece([0.7, 0.7, 0.1], [1, 0, 0], BinGrid(10))
        # Bin with 2/3 of the mass gaps by 0.2, the other by 0.1.
        assert got == pytest.approx(2 / 3 * 0.2 + 1 / 3 * 0.1, abs=1e-15)

    def test_perfectly_calibrated_groups(self):
        scores = np.array([0.25] * 4 + [0.75] * 4)
        labels = np.array([1, 0, 0, 0, 1, 1, 1, 0])
        assert ece(scores, labels, BinGrid(4)) == pytest.approx(0.0, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        scores, labels, _ = random_instance(rng, n_max=50)
        perm = rng.permutation(scores.size)
        grid = BinGrid(7)
        assert ece(scores, labels, grid) == pytest.approx(
            ece(scores[perm], labels[perm], grid), abs=1e-14
        )


class TestBrier:
    def test_constant_half(self):
        labels = [1, 0] * 10
        assert brier([0.5] * 20, labels) == pytest.approx(0.25, abs=1e-15)

    def test_perfect(self):
        assert brier([1.0, 1.0], [1, 1]) == 0.0

    def test_fully_wrong(self):
        assert brier([1.0, 0.0], [0, 1]) == 1.0


class TestBss:
    def test_reference_is_base_rate_variance(self):
        labels = [1, 1, 1, 0]
        assert brier_reference(labels) == pytest.approx(0.75 * 0.25, abs=1e-15)

    def test_degenerate_reference_perfect(self):
        assert brier_skill_score([1.0, 1.0], [1, 1]) == 1.0

    def test_degenerate_reference_imperfect(self):
        got = brier_skill_score([0.9, 1.0], [1, 1])
        assert got == NEG_INF
        assert not np.isnan(got)

    def test_better_than_base_rate_is_positive(self):
        labels = np.array([1, 1, 1, 0, 0, 0])
        scores = np.array([0.9, 0.8, 0.9, 0.1, 0.2, 0.1])
        assert brier_skill_score(scores, labels) > 0.0


class TestAccuracy:
    def test_boundary_predicts_positive(self):
        assert accuracy_at_half([0.5], [0]) == 0.0
        assert accuracy_at_half([0.5], [1]) == 1.0

    def test_base_rate(self):
        assert base_rate([1, 0, 1, 1]) == 0.75


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
        with pytest.raises(DegenerateGroupError):
            gasce([0.5], [1], [0], BinGrid(10))

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
            grid = BinGrid(m)
            s, l = scores.tolist(), labels.tolist()
            assert ece(scores, labels, grid) == pytest.approx(brute_ece(s, l, m), abs=1e-12)
            assert brier(scores, labels) == pytest.approx(brute_brier(s, l), abs=1e-12)
            bss_lib = brier_skill_score(scores, labels)
            bss_ref = brute_bss(s, l)
            if bss_ref == float("-inf"):
                assert bss_lib == NEG_INF
            else:
                assert bss_lib == pytest.approx(bss_ref, abs=1e-12)
            assert accuracy_at_half(scores, labels) == pytest.approx(
                brute_accuracy_at_half(s, l), abs=1e-12
            )
            assert gasce(scores, labels, members, grid) == pytest.approx(
                brute_gasce(s, l, members.tolist(), m), abs=1e-12
            )


class TestMulticalibrationCheck:
    def test_threshold_rearrangement(self):
        # Mass 0.1 group with gASCE 0.3 passes alpha 0.05: 0.1 * 0.3 < 0.05.
        scores = np.array([0.3] * 10)
        labels = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        members = np.zeros((10, 1), dtype=int)
        members[0, 0] = 1
        gs = GroupSet(["tiny"], members)
        verdict = multicalibration_check(scores, labels, gs, BinGrid(10), alpha=0.05)
        entry = verdict["tiny"]
        assert entry["mass"] == pytest.approx(0.1)
        assert entry["pass"] is True

    def test_failing_group(self):
        scores = np.array([0.1] * 10)
        labels = np.array([1] * 10)
        gs = GroupSet(["ALL"], np.ones((10, 1), dtype=int))
        verdict = multicalibration_check(scores, labels, gs, BinGrid(10), alpha=0.05)
        assert verdict["ALL"]["pass"] is False

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        gs = GroupSet(["ALL"], np.ones((4, 1), dtype=int))
        with pytest.raises(DataError, match="alpha must be positive and finite"):
            multicalibration_check([0.5] * 4, [1, 0, 1, 0], gs, BinGrid(10), alpha=alpha)

    def test_degenerate_group_vacuous(self):
        gs = GroupSet(["empty"], np.zeros((4, 1), dtype=int))
        verdict = multicalibration_check([0.5] * 4, [1, 0, 1, 0], gs, BinGrid(10), alpha=0.05)
        assert verdict["empty"] == {
            "pass": True,
            "vacuous": True,
            "mass": 0.0,
            "weighted_gasce": None,
        }


class TestReliabilityTable:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(11)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        rows = reliability_table(scores, labels, BinGrid(10))
        assert sum(row[1] for row in rows) == 100
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_empty_bins_absent(self):
        rows = reliability_table([0.95, 0.97], [1, 1], BinGrid(10))
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
            brier([0.5, 0.5], [1])
