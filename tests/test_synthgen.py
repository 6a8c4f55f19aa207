import numpy as np
import pytest

from codecal.errors import DataError
from codecal.scoring import ConfidenceMethod, score_sample
from codecal.synthgen import Block, SynthSpec, generate


def fingerprint(samples):
    return [
        (s.problem_id, s.sample_id, s.language, s.difficulty, s.label, tuple(s.token_logprobs))
        for s in samples
    ]


def three_block_spec(n, seed):
    return SynthSpec(
        blocks=(
            Block("easy", 0.5, 0.9, ("constant", 0.5)),
            Block("mid", 0.3, 0.6, ("uniform", 0.3, 0.7)),
            Block("hard", 0.2, 0.3, ("constant", 0.4)),
        ),
        n_samples=n,
        seed=seed,
    )


class TestSpecValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(DataError):
            SynthSpec(
                blocks=(Block("a", 0.5, 0.5, ("constant", 0.5)),),
                n_samples=10,
                seed=0,
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(
                blocks=(
                    Block("a", 0.5, 0.5, ("constant", 0.5)),
                    Block("a", 0.5, 0.5, ("constant", 0.5)),
                ),
                n_samples=10,
                seed=0,
            )

    def test_bad_score_descriptor_rejected(self):
        with pytest.raises(DataError):
            Block("a", 1.0, 0.5, ("gaussian", 0.5))

    def test_uniform_range_order(self):
        with pytest.raises(DataError):
            Block("a", 1.0, 0.5, ("uniform", 0.8, 0.2))


class TestGenerate:
    def test_same_seed_same_bytes(self):
        a, _ = generate(three_block_spec(500, 42))
        b, _ = generate(three_block_spec(500, 42))
        assert fingerprint(a) == fingerprint(b)

    def test_seed_changes_output(self):
        a, _ = generate(three_block_spec(500, 42))
        b, _ = generate(three_block_spec(500, 43))
        assert fingerprint(a) != fingerprint(b)

    def test_block_masses_respected(self):
        spec = three_block_spec(10000, 7)
        _, groups = generate(spec)
        for block, mass in zip(spec.blocks, groups.masses):
            # 5 sigma of a binomial proportion at n=10000.
            bound = 5.0 * np.sqrt(block.mass * (1.0 - block.mass) / 10000.0)
            assert abs(mass - block.mass) <= bound

    def test_membership_is_one_hot(self):
        _, groups = generate(three_block_spec(1000, 3))
        assert groups.matrix().shape == (1000, 3)
        np.testing.assert_array_equal(groups.matrix().sum(axis=1), 1)

    def test_perfect_block_has_all_positive_labels(self):
        spec = SynthSpec(
            blocks=(
                Block("sure", 0.5, 1.0, ("constant", 0.9)),
                Block("rest", 0.5, 0.5, ("constant", 0.5)),
            ),
            n_samples=2000,
            seed=11,
        )
        samples, groups = generate(spec)
        mask = groups.select(["sure"]).matrix()[:, 0].astype(bool)
        labels = np.array([s.label for s in samples])
        assert labels[mask].min() == 1

    def test_planted_accuracy_recovered(self):
        spec = SynthSpec(
            blocks=(Block("b", 1.0, 0.8, ("constant", 0.5)),),
            n_samples=10000,
            seed=5,
        )
        samples, _ = generate(spec)
        labels = np.array([s.label for s in samples])
        assert abs(labels.mean() - 0.8) <= 5.0 * 0.004

    def test_difficulty_carries_block_name(self):
        samples, groups = generate(three_block_spec(100, 1))
        for sample, row in zip(samples, groups.matrix()):
            assert sample.difficulty == groups.names[int(np.argmax(row))]

    def test_languages_drawn_from_list(self):
        spec = SynthSpec(
            blocks=(Block("b", 1.0, 0.5, ("constant", 0.5)),),
            n_samples=300,
            seed=2,
            languages=("python", "cpp"),
        )
        samples, _ = generate(spec)
        seen = {s.language for s in samples}
        assert seen == {"python", "cpp"}

    def test_default_language_tag(self):
        samples, _ = generate(three_block_spec(10, 0))
        assert {s.language for s in samples} == {"synthetic"}


class TestScoreRecovery:
    def test_every_method_recovers_planted_confidence(self):
        spec = three_block_spec(400, 21)
        samples, _ = generate(spec)
        planted = {s.sample_id: float(np.exp(s.token_logprobs[0])) for s in samples}
        for name in ("avg_prob", "code_prob", "tail_prob"):
            method = ConfidenceMethod(name)
            for s in samples:
                assert score_sample(s, method) == pytest.approx(planted[s.sample_id], abs=1e-15)

    def test_constant_block_scores_exact(self):
        spec = SynthSpec(
            blocks=(Block("b", 1.0, 0.5, ("constant", 0.5)),),
            n_samples=50,
            seed=9,
        )
        samples, _ = generate(spec)
        for s in samples:
            assert score_sample(s, ConfidenceMethod("avg_prob")) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_block_stays_in_range(self):
        spec = SynthSpec(
            blocks=(Block("b", 1.0, 0.5, ("uniform", 0.3, 0.7)),),
            n_samples=500,
            seed=4,
        )
        samples, _ = generate(spec)
        values = np.array([score_sample(s, ConfidenceMethod("avg_prob")) for s in samples])
        assert values.min() >= 0.3 - 1e-12
        assert values.max() <= 0.7 + 1e-12
