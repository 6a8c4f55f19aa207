import json
import math

import numpy as np
import pytest

from codecal.data import Dataset, Sample, parse_record, save_records
from codecal.errors import DataError, MissingCodeError
from codecal.scoring import (
    ConfidenceMethod,
    load_scored,
    score_dataset,
    score_file,
    score_sample,
)


def sample_with(logprobs, span=None, sid="s1"):
    return Sample(
        problem_id="p1",
        sample_id=sid,
        language="python",
        token_logprobs=logprobs,
        label=1,
        code_span=span,
    )


class TestScoreSample:
    def test_avg_is_geometric_mean(self):
        s = sample_with([math.log(0.5), math.log(0.8)])
        got = score_sample(s, ConfidenceMethod("avg_prob"))
        assert got == pytest.approx(math.sqrt(0.4), abs=1e-15)

    def test_code_window(self):
        s = sample_with([math.log(0.5), math.log(0.8)], span=(1, 2))
        got = score_sample(s, ConfidenceMethod("code_prob"))
        assert got == pytest.approx(0.8, abs=1e-15)

    def test_tail_window(self):
        s = sample_with([math.log(0.1), math.log(0.8), math.log(0.8)])
        got = score_sample(s, ConfidenceMethod("tail_prob", tail_tokens=2))
        assert got == pytest.approx(0.8, abs=1e-15)

    def test_tail_shorter_sequence_uses_everything(self):
        s = sample_with([math.log(0.8), math.log(0.8)])
        got = score_sample(s, ConfidenceMethod("tail_prob", tail_tokens=40))
        assert got == pytest.approx(0.8, abs=1e-15)

    def test_single_token_all_methods_agree(self):
        s = sample_with([math.log(0.37)], span=(0, 1))
        values = {
            score_sample(s, ConfidenceMethod(name))
            for name in ("avg_prob", "code_prob", "tail_prob")
        }
        assert len(values) == 1

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            lps = (-rng.exponential(1.0, size=n)).tolist()
            s = sample_with(lps)
            p = score_sample(s, ConfidenceMethod("avg_prob"))
            assert 0.0 < p <= 1.0

    def test_perfect_confidence(self):
        s = sample_with([0.0, 0.0])
        assert score_sample(s, ConfidenceMethod("avg_prob")) == 1.0

    def test_missing_span_names_sample(self):
        s = sample_with([-0.1], sid="odd-one")
        with pytest.raises(MissingCodeError, match="odd-one"):
            score_sample(s, ConfidenceMethod("code_prob"))

    def test_empty_tokens(self):
        s = sample_with([])
        with pytest.raises(DataError):
            score_sample(s, ConfidenceMethod("avg_prob"))

    def test_unknown_method(self):
        with pytest.raises(DataError):
            ConfidenceMethod("perplexity")


class TestScoreDataset:
    def test_skip_tally(self):
        ds = Dataset(
            [
                sample_with([-0.1], span=(0, 1), sid="a"),
                sample_with([-0.1], sid="b"),
                sample_with([-0.2], span=(0, 1), sid="c"),
            ]
        )
        scored, skipped = score_dataset(ds, ConfidenceMethod("code_prob"), skip_missing=True)
        assert skipped == 1
        assert [item.sample.sample_id for item in scored] == ["a", "c"]

    def test_raises_without_skip(self):
        ds = Dataset([sample_with([-0.1], sid="b")])
        with pytest.raises(MissingCodeError):
            score_dataset(ds, ConfidenceMethod("code_prob"))

    def test_round_trip(self, tmp_path):
        ds = Dataset([sample_with([-0.3, -0.4], span=(0, 2), sid=f"s{i}") for i in range(5)])
        scored, _ = score_dataset(ds, ConfidenceMethod("avg_prob"))
        records = tmp_path / "records.jsonl"
        path = tmp_path / "scored.jsonl"
        save_records(ds, str(records))
        assert score_file(str(records), str(path), ConfidenceMethod("avg_prob")) == (5, 0)
        loaded = load_scored(str(path))
        assert len(loaded) == 5
        for a, b in zip(scored, loaded):
            assert a.p_hat == b.p_hat
            assert a.method == b.method
            assert a.sample.to_dict() == b.sample.to_dict()


class TestScoreFile:
    # Unknown keys, unsorted keys, an int logprob and non-ASCII text must all survive.
    RECORDS = [
        {
            "zeta": [1, {"b": None}],
            "problem_id": "p1",
            "sample_id": "a",
            "language": "python",
            "token_logprobs": [-0.3, -1.7, -0.01, 0],
            "label": 1,
            "code_span": [1, 3],
            "code_text": "é",
        },
        {
            "sample_id": "b",
            "problem_id": "p2",
            "language": "cpp",
            "label": 0,
            "token_logprobs": [-2.5e-3, -0.25, -1e-12],
            "code_span": [0, 2],
            "difficulty": "hard",
        },
    ]

    def write(self, path, objects):
        text = "".join(json.dumps(obj, ensure_ascii=False) + "  \n" for obj in objects)
        path.write_text(text, encoding="utf-8")

    @pytest.mark.parametrize("name", ["avg_prob", "code_prob", "tail_prob"])
    def test_spliced_line_decodes_to_input_plus_score(self, tmp_path, name):
        records, out = tmp_path / "r.jsonl", tmp_path / "s.jsonl"
        self.write(records, self.RECORDS)
        method = ConfidenceMethod(name, tail_tokens=2)
        assert score_file(str(records), str(out), method) == (2, 0)
        lines = out.read_text(encoding="utf-8").splitlines()
        for line, obj in zip(lines, self.RECORDS, strict=True):
            sample = parse_record(obj)
            decoded = json.loads(line)
            assert decoded == {**obj, "method": name, "p_hat": score_sample(sample, method)}
            assert list(decoded)[: len(obj)] == list(obj)

    def test_rescoring_replaces_method_and_p_hat(self, tmp_path):
        records, first, second = (tmp_path / n for n in ("r.jsonl", "s1.jsonl", "s2.jsonl"))
        self.write(records, self.RECORDS)
        score_file(str(records), str(first), ConfidenceMethod("avg_prob"))
        score_file(str(first), str(second), ConfidenceMethod("tail_prob", tail_tokens=1))
        lines = second.read_text(encoding="utf-8").splitlines()
        for line, obj in zip(lines, self.RECORDS, strict=True):
            assert line.count('"p_hat"') == 1 and line.count('"method"') == 1
            p_hat = score_sample(parse_record(obj), ConfidenceMethod("tail_prob", tail_tokens=1))
            assert json.loads(line) == {**obj, "method": "tail_prob", "p_hat": p_hat}

    def test_skip_tally_and_repeat_bytes(self, tmp_path):
        records = tmp_path / "r.jsonl"
        self.write(records, [*self.RECORDS, dict(self.RECORDS[0], sample_id="c", code_span=None)])
        outputs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for out in outputs:
            method = ConfidenceMethod("code_prob")
            assert score_file(str(records), str(out), method, skip_missing=True) == (2, 1)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        lines = outputs[0].read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["sample_id"] for line in lines] == ["a", "b"]
