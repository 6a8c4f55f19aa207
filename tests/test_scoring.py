import json
import math
import tracemalloc

import numpy as np
import pytest

from codecal.data import Dataset, Sample, parse_record, save_records
from codecal.errors import DataError, MissingCodeError, RecordError
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
        assert loaded.p_hat.size == 5
        assert loaded.methods == ("avg_prob",)
        cols = loaded.columns
        rows = zip(cols.sample_ids, cols.languages, cols.difficulties, cols.code_texts)
        for item, p_hat, label, row in zip(scored, loaded.p_hat, loaded.labels, rows, strict=True):
            sample = item.sample
            assert item.p_hat == p_hat
            assert sample.label == label
            assert (sample.sample_id, sample.language, sample.difficulty, sample.code_text) == row


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


def scored_record(i, n_tokens, **changes):
    obj = {
        "problem_id": f"p{i // 4}",
        "sample_id": f"s{i}",
        "language": ("python", "rust")[i % 2],
        "token_logprobs": [-0.25] * n_tokens,
        "label": i % 2,
        "difficulty": "easy" if i % 3 else None,
        "code_text": f"if x{i}:\n    return {i}\n",
        "method": "avg_prob",
        "p_hat": 0.25 + i / 1000,
    }
    obj.update(changes)
    return obj


def write_scored(path, objects):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")


class TestLoadScored:
    def test_columns(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        objects = [scored_record(i, 3) for i in range(6)]
        write_scored(path, objects)
        split = load_scored(str(path))
        assert split.methods == ("avg_prob",)
        assert split.p_hat.dtype == float and split.labels.dtype == np.int64
        assert split.p_hat.tolist() == [obj["p_hat"] for obj in objects]
        assert split.labels.tolist() == [obj["label"] for obj in objects]
        cols = split.columns
        assert cols.sample_ids == [obj["sample_id"] for obj in objects]
        assert cols.languages == [obj["language"] for obj in objects]
        assert cols.difficulties == [obj["difficulty"] for obj in objects]
        assert cols.code_texts == [obj["code_text"] for obj in objects]

    def test_mixed_methods_listed(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        write_scored(path, [scored_record(0, 2, method="tail_prob"), scored_record(1, 2)])
        assert load_scored(str(path)).methods == ("avg_prob", "tail_prob")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"p_hat": None}, "missing or non-numeric p_hat"),
            ({"p_hat": True}, "missing or non-numeric p_hat"),
            ({"p_hat": 1.5}, "p_hat 1.5 outside [0, 1]"),
            ({"method": 3}, "missing method"),
            ({"token_logprobs": [-0.1, 0.5]}, "token logprob 0.5 must be finite and <= 0"),
            ({"label": 2}, "label must be 0 or 1, got 2"),
        ],
    )
    def test_errors_name_line_and_sample(self, tmp_path, change, message):
        path = tmp_path / "scored.jsonl"
        objects = [scored_record(0, 2), scored_record(1, 2), scored_record(2, 2, **change)]
        write_scored(path, objects)
        with pytest.raises(RecordError) as info:
            load_scored(str(path))
        assert str(info.value) == f"{message} [line 3, sample_id='s2']"

    def test_memory_held_does_not_grow_with_tokens(self, tmp_path):
        def held(n_tokens):
            path = tmp_path / f"scored{n_tokens}.jsonl"
            write_scored(path, [scored_record(i, n_tokens) for i in range(200)])
            tracemalloc.start()
            try:
                split = load_scored(str(path))
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert split.p_hat.size == 200
            return current

        # 200 records x 792 more tokens would hold about 5 MB as floats.
        assert held(800) - held(8) <= 64 * 1024
