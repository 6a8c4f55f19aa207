import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from codecal.data import (
    Dataset,
    Sample,
    SplitSpec,
    assign_problem_splits,
    extract_code_span,
    iter_records,
    load_records,
    parse_record,
    save_records,
    split_by_problem,
)
from codecal.errors import AlignmentError, RecordError, SplitError


def make_sample(i: int, problem: str = "p1", **kwargs) -> Sample:
    defaults = dict(
        problem_id=problem,
        sample_id=f"s{i}",
        language="python",
        token_logprobs=[-0.1, -0.2],
        label=i % 2,
    )
    defaults.update(kwargs)
    return Sample(**defaults)


def write_lines(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


GOOD = {
    "problem_id": "p1",
    "sample_id": "s1",
    "language": "python",
    "token_logprobs": [-0.5, -0.1],
    "label": 1,
}


class TestLoadRecords:
    def test_round_trip(self, tmp_path):
        samples = [
            make_sample(1, code_span=(0, 2), difficulty="easy", code_text="return 1"),
            make_sample(2, problem="p2"),
        ]
        path = tmp_path / "records.jsonl"
        save_records(Dataset(samples), str(path))
        loaded = load_records(str(path))
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in samples]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(GOOD) + "\n{not json\n")
        with pytest.raises(RecordError, match="line 2"):
            load_records(str(path))

    def test_missing_key(self, tmp_path):
        obj = dict(GOOD)
        del obj["label"]
        path = tmp_path / "r.jsonl"
        write_lines(path, [obj])
        with pytest.raises(RecordError, match="label"):
            load_records(str(path))

    def test_bad_label(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [dict(GOOD, label=2)])
        with pytest.raises(RecordError, match="label"):
            load_records(str(path))

    def test_positive_logprob(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [dict(GOOD, token_logprobs=[0.3])])
        with pytest.raises(RecordError, match="s1"):
            load_records(str(path))

    def test_duplicate_sample_id(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [GOOD, GOOD])
        with pytest.raises(RecordError, match="duplicate"):
            load_records(str(path))

    def test_code_span_bounds(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [dict(GOOD, code_span=[1, 5])])
        with pytest.raises(RecordError, match="code_span"):
            load_records(str(path))

    def test_empty_span_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [dict(GOOD, code_span=[1, 1])])
        with pytest.raises(RecordError, match="code_span"):
            load_records(str(path))

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [dict(GOOD, p_hat=0.5, extra="x")])
        loaded = load_records(str(path))
        assert len(loaded) == 1
        assert "p_hat" not in loaded.samples[0].to_dict()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("\n" + json.dumps(GOOD) + "\n\n")
        assert len(load_records(str(path))) == 1


def reference_logprobs(lps, line, sid):
    """Per-value token checks: the reference for parse_record's bulk path."""
    if not isinstance(lps, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in lps
    ):
        raise RecordError("token_logprobs must be a list of numbers", line=line, sample_id=sid)
    try:
        lps = [float(v) for v in lps]
    except OverflowError:
        raise RecordError(
            "token logprob integer is too large for a float", line=line, sample_id=sid
        ) from None
    for v in lps:
        if not math.isfinite(v) or v > 0.0:
            raise RecordError(
                f"token logprob {v!r} must be finite and <= 0", line=line, sample_id=sid
            )
    return lps


def outcome(fn):
    try:
        return "ok", fn()
    except RecordError as exc:
        return "error", str(exc)


token_values = st.one_of(
    st.floats(max_value=0.0),
    st.floats(),
    st.integers(min_value=-(10**6), max_value=3),
    st.sampled_from([-(10**400), 10**400, -(2**1024), -(2**1023)]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1e308, -0.0]),
    st.floats(max_value=0.0, allow_nan=False).map(np.float64),
)


class TestTokenLogprobs:
    @given(st.lists(token_values, max_size=12))
    def test_bulk_path_matches_per_value_checks(self, lps):
        got = outcome(lambda: parse_record(dict(GOOD, token_logprobs=lps), line=7).token_logprobs)
        assert got == outcome(lambda: reference_logprobs(lps, 7, "s1"))
        if got[0] == "ok":
            assert all(type(v) is float for v in got[1])

    @pytest.mark.parametrize("lps", ["-0.5", None, {"a": -0.5}, -0.5, [[-0.5]], ["-0.5"]])
    def test_non_number_lists_rejected(self, lps):
        with pytest.raises(RecordError, match="list of numbers"):
            parse_record(dict(GOOD, token_logprobs=lps), line=1)

    def test_integer_too_large_for_float(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(GOOD) + "\n" + json.dumps(dict(GOOD, sample_id="big")).replace(
                "[-0.5, -0.1]", "[-0.5, -" + "9" * 400 + "]"
            ) + "\n"
        )
        with pytest.raises(RecordError, match=r"too large.*line 2, sample_id='big'"):
            load_records(str(path))

    def test_parsed_list_is_a_copy(self):
        lps = [-0.5, -0.1]
        sample = parse_record(dict(GOOD, token_logprobs=lps))
        assert sample.token_logprobs == lps and sample.token_logprobs is not lps


class TestIterRecords:
    def test_yields_line_numbers_raw_lines_and_objects(self, tmp_path):
        path = tmp_path / "r.jsonl"
        second = dict(GOOD, sample_id="s2", extra=[1, 2])
        path.write_text(json.dumps(GOOD) + "\n\n" + json.dumps(second) + "\n")
        rows = list(iter_records(str(path)))
        assert [row[0] for row in rows] == [1, 3]
        assert [row[1] for row in rows] == [json.dumps(GOOD) + "\n", json.dumps(second) + "\n"]
        assert [row[2] for row in rows] == [GOOD, second]
        assert [row[3].sample_id for row in rows] == ["s1", "s2"]


class TestExtractCodeSpan:
    TEXT = "intro\n```python\nreturn 1\n```\ntrailer\n"

    @staticmethod
    def char_tokens(text):
        return [(i, i + 1) for i in range(len(text))]

    def test_span_covers_block_content(self):
        tokens = self.char_tokens(self.TEXT)
        span = extract_code_span(self.TEXT, tokens)
        start, end = span
        block = self.TEXT[start:end]
        assert block == "return 1\n"

    def test_multichar_tokens(self):
        text = "a\n```\ncode\n```\n"
        tokens = [(0, 2), (2, 6), (6, 11), (11, 15)]
        assert extract_code_span(text, tokens) == (2, 3)

    def test_no_closing_fence(self):
        text = "```python\nreturn 1\n"
        assert extract_code_span(text, self.char_tokens(text)) is None

    def test_no_fence_at_all(self):
        text = "just prose"
        assert extract_code_span(text, self.char_tokens(text)) is None

    def test_first_block_wins(self):
        text = "```\nfirst\n```\n```\nsecond\n```\n"
        span = extract_code_span(text, self.char_tokens(text))
        assert text[span[0]:span[1]] == "first\n"

    def test_empty_block_absent(self):
        text = "```\n```\n"
        assert extract_code_span(text, self.char_tokens(text)) is None

    def test_overlapping_offsets(self):
        with pytest.raises(AlignmentError):
            extract_code_span("abcd", [(0, 2), (1, 3)])

    def test_descending_offsets(self):
        with pytest.raises(AlignmentError):
            extract_code_span("abcd", [(2, 1)])

    def test_offsets_beyond_text(self):
        with pytest.raises(AlignmentError):
            extract_code_span("ab", [(0, 5)])


class TestSplitSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(SplitError):
            SplitSpec(train=0.5, val=0.2, test=0.2)

    def test_fractions_must_be_positive(self):
        with pytest.raises(SplitError):
            SplitSpec(train=1.0, val=-0.1, test=0.1)


class TestSplits:
    def make_dataset(self, n_problems=20, per_problem=3):
        samples = []
        for p in range(n_problems):
            for r in range(per_problem):
                samples.append(make_sample(p * per_problem + r, problem=f"prob{p}"))
        return Dataset(samples)

    def test_partition_preserves_samples(self):
        ds = self.make_dataset()
        train, val, test = split_by_problem(ds, SplitSpec(seed=1))
        assert len(train) + len(val) + len(test) == len(ds)
        ids = {s.sample_id for part in (train, val, test) for s in part}
        assert ids == {s.sample_id for s in ds}

    def test_problem_purity(self):
        ds = self.make_dataset()
        parts = split_by_problem(ds, SplitSpec(seed=1))
        problem_sets = [{s.problem_id for s in part} for part in parts]
        assert not (problem_sets[0] & problem_sets[1])
        assert not (problem_sets[0] & problem_sets[2])
        assert not (problem_sets[1] & problem_sets[2])

    def test_deterministic(self):
        ds = self.make_dataset()
        a = split_by_problem(ds, SplitSpec(seed=5))
        b = split_by_problem(ds, SplitSpec(seed=5))
        for part_a, part_b in zip(a, b):
            assert [s.sample_id for s in part_a] == [s.sample_id for s in part_b]

    def test_order_independent(self):
        ds = self.make_dataset()
        shuffled = Dataset(list(reversed(ds.samples)))
        a = assign_problem_splits((s.problem_id for s in ds), SplitSpec(seed=5))
        b = assign_problem_splits((s.problem_id for s in shuffled), SplitSpec(seed=5))
        assert a == b

    def test_seed_changes_assignment(self):
        ids = [f"prob{i}" for i in range(100)]
        a = assign_problem_splits(ids, SplitSpec(seed=7))
        b = assign_problem_splits(ids, SplitSpec(seed=8))
        assert any(a[pid] != b[pid] for pid in ids)

    def test_default_fractions(self):
        ids = [f"prob{i}" for i in range(10)]
        assignment = assign_problem_splits(ids, SplitSpec(seed=0))
        counts = {"train": 0, "val": 0, "test": 0}
        for name in assignment.values():
            counts[name] += 1
        assert counts == {"train": 6, "val": 2, "test": 2}

    def test_too_few_problems(self):
        with pytest.raises(SplitError, match="at least 3"):
            assign_problem_splits(["a", "b"], SplitSpec())

    def test_empty_split_rejected(self):
        with pytest.raises(SplitError):
            assign_problem_splits(["a", "b", "c", "d"], SplitSpec(train=0.9, val=0.05, test=0.05))
