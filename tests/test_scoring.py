import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codecal.data as data_module
import codecal.scoring as scoring_module
from codecal.data import Sample, load_records, parse_record, save_records
from codecal.errors import DataError, MissingCodeError, RecordError
from codecal.features import text_features
from codecal.groups import GroupColumns, GroupingConfig, GroupingModel, branch_count
from codecal.scoring import (
    COLUMNS_SUFFIX,
    ConfidenceMethod,
    _scored_row,
    load_scored,
    open_columns,
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
    """Skipping and round trips of a record file through score_file and load_scored."""

    def score(self, tmp_path, samples, method, skip_missing=False):
        records = tmp_path / "records.jsonl"
        save_records(samples, str(records))
        out = tmp_path / "scored.jsonl"
        counts = score_file(str(records), str(out), method, skip_missing=skip_missing)
        return counts, out

    def test_skip_tally(self, tmp_path):
        samples = [
            sample_with([-0.1], span=(0, 1), sid="a"),
            sample_with([-0.1], sid="b"),
            sample_with([-0.2], span=(0, 1), sid="c"),
        ]
        counts, out = self.score(tmp_path, samples, ConfidenceMethod("code_prob"), True)
        assert counts == (2, 1)
        assert load_scored(str(out)).columns.sample_ids == ["a", "c"]

    def test_raises_without_skip(self, tmp_path):
        with pytest.raises(MissingCodeError):
            self.score(tmp_path, [sample_with([-0.1], sid="b")], ConfidenceMethod("code_prob"))
        assert not (tmp_path / "scored.jsonl").exists()

    def test_round_trip(self, tmp_path):
        samples = [sample_with([-0.3, -0.4], span=(0, 2), sid=f"s{i}") for i in range(5)]
        method = ConfidenceMethod("avg_prob")
        counts, out = self.score(tmp_path, samples, method)
        assert counts == (5, 0)
        loaded = load_scored(str(out))
        assert loaded.p_hat.size == 5
        assert loaded.methods == ("avg_prob",)
        cols = loaded.columns
        rows = zip(cols.sample_ids, cols.languages, cols.difficulties, cols.known)
        for sample, p_hat, label, row in zip(samples, loaded.p_hat, loaded.labels, rows, strict=True):
            assert score_sample(sample, method) == p_hat
            assert sample.label == label
            assert (sample.sample_id, sample.language, sample.difficulty, False) == row


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


def score_line(i, sid=None, **changes):
    """A record line; ``None`` in ``changes`` drops that key."""
    obj = {
        "problem_id": f"p{i % 3}",
        "sample_id": sid or f"s{i}",
        "language": "python",
        "token_logprobs": [-0.125 * (1 + (i + t) % 5) for t in range(3)],
        "label": i % 2,
        "code_span": [1, 3],
    }
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None}, ensure_ascii=False)


NO_TOKENS = {"token_logprobs": [], "code_span": None}

# Lines other than plain records: ones that score_file re-encodes or
# cannot score, and every kind that read_ranges rejects.
SCORE_KINDS = (
    "scored", "no_span", "no_tokens", "duplicate", "blank", "malformed", "schema", "utf8"
)


@st.composite
def score_files(draw):
    """Bytes of a record JSONL file mixing good lines with odd ones."""
    out = []
    kinds = ("record",) * draw(st.integers(1, 40)) + SCORE_KINDS
    for i in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        text = draw(st.text(alphabet="aé✓\u2028\x85 ", max_size=4))
        if kind == "record":
            line = score_line(i, code_text=text).encode()
        elif kind == "scored":
            keys = draw(st.sampled_from([{"p_hat": 0.5}, {"method": "x"}, {"p_hat": 1, "z": text}]))
            line = score_line(i, **keys).encode()
        elif kind == "no_span":
            line = score_line(i, code_span=None).encode()
        elif kind == "no_tokens":
            line = score_line(i, **NO_TOKENS).encode()
        elif kind == "duplicate":
            sid = f"s{draw(st.integers(0, max(i - 1, 0)))}"
            unscorable = draw(st.sampled_from([{}, {"code_span": None}, NO_TOKENS]))
            line = score_line(i, sid=sid, **unscorable).encode()
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b"  ", b"\t"]))
        elif kind == "malformed":
            line = score_line(i)[: draw(st.integers(1, 20))].encode()
        elif kind == "schema":
            line = score_line(i, label=2).encode()
        else:
            line = score_line(i)[:-1].encode() + b', "x": "\xff"}'
        out.append(line)
        out.append(draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    if out and draw(st.booleans()):
        out.pop()
    return b"".join(out)


METHODS = [
    ConfidenceMethod("avg_prob"),
    ConfidenceMethod("code_prob"),
    ConfidenceMethod("tail_prob", tail_tokens=2),
]


def forced_parts(parts, block=data_module._BLOCK_BYTES):
    """Make score_file cut every input into ``parts`` ranges, read in ``block``-byte blocks."""
    return mock.patch.multiple(
        data_module, PARALLEL_MIN_BYTES=0, _cpus=lambda: parts, _BLOCK_BYTES=block
    )


def score_in(directory, content, method, skip, parts, block=data_module._BLOCK_BYTES):
    """Score ``content`` over an existing output.

    Returns the result, the output bytes, the files left and the column
    file's bytes (None where there is none).
    """
    folder = Path(directory)
    (folder / "in.jsonl").write_bytes(content)
    out = folder / "out.jsonl"
    out.write_bytes(b"old output\n")
    with forced_parts(parts, block):
        try:
            result = "ok", score_file(str(folder / "in.jsonl"), str(out), method, skip)
        except Exception as exc:
            result = type(exc), str(exc)
    columns = folder / f"out.jsonl{COLUMNS_SUFFIX}"
    written = columns.read_bytes() if columns.exists() else None
    return result, out.read_bytes(), sorted(os.listdir(folder)), written


class TestScoreFileInParts:
    """score_file cut into parts writes and raises exactly what one part does."""

    @settings(max_examples=150, deadline=None)
    @given(
        content=score_files(),
        parts=st.integers(1, 4),
        block=st.integers(1, 64),
        method=st.sampled_from(METHODS),
        skip=st.booleans(),
    )
    @example(
        content=b"\n".join(score_line(i).encode() for i in range(6))
        + b"\r\n"
        + score_line(6, sid="s0", code_span=None).encode(),
        parts=2,
        block=64,
        method=METHODS[1],
        skip=False,
    )
    def test_parts_match_one_part(self, content, parts, block, method, skip):
        """A duplicate id in a later part is an error before it fails to score."""
        with tempfile.TemporaryDirectory() as tmp:
            got = score_in(tmp, content, method, skip, parts, block)
        with tempfile.TemporaryDirectory() as tmp:
            assert got == score_in(tmp, content, method, skip, 1)
        # A successful run also writes the column file, a failed one writes nothing.
        written = ["out.jsonl.cols"] if got[0][0] == "ok" else []
        assert got[2] == ["in.jsonl", "out.jsonl", *written]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "bad_line, method, want",
        [
            (7, METHODS[0], r"malformed JSON.*\[line 7\]"),
            (50, METHODS[0], r"malformed JSON.*\[line 50\]"),
            (7, METHODS[1], r"sample 's6' has no code_span"),
            (50, METHODS[1], r"sample 's49' has no code_span"),
        ],
    )
    def test_failure_leaves_no_child_and_no_file(self, tmp_path, bad_line, method, want):
        """Line 7 fails in the parent's range, line 50 in the last child's."""
        lines = [score_line(i) for i in range(60)]
        bad = "{not json" if method is METHODS[0] else score_line(bad_line - 1, code_span=None)
        lines[bad_line - 1] = bad
        content = "\n".join(lines).encode() + b"\n"
        result, output, files, _ = score_in(tmp_path, content, method, False, 3)
        assert result[0] is (RecordError if method is METHODS[0] else MissingCodeError)
        assert re.search(want, result[1])
        assert output == b"old output\n"
        assert files == ["in.jsonl", "out.jsonl"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_children_write_two_of_three_ranges(self, tmp_path):
        content = "".join(score_line(i) + "\n" for i in range(60)).encode()
        with mock.patch.object(data_module, "_fork_part", wraps=data_module._fork_part) as fork:
            forked = score_in(tmp_path, content, METHODS[0], False, 3)
        assert fork.call_count == 2
        assert forked[0] == ("ok", (60, 0))
        assert forked == score_in(tmp_path, content, METHODS[0], False, 1)


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
        texts = [obj["code_text"] for obj in objects]
        assert cols.known.tolist() == [True] * len(objects)
        assert cols.feature("chars").tolist() == [len(text) for text in texts]
        assert cols.feature("loc").tolist() == [len(text.splitlines()) for text in texts]
        assert cols.feature("branches").tolist() == [branch_count(text) for text in texts]

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

    def test_memory_held_does_not_grow_with_code_length(self, tmp_path):
        def held(lines):
            path = tmp_path / f"scored{lines}.jsonl"
            text = "if x:\n    y = 1\n" * lines
            write_scored(path, [scored_record(i, 2, code_text=text) for i in range(200)])
            tracemalloc.start()
            try:
                split = load_scored(str(path), GroupingConfig(complexity_source="branch_heuristic"))
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert split.columns.feature("loc").tolist() == [2 * lines] * 200
            return current

        # 200 texts 990 lines longer would hold about 3 MB.
        assert held(500) - held(5) <= 64 * 1024


# Code texts: missing, empty, or with keywords, operators and every line end.
code_texts = st.one_of(
    st.none(), st.just(""), st.text(alphabet="if or x&|?\n\r\x0b\u2028", max_size=30)
)
grouping_configs = st.builds(
    GroupingConfig,
    use_language=st.booleans(),
    length_metrics=st.sampled_from([(), ("chars",), ("loc",), ("chars", "loc"), ("loc", "chars")]),
    complexity_source=st.sampled_from(["none", "difficulty_label", "branch_heuristic"]),
    always_on=st.booleans(),
)


def grouped(columns, fit_columns, config):
    """The grouping fitted on ``fit_columns`` and the membership it gives ``columns``."""
    try:
        model = GroupingModel.fit(fit_columns, config)
        groups = model.apply(columns)
    except DataError as exc:
        return type(exc), str(exc)
    return model.to_json(), groups.names, groups.membership.tobytes()


class TestTextFeaturesInReader:
    """load_scored keeps the text features its grouping config reads, not the texts."""

    @settings(max_examples=150, deadline=None)
    @given(
        config=grouping_configs,
        records=st.lists(
            st.tuples(
                st.sampled_from(["python", "rust", "go"]),
                st.one_of(st.none(), st.sampled_from(["easy", "hard"])),
                code_texts,
            ),
            min_size=1,
            max_size=10,
        ),
        parts=st.sampled_from([1, 3]),
    )
    def test_grouping_matches_columns_of_samples(self, config, records, parts):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scored.jsonl"
            objects = []
            for i, (language, difficulty, text) in enumerate(records):
                obj = scored_record(i, 2, language=language, difficulty=difficulty, code_text=text)
                objects.append({k: v for k, v in obj.items() if v is not None})
            write_scored(path, objects)
            with forced_parts(parts):
                columns = load_scored(str(path), config).columns
            reference = GroupColumns.from_samples(load_records(str(path)))
        fit_half = GroupColumns.from_samples(load_records_of(objects[: len(objects) // 2 + 1]))
        assert grouped(columns, columns, config) == grouped(reference, reference, config)
        assert grouped(columns, fit_half, config) == grouped(reference, fit_half, config)
        assert set(columns.features) == set(config.text_features)

    def test_columns_hold_no_text_and_share_category_objects(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        objects = [scored_record(i, 2, code_text=f"# text {i}\n") for i in range(40)]
        write_scored(path, objects)
        with forced_parts(3):
            columns = load_scored(str(path)).columns
        held = [v for value in vars(columns).values() if isinstance(value, list) for v in value]
        assert not {obj["code_text"] for obj in objects} & set(held)
        assert len({id(v) for v in columns.languages}) == len(set(columns.languages)) == 2
        assert len({id(v) for v in columns.difficulties}) == len(set(columns.difficulties)) == 2

    def test_branch_heuristic_names_first_sample_without_code(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        objects = [scored_record(i, 2) for i in range(5)]
        for i in (2, 4):
            del objects[i]["code_text"]
        write_scored(path, objects)
        config = GroupingConfig(complexity_source="branch_heuristic")
        columns = load_scored(str(path), config).columns
        with pytest.raises(RecordError) as info:
            GroupingModel.fit(columns, config)
        assert str(info.value) == "code_text required for the branch heuristic [sample_id='s2']"


def load_records_of(objects):
    """Samples of scored record dicts, as load_records would read them."""
    return [parse_record(obj, line=i + 1) for i, obj in enumerate(objects)]


# JSON number literals that test the text check at its edges: zeros,
# underflow, overflow, exponents, literals too long for the check and
# ones that are finite anyway, plus values that are not float literals.
EDGE_LITERALS = [
    "0",
    "-0",
    "-0.0",
    "0.0",
    "0.25",
    "-0.25",
    "1e-400",
    "-1e-400",
    "-1e999",
    "-1.5e2",
    "-1.5E-2",
    "-2e+0",
    "-" + "9" * 400 + ".5",
    "-0." + "0" * 400 + "1",
    "-1" + "0" * 400 + "e-400",
    "-3",
    "true",
    "false",
    "null",
    "NaN",
    "Infinity",
    "-Infinity",
    '"-0.5"',
    '"\\u002d0.5"',
    "[-0.5]",
]
number_literals = st.sampled_from(EDGE_LITERALS) | st.from_regex(
    r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,4})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
)
negative_literals = st.from_regex(
    r"-(0|[1-9][0-9]{0,3})\.[0-9]{1,4}([eE][+-]?[0-9]{1,3})?", fullmatch=True
)


@st.composite
def token_arrays(draw):
    """JSON text of a token array: negative float literals with at most one other literal."""
    literals = draw(st.lists(negative_literals, max_size=4))
    if draw(st.booleans()):
        literals.insert(draw(st.integers(0, len(literals))), draw(number_literals))
    return "[" + ", ".join(literals) + "]"


def scored_text(i, tokens, label="1", p_hat="0.5", **changes):
    """A scored record's JSON line with its values given as JSON text."""
    fields = {
        "problem_id": json.dumps(f"p{i}"),
        "sample_id": json.dumps(f"s{i}"),
        "language": '"python"',
        "token_logprobs": tokens,
        "label": label,
        "difficulty": '"easy"',
        "method": '"avg_prob"',
        "p_hat": p_hat,
        **changes,
    }
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"


@st.composite
def scored_lines(draw):
    """JSONL text of scored records whose numbers are written as drawn literals."""
    lines = []
    for i in range(draw(st.integers(1, 4))):
        changes = {}
        if draw(st.booleans()):
            key = draw(st.sampled_from(["language", "difficulty", "method", "code_span", "x"]))
            changes[key] = draw(number_literals)
        label = draw(st.sampled_from(["0", "1", "0.0", "1.0", "true", "2", "-0.0"]))
        p_hat = draw(st.sampled_from(["0.5", "1e0", "1", "0", "-0.0", "1.5", "NaN", '"0.5"']))
        lines.append(scored_text(i, draw(token_arrays()), label, p_hat, **changes))
    return "".join(lines)


def outcome(fn):
    try:
        return "ok", fn()
    except DataError as exc:
        return type(exc), str(exc)


def float_decoded_rows(text):
    """What load_scored must give: json.loads, parse_record and _scored_row line by line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        obj = json.loads(line)
        rows.append(_scored_row(lineno, obj, parse_record(obj, line=lineno)))
    return [row[:2] for row in rows]


class TestTokensCheckedAsText:
    """load_scored's JSON fallback, read in forked ranges, gives what a serial read gives.

    With no column file, load_scored reads the file in 1 or 3 ranges.
    It must accept and refuse what ``json.loads``, ``parse_record`` and
    ``_scored_row`` accept and refuse line by line, with the same rows
    and the same first error.
    """

    @settings(max_examples=300, deadline=None)
    @given(text=scored_lines(), parts=st.sampled_from([1, 3]))
    @example(text="".join(json.dumps(scored_record(i, 3)) + "\n" for i in range(3)), parts=3)
    @example(text=scored_text(0, "[-0.5, -1e999]"), parts=1)
    @example(text=scored_text(0, "[-0.5, 0.25]"), parts=1)
    @example(text=scored_text(0, "[-1" + "0" * 400 + ".5]"), parts=1)
    @example(text=scored_text(0, '[-0.5, "-0.5"]'), parts=1)
    @example(text=scored_text(0, "[-0.5]", label="0.0", p_hat="1e0"), parts=3)
    def test_same_result_as_float_decoding(self, text, parts):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scored.jsonl"
            path.write_text(text, encoding="utf-8")
            with forced_parts(parts):
                got = outcome(lambda: load_scored(str(path)))
        if got[0] == "ok":
            got = "ok", [(p, y) for p, y in zip(got[1].p_hat.tolist(), got[1].labels.tolist())]
        assert got == outcome(lambda: float_decoded_rows(text))


# Strings a reader could cut or mistake: line ends, what str.splitlines
# also cuts at (\x0b, \x1c, U+2028), lone surrogates (JSON escapes such
# as "\\ud800"), quotes and escapes.
odd_texts = st.text(
    alphabet=["a", "é", "\n", "\r", "\x0b", "\x1c", "\u2028", "\ud800", "\udfff", '"', "\\"],
    max_size=5,
)


@st.composite
def record_files(draw):
    """Bytes of a record JSONL file with odd strings in every string field.

    Difficulty and code text are each missing, empty or a string; some
    records lack a code span, and some are already scored, so scoring
    re-encodes their lines.
    """
    lines = []
    for i in range(draw(st.integers(0, 10))):
        obj = {
            "problem_id": "p" + draw(odd_texts),
            "sample_id": f"s{i}" + draw(odd_texts),
            "language": draw(st.sampled_from(["python", "é", "\ud800", "a\u2028b"])),
            "token_logprobs": [-0.125 * (1 + (i + t) % 5) for t in range(3)],
            "label": i % 2,
        }
        for key in ("difficulty", "code_text"):
            value = draw(st.none() | odd_texts)
            if value is not None:
                obj[key] = value
        if draw(st.booleans()):
            obj["code_span"] = [1, 3]
        if draw(st.booleans()):
            obj["p_hat"] = 0.5
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        try:
            lines.append(text.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate must stay escaped
            lines.append(json.dumps(obj).encode("ascii"))
    return b"".join(line + b"\n" for line in lines)


def assert_same_split(got, want):
    """Every value of two ScoredSplits is equal, floats bit for bit."""
    assert got.p_hat.dtype == want.p_hat.dtype and got.p_hat.tobytes() == want.p_hat.tobytes()
    assert got.labels.dtype == want.labels.dtype and got.labels.tolist() == want.labels.tolist()
    assert got.methods == want.methods
    a, b = got.columns, want.columns
    assert a.sample_ids == b.sample_ids
    for name in ("languages", "difficulties"):
        values = getattr(a, name)
        assert values == getattr(b, name)
        assert all(value is None or value is sys.intern(value) for value in values)
    assert a.known.tolist() == b.known.tolist()
    assert list(a.features) == list(b.features)
    for name, values in a.features.items():
        assert values.tobytes() == b.features[name].tobytes()


def columns_of(path):
    return Path(f"{path}{COLUMNS_SUFFIX}")


UNSUMMED = "has string lengths that do not sum to the size of its strings section"
# Where the strings section of a column file of six rows starts, after the header line.
STRINGS_AT = 6 * scoring_module._HEAD.size


class TestColumnFile:
    """load_scored reads a matching column file exactly as it reads the JSONL beside it."""

    @settings(max_examples=150, deadline=None)
    @given(
        content=record_files(),
        config=st.none() | grouping_configs,
        parts=st.sampled_from([1, 3]),
        method=st.sampled_from(METHODS),
        rescore=st.booleans(),
    )
    def test_same_split_as_the_json(self, content, config, parts, method, rescore):
        """code_prob drops the records without a span; a rescored file is re-encoded.

        The chars and loc that score wrote in the heads are those of
        each record's code text in the JSON.
        """
        with tempfile.TemporaryDirectory() as tmp:
            records, path = Path(tmp) / "records.jsonl", Path(tmp) / "scored.jsonl"
            records.write_bytes(content)
            with forced_parts(parts):
                score_file(str(records), str(path), method, skip_missing=True)
                if rescore:
                    score_file(str(path), str(path), METHODS[2])
                with mock.patch.object(scoring_module, "read_columns", side_effect=AssertionError):
                    got = load_scored(str(path), config)
                    heads = load_scored(str(path), GroupingConfig()).columns
                    with open_columns(str(path)) as columns:
                        problem_ids = columns.problem_ids()
                columns_of(path).unlink()
                want = load_scored(str(path), config)
            objects = [json.loads(line) for line in path.read_bytes().splitlines()]
        assert_same_split(got, want)
        assert problem_ids == [obj["problem_id"] for obj in objects]
        texts = [obj.get("code_text") for obj in objects]
        measured = [text_features(text, [len, lambda t: len(t.splitlines())]) for text in texts]
        assert heads.known.tolist() == [known for known, _, _ in measured]
        assert heads.feature("chars").tolist() == [chars for _, chars, _ in measured]
        assert heads.feature("loc").tolist() == [loc for _, _, loc in measured]

    def test_head_layouts_agree(self):
        """The struct that score and split use and the dtype load_scored uses are one layout."""
        fields = (0.375, 1, 3, 70000, 9, 1, 2, 3, 4, 2**32 - 1)
        (head,) = np.frombuffer(scoring_module._HEAD.pack(*fields), scoring_module._HEAD_DTYPE)
        names = [name for name, *_ in scoring_module._HEAD_DTYPE]
        assert [head[name].tolist() for name in names] == [*fields[:5], list(fields[5:])]

    def scored(self, tmp_path, n=6):
        records, path = tmp_path / "records.jsonl", tmp_path / "scored.jsonl"
        write_scored(records, [scored_record(i, 3) for i in range(n)])
        score_file(str(records), str(path), METHODS[0])
        return path

    def test_unmatched_file_is_not_read(self, tmp_path):
        """A JSONL file edited to the same size, or a header of another file, falls back to JSON."""
        path = self.scored(tmp_path)
        text = path.read_bytes()
        want = load_scored(str(path))
        edited = text.replace(b'"label": 1', b'"label": 0', 1)
        assert len(edited) == len(text) and edited != text
        path.write_bytes(edited)
        assert_same_split(load_scored(str(path)), load_scored_without_columns(path))
        assert want.labels.tolist() != load_scored(str(path)).labels.tolist()
        path.write_bytes(text + text[:1] + b"\n")
        with open_columns(str(path)) as columns:
            assert columns is None

    def test_memory_held_does_not_grow_with_code_length(self, tmp_path):
        def held(lines):
            records, path = tmp_path / f"records{lines}.jsonl", tmp_path / f"scored{lines}.jsonl"
            text = "if x:\n    y = 1\n" * lines
            write_scored(records, [scored_record(i, 2, code_text=text) for i in range(200)])
            score_file(str(records), str(path), METHODS[0])
            tracemalloc.start()
            try:
                with mock.patch.object(scoring_module, "read_columns", side_effect=AssertionError):
                    split = load_scored(str(path))
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert split.columns.feature("loc").tolist() == [2 * lines] * 200
            return current

        # 200 texts 990 lines longer would hold about 3 MB.
        assert held(500) - held(5) <= 64 * 1024

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda head, rows: (head, rows[:-1]), UNSUMMED),
            (lambda head, rows: (head, rows + b"x"), UNSUMMED),
            (lambda head, rows: (head, b""), "ends before its 6 rows"),
            (lambda head, rows: (head[:-2], rows), "malformed column file"),
            (lambda head, rows: (b"", b""), "malformed column file"),
            (lambda head, rows: (head.replace(b'"rows"', b'"extra": 0, "rows"'), rows),
             "has unknown field 'extra'"),
            (lambda head, rows: (head.replace(b'columns": 2', b'columns": 1'), rows),
             "has unsupported version 1"),
            (lambda head, rows: (head.replace(b'"avg_prob"', b"null"), rows),
             "must name its scoring method exactly when it has rows"),
            (lambda head, rows: (head, rows[:8] + b"\x02" + rows[9:]), "holds a row no scored record gives"),
            (lambda head, rows: (head, rows[:STRINGS_AT] + b"\xff" + rows[STRINGS_AT + 1 :]),
             "malformed column file"),
            # The first row's flags say it has no code text, but its chars are not 0.
            (lambda head, rows: (head, rows[:9] + b"\x00" + rows[10:]), "holds a row no scored record gives"),
            # The first row's sample id is one byte longer than its strings.
            (lambda head, rows: (head, rows[:18] + bytes([rows[18] + 1]) + rows[19:]), UNSUMMED),
        ],
        ids=[
            "truncated", "runs-on", "no-rows", "header-cut", "empty", "unknown-key",
            "version", "method", "label", "utf8", "chars-without-code", "lengths",
        ],
    )
    def test_malformed_matching_file_names_it(self, tmp_path, change, message):
        path = self.scored(tmp_path)
        head, rows = columns_of(path).read_bytes().split(b"\n", 1)
        head, rows = change(head + b"\n", rows)
        columns_of(path).write_bytes(head + rows)
        with pytest.raises(DataError, match=re.escape(message)) as info:
            load_scored(str(path))
        assert str(columns_of(path)) in str(info.value)


def load_scored_without_columns(path):
    """load_scored of ``path`` as JSON, its column file set aside for the call."""
    aside = path.with_name("aside")
    columns_of(path).rename(aside)
    try:
        return load_scored(str(path))
    finally:
        aside.rename(columns_of(path))
