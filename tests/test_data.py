import json
import math
import os
import pickle
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codecal.data as data_module
from codecal.data import (
    Sample,
    SplitSpec,
    assign_problem_splits,
    extract_code_span,
    fork_tasks,
    load_records,
    parse_record,
    read_columns,
    read_ranges,
    save_records,
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
        save_records(samples, str(path))
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
        assert "p_hat" not in loaded[0].to_dict()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("\n" + json.dumps(GOOD) + "\n\n")
        assert len(load_records(str(path))) == 1

    def test_same_samples_in_any_part_count(self, tmp_path):
        path = tmp_path / "r.jsonl"
        samples = [
            make_sample(i, problem=f"p{i % 7}", difficulty="easy" if i % 3 else None)
            for i in range(40)
        ]
        save_records(samples, str(path))
        with forced_parts(1):
            serial = load_records(str(path))
        with forced_parts(3):
            assert load_records(str(path)) == serial
        assert serial == samples


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


class TestReadRanges:
    def test_yields_line_numbers_raw_lines_and_objects(self, tmp_path):
        path = tmp_path / "r.jsonl"
        second = dict(GOOD, sample_id="s2", extra=[1, 2])
        path.write_text(json.dumps(GOOD) + "\n\n" + json.dumps(second) + "\n")
        (rows,) = read_ranges(str(path), [(0, 1, None)], lambda k, lines: list(lines), records=True)
        assert [row[0] for row in rows] == [1, 3]
        assert [row[1] for row in rows] == [json.dumps(GOOD) + "\n", json.dumps(second) + "\n"]
        assert [row[2] for row in rows] == [GOOD, second]
        assert [row[3].sample_id for row in rows] == ["s1", "s2"]


class TestForkTasks:
    def test_yields_every_value_in_task_order(self):
        assert list(fork_tasks(3, lambda k: k * k, "squaring")) == [0, 1, 4]

    def test_closing_after_the_first_value_reaps_every_child(self):
        # Each child's result outgrows a pipe buffer, so it is still writing when closed.
        tasks = fork_tasks(3, lambda k: bytes(1 << 20), "sending a megabyte")
        assert len(next(tasks)) == 1 << 20
        tasks.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRecordErrorPickling:
    def test_round_trip_keeps_line_and_sample_id(self):
        error = RecordError("duplicate sample_id", line=7, sample_id="s1")
        copy = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy) is RecordError
        assert (str(copy), copy.line, copy.sample_id) == (str(error), 7, "s1")


def record_line(i, sid=None, **extra):
    return json.dumps(dict(GOOD, sample_id=sid or f"s{i}", **extra), ensure_ascii=False)


# Lines other than good records: one reusing an earlier id, blank ones,
# malformed JSON, a schema error, a record the row function refuses,
# and bytes that are not UTF-8.
ODD_KINDS = ("duplicate", "blank", "malformed", "schema", "refused", "utf8")
line_ends = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def jsonl_files(draw):
    """Bytes of a JSONL file mixing good lines with every kind of bad one."""
    out = []
    # Files with few odd lines keep line numbers after the first part in play.
    kinds = ("record",) * draw(st.integers(1, 60)) + ODD_KINDS
    for i in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        text = draw(st.text(alphabet="aé✓\u2028\x85 ", max_size=4))
        if kind == "record":
            line = record_line(i, code_text=text, language="py" + text).encode()
        elif kind == "duplicate":
            refuse = {"refuse": True} if draw(st.booleans()) else {}
            line = record_line(i, sid=f"s{draw(st.integers(0, max(i - 1, 0)))}", **refuse).encode()
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b"  ", b"\t"]))
        elif kind == "malformed":
            line = record_line(i)[: draw(st.integers(1, 20))].encode()
        elif kind == "schema":
            line = record_line(i, label=2).encode()
        elif kind == "refused":
            line = record_line(i, refuse=True).encode()
        else:
            line = record_line(i)[:-1].encode() + b', "x": "\xff"}'
        out.append(line)
        out.append(draw(line_ends))
    if out and draw(st.booleans()):
        out.pop()
    return b"".join(out)


def record_row(lineno, obj, sample):
    if obj.get("refuse"):
        raise RecordError("refused by the row function", line=lineno, sample_id=sample.sample_id)
    return lineno, sample.sample_id, sample.language, obj.get("code_text")


def line_row(lineno, obj):
    if not isinstance(obj, dict) or obj.get("refuse"):
        raise RecordError("refused by the row function", line=lineno)
    return lineno, obj.get("sample_id")


def serial_columns(path, records):
    """read_columns' result, read line by line here with none of the reader's helpers."""
    rows, seen = [], set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise RecordError("line is not valid UTF-8", line=lineno) from None
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"malformed JSON: {exc.msg}", line=lineno) from None
            if not records:
                rows.append(line_row(lineno, obj))
                continue
            sample = parse_record(obj, line=lineno)
            if sample.sample_id in seen:
                raise RecordError("duplicate sample_id", line=lineno, sample_id=sample.sample_id)
            seen.add(sample.sample_id)
            rows.append(record_row(lineno, obj, sample))
    return [[row[i] for row in rows] for i in range(4 if records else 2)]


def read_records(path):
    return read_columns(path, record_row, 4, records=True)


def result_of(fn):
    try:
        return "ok", fn()
    except Exception as exc:
        return type(exc), str(exc)


def forced_parts(parts):
    """Make read_columns cut every file into ``parts`` ranges."""
    return mock.patch.multiple(data_module, PARALLEL_MIN_BYTES=0, _cpus=lambda: parts)


def write_bytes(directory, content):
    path = Path(directory) / "f.jsonl"
    path.write_bytes(content)
    return str(path)


class TestReadColumns:
    """read_columns cut into parts gives exactly what a plain serial loop gives."""

    @settings(max_examples=150, deadline=None)
    @given(
        content=jsonl_files(),
        parts=st.integers(1, 4),
        records=st.booleans(),
        block=st.integers(1, 64),
    )
    @example(
        content=b"\n".join(record_line(i).encode() for i in range(6))
        + b"\r\n"
        + record_line(6, sid="s0").encode(),
        parts=2,
        records=True,
        block=64,
    )
    # A later part refuses a record whose id an earlier part holds: the duplicate wins.
    @example(
        content="\n".join(
            [*map(record_line, range(6)), record_line(6, sid="s0", refuse=True)]
        ).encode(),
        parts=2,
        records=True,
        block=64,
    )
    def test_forked_reader_matches_serial(self, content, parts, records, block):
        """Small read blocks split \\r\\n pairs and long lines between blocks."""
        with tempfile.TemporaryDirectory() as tmp:
            path = write_bytes(tmp, content)
            with forced_parts(parts), mock.patch.object(data_module, "_BLOCK_BYTES", block):
                row, width = (record_row, 4) if records else (line_row, 2)
                got = result_of(lambda: read_columns(path, row, width, records))
            assert got == result_of(lambda: serial_columns(path, records))

    @pytest.mark.parametrize(
        "bad_line, want",
        [
            (None, "duplicate sample_id [line 35"),
            (36, "duplicate sample_id [line 35"),
            (30, "line 30"),
        ],
    )
    def test_duplicate_across_parts_wins_only_if_first(self, tmp_path, bad_line, want):
        lines = [record_line(i, sid="s2" if i == 34 else None) for i in range(40)]
        if bad_line is not None:
            lines[bad_line - 1] = "{"
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with forced_parts(2), pytest.raises(RecordError) as got:
            read_records(path)
        assert want in str(got.value)
        with pytest.raises(RecordError) as serial:
            serial_columns(path, records=True)
        assert str(serial.value) == str(got.value)

    def test_duplicate_between_later_parts(self, tmp_path):
        """Ids of every part, not only the first, are checked against the parts after it."""
        lines = [record_line(i, sid="s19" if i == 34 else None) for i in range(40)]
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with forced_parts(3):
            bounds = data_module.line_ranges(path)
            with pytest.raises(RecordError) as got:
                read_records(path)
        # s19 sits on line 20, in the middle part; its duplicate on line 35 in the last.
        assert len(bounds) == 3 and bounds[1][1] <= 20 < bounds[2][1] <= 35
        assert str(got.value) == "duplicate sample_id [line 35, sample_id='s19']"

    @pytest.mark.parametrize("n_lines", [9, 60])
    def test_no_child_left_after_a_failure(self, tmp_path, n_lines):
        lines = [record_line(i) for i in range(n_lines)]
        lines[6] = "{not json"
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with forced_parts(3), pytest.raises(RecordError, match=r"malformed JSON.*\[line 7\]"):
            read_records(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_still_writing_end_after_a_failure(self, tmp_path):
        """The later ranges outgrow a pipe buffer, so their children are still writing."""
        lines = [record_line(i, code_text="x" * 2000) for i in range(150)]
        lines[6] = "{not json"
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with forced_parts(3), pytest.raises(RecordError, match=r"malformed JSON.*\[line 7\]"):
            read_records(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def read_with_a_dying_child(tmp_path, bad_line=None):
        """read_records at 2 parts, whose child dies without a result."""
        lines = [record_line(i) for i in range(20)]
        if bad_line is not None:
            lines[bad_line - 1] = "{"
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text("\n".join(lines) + "\n")
        parent = os.getpid()
        real = data_module._json_lines

        def dies_in_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        with forced_parts(2), mock.patch.object(data_module, "_json_lines", dies_in_child):
            read_records(path)

    def test_child_without_a_result_is_an_io_error(self, tmp_path):
        with pytest.raises(OSError, match="exited without a result"):
            self.read_with_a_dying_child(tmp_path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_first_range_error_wins_over_a_child_without_a_result(self, tmp_path):
        """The first range's own error is raised before the child's result is awaited."""
        with pytest.raises(RecordError, match=r"malformed JSON.*\[line 3\]"):
            self.read_with_a_dying_child(tmp_path, bad_line=3)

    def test_small_file_is_read_in_process(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        Path(path).write_text(record_line(0) + "\n")
        with mock.patch.object(data_module, "_cpus", lambda: 4):
            with mock.patch.object(data_module, "_fork_part") as fork:
                assert read_records(path) == serial_columns(path, True)
        fork.assert_not_called()


class TestInvalidUtf8:
    def test_names_the_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(record_line(0).encode() + b"\r\n\n" + b'{"a": "\xff"}\n')
        with pytest.raises(RecordError, match=r"line is not valid UTF-8 \[line 3\]"):
            load_records(str(path))


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
    def problem_ids(self, n_problems=20, per_problem=3):
        """One problem id per sample, as ``split`` passes them."""
        return [f"prob{p}" for p in range(n_problems) for _ in range(per_problem)]

    def test_partition_preserves_samples(self):
        ids = self.problem_ids()
        assignment = assign_problem_splits(ids, SplitSpec(seed=1))
        assert set(assignment) == set(ids)
        assert set(assignment.values()) == {"train", "val", "test"}

    def test_problem_purity(self):
        # A problem's samples all route through its single entry.
        ids = self.problem_ids()
        assignment = assign_problem_splits(iter(ids), SplitSpec(seed=1))
        routed = {"train": set(), "val": set(), "test": set()}
        for pid in ids:
            routed[assignment[pid]].add(pid)
        assert not (routed["train"] & routed["val"])
        assert not (routed["train"] & routed["test"])
        assert not (routed["val"] & routed["test"])

    def test_deterministic(self):
        ids = self.problem_ids()
        assert assign_problem_splits(ids, SplitSpec(seed=5)) == assign_problem_splits(
            ids, SplitSpec(seed=5)
        )

    def test_order_independent(self):
        ids = self.problem_ids()
        a = assign_problem_splits(ids, SplitSpec(seed=5))
        b = assign_problem_splits(reversed(ids), SplitSpec(seed=5))
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
