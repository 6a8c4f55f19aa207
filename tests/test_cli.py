import ast
import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import codecal
from codecal.binning import MAX_GRID_M, BinGrid
from codecal.calibrators import model_from_json, model_to_json
import codecal.cli as cli_module
import codecal.data as data_module
import codecal.scoring as scoring_module
from codecal.cli import main
from codecal.data import SplitSpec, assign_problem_splits, load_records, save_records
from codecal.errors import DataError
from codecal.groups import GroupingModel, GroupSet
from codecal.metrics import evaluate
from codecal.report import EvalReport
from codecal.scoring import COLUMNS_SUFFIX, load_scored
from codecal.synthgen import Block, SynthSpec, generate

from malformed import (
    edited,
    invalid_utf8,
    json_paths,
    json_prefixes,
    json_values,
    non_objects,
    with_an_extra_key,
)
from test_scoring import assert_same_split, columns_of, forced_parts, record_files

runner = CliRunner()


def write_synth(path, n=240, seed=17):
    spec = SynthSpec(
        blocks=(
            Block("easy", 0.4, 0.9, ("constant", 0.5)),
            Block("mid", 0.3, 0.6, ("uniform", 0.35, 0.65)),
            Block("hard", 0.3, 0.3, ("constant", 0.5)),
        ),
        n_samples=n,
        seed=seed,
        languages=("python", "cpp"),
    )
    samples, _ = generate(spec)
    for i, sample in enumerate(samples):
        sample.code_text = "if x:\n    y += 1\n" * (i % 5) + "return y\n"
    save_records(samples, str(path))


def run(args):
    return runner.invoke(main, args, catch_exceptions=False)


def cli_env():
    """The environment of a CLI subprocess that imports this checkout of codecal."""
    return dict(os.environ, PYTHONPATH=str(Path(codecal.__file__).parent.parent))


def run_cli(args, cwd, **kwargs):
    """``python -m codecal.cli args`` in a subprocess; its exit code must be 0."""
    kwargs.setdefault("env", cli_env())
    done = subprocess.run(
        [sys.executable, "-m", "codecal.cli", *args],
        cwd=cwd,
        capture_output=True,
        timeout=300,
        **kwargs,
    )
    assert done.returncode == 0, done.stderr
    return done


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestScoreCommand:
    def test_scores_every_record(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records)
        out = tmp_path / "scored.jsonl"
        result = run(["score", "--input", str(records), "--output", str(out)])
        assert result.exit_code == 0
        scored = load_scored(str(out))
        assert scored.p_hat.size == 240
        assert scored.methods == ("avg_prob",)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_reads_a_pipe(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records)
        run_cli(["score", "--input", str(records), "--output", "file.jsonl"], tmp_path)
        piped = ["score", "--input", "/dev/stdin", "--output", "pipe.jsonl"]
        run_cli(piped, tmp_path, input=records.read_bytes())
        assert (tmp_path / "pipe.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()

    def test_bad_method_flag_is_usage_error(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        result = runner.invoke(
            main,
            ["score", "--input", str(records), "--output", str(tmp_path / "o"), "--method", "bogus"],
        )
        assert result.exit_code == 2

    def test_bad_method_in_config_is_data_error(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bogus"}))
        result = run(
            [
                "score",
                "--input",
                str(records),
                "--output",
                str(tmp_path / "o"),
                "--config",
                str(cfg),
            ]
        )
        assert result.exit_code == 4

    def test_config_fills_defaults_but_flags_win(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=20)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "code_prob"}))
        from_config = tmp_path / "a.jsonl"
        run(["score", "--input", str(records), "--output", str(from_config), "--config", str(cfg)])
        assert load_scored(str(from_config)).methods == ("code_prob",)
        from_flag = tmp_path / "b.jsonl"
        run(
            [
                "score",
                "--input",
                str(records),
                "--output",
                str(from_flag),
                "--config",
                str(cfg),
                "--method",
                "avg_prob",
            ]
        )
        assert load_scored(str(from_flag)).methods == ("avg_prob",)

    def test_unknown_config_key_rejected(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tail_size": 5}))
        result = run(
            ["score", "--input", str(records), "--output", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert result.exit_code == 4

    def test_missing_input_is_io_error(self, tmp_path):
        result = run(
            ["score", "--input", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 3

    def test_malformed_record_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"problem_id": "p"\n')
        result = run(["score", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert result.exit_code == 4

    def test_failure_names_line_and_keeps_previous_output(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        huge = '"token_logprobs": [-' + "9" * 400 + ", "
        lines[6] = lines[6].replace('"token_logprobs": [', huge)
        records.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "scored.jsonl"
        out.write_bytes(b"previous output\n")
        result = run(["score", "--input", str(records), "--output", str(out)])
        assert result.exit_code == 4
        assert "too large for a float [line 7," in result.output
        assert out.read_bytes() == b"previous output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl", "scored.jsonl"]

    @pytest.mark.parametrize(
        "config",
        [
            {"tail_k": "x"},
            {"tail_k": 2.5},
            {"tail_k": None},
            {"tail_k": True},
            {"skip_missing": "false"},
            {"skip_missing": 0},
            {"method": 3},
        ],
    )
    def test_mistyped_config_value_is_data_error(self, tmp_path, config):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        args = ["score", "--input", str(records), "--config", str(cfg)]
        result = run([*args, "--output", str(out)])
        assert result.exit_code == 4
        assert "config value" in result.output
        assert not out.exists()

    def test_config_values_convert_like_flags(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "tail_prob", "tail_k": "3", "skip_missing": False}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ["--method", "tail_prob", "--tail-k", "3"]
        args = ["score", "--input", str(records), "--config", str(cfg)]
        assert run([*args, "--output", str(a)]).exit_code == 0
        assert run(["score", "--input", str(records), "--output", str(b), *flags]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestSplitCommand:
    def test_partition_and_determinism(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=100)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            result = run(
                ["split", "--input", str(records), "--output-dir", str(out), "--seed", "3"]
            )
            assert result.exit_code == 0
        names = ("train.jsonl", "val.jsonl", "test.jsonl")
        total = 0
        for name in names:
            first = (out1 / name).read_bytes()
            assert first == (out2 / name).read_bytes()
            total += len(first.splitlines())
        assert total == 100

    def test_problem_purity(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=60)
        out = tmp_path / "splits"
        run(["split", "--input", str(records), "--output-dir", str(out)])
        seen = {}
        for name in ("train", "val", "test"):
            for line in (out / f"{name}.jsonl").read_text().splitlines():
                pid = json.loads(line)["problem_id"]
                assert seen.setdefault(pid, name) == name

    def test_lines_pass_through_unchanged(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=40)
        out = tmp_path / "splits"
        run(["split", "--input", str(records), "--output-dir", str(out)])
        original = set(records.read_text().splitlines())
        routed = set()
        for name in ("train", "val", "test"):
            routed.update((out / f"{name}.jsonl").read_text().splitlines())
        assert routed == original

    def test_input_inside_output_dir_is_not_clobbered(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=60)
        out = tmp_path / "splits"
        out.mkdir()
        original = records.read_bytes()
        (out / "train.jsonl").write_bytes(original)
        result = run(["split", "--input", str(out / "train.jsonl"), "--output-dir", str(out)])
        assert result.exit_code == 0
        routed = b"".join((out / f"{name}.jsonl").read_bytes() for name in ("train", "val", "test"))
        assert sorted(routed.splitlines()) == sorted(original.splitlines())
        assert sorted(p.name for p in out.iterdir()) == ["test.jsonl", "train.jsonl", "val.jsonl"]

    def test_failure_names_line_and_keeps_previous_outputs(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=30)
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "{not json\n"
        records.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "splits"
        out.mkdir()
        for name in ("train", "val", "test"):
            (out / f"{name}.jsonl").write_text(f"old {name}\n", encoding="utf-8")
        result = run(["split", "--input", str(records), "--output-dir", str(out)])
        assert result.exit_code == 4
        assert "malformed JSON" in result.output and "[line 5]" in result.output
        for name in ("train", "val", "test"):
            assert (out / f"{name}.jsonl").read_text(encoding="utf-8") == f"old {name}\n"
        assert len(list(out.iterdir())) == 3

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "record is not a JSON object [line 4]"),
            ('{"problem_id": 7}', "problem_id must be a non-empty string [line 4]"),
            ('{"problem_id": ""}', "problem_id must be a non-empty string [line 4]"),
            ('{"sample_id": "x"}', "missing problem_id [line 4]"),
        ],
    )
    def test_bad_problem_id_names_what_is_wrong(self, tmp_path, line, message):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = line + "\n"
        records.write_text("".join(lines), encoding="utf-8")
        result = run(["split", "--input", str(records), "--output-dir", str(tmp_path / "s")])
        assert result.exit_code == 4
        assert f"error: {message}" in result.output

    def test_input_changed_between_reads(self, tmp_path, monkeypatch):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=30)
        extra = records.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        real = cli_module.assign_problem_splits

        def append_then_assign(problem_ids, spec):
            with open(records, "a", encoding="utf-8") as fh:
                fh.write(extra)
            return real(problem_ids, spec)

        monkeypatch.setattr(cli_module, "assign_problem_splits", append_then_assign)
        out = tmp_path / "splits"
        result = run(["split", "--input", str(records), "--output-dir", str(out)])
        assert result.exit_code == 4
        assert "changed while it was being split: 30 records on the first read, 31" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_pipe_refused_up_front(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=30)
        from_stdin = ["split", "--input", "/dev/stdin", "--output-dir"]
        piped = subprocess.run(
            [sys.executable, "-m", "codecal.cli", *from_stdin, "piped"],
            cwd=tmp_path,
            input=records.read_bytes(),
            capture_output=True,
            env=cli_env(),
            timeout=300,
        )
        assert piped.returncode == 4
        want = b"error: /dev/stdin is not a regular file, and split reads its input twice\n"
        assert piped.stderr == want
        assert not (tmp_path / "piped").exists()
        # A regular file redirected to stdin is split as usual.
        with open(records, "rb") as fh:
            run_cli([*from_stdin, "redirected"], tmp_path, stdin=fh)
        run_cli(["split", "--input", str(records), "--output-dir", "named"], tmp_path)
        for name in ("train", "val", "test"):
            redirected = (tmp_path / "redirected" / f"{name}.jsonl").read_bytes()
            assert redirected == (tmp_path / "named" / f"{name}.jsonl").read_bytes()

    def test_column_file_gives_problem_ids_and_is_split_too(self, pipeline, tmp_path):
        """A scored input with a column file splits to the same lines, and each split gets one."""
        scored = pipeline.parent / "scored.jsonl"
        bare = tmp_path / "bare.jsonl"
        bare.write_bytes(scored.read_bytes())
        outputs = {}
        for name, path in (("columns", scored), ("bare", bare)):
            out = tmp_path / name
            with contextlib.ExitStack() as stack:
                if path == scored:  # the problem ids come from the column file
                    stack.enter_context(
                        mock.patch.object(cli_module, "read_columns", side_effect=AssertionError)
                    )
                result = run(["split", "--input", str(path), "--output-dir", str(out)])
            assert result.exit_code == 0, result.output
            outputs[name] = result.output, {p.name: p.read_bytes() for p in out.glob("*.jsonl")}
        assert outputs["columns"] == outputs["bare"]
        names = ["test.jsonl", "train.jsonl", "val.jsonl"]
        assert sorted(p.name for p in (tmp_path / "bare").iterdir()) == names
        assert sorted(p.name for p in (tmp_path / "columns").iterdir()) == sorted(
            [*names, *(f"{name}{COLUMNS_SUFFIX}" for name in names)]
        )
        for name in names:
            got = load_scored(str(tmp_path / "columns" / name))
            columns_of(tmp_path / "columns" / name).unlink()
            assert_same_split(got, load_scored(str(tmp_path / "columns" / name)))

    def test_lone_surrogate_problem_id_splits(self, tmp_path):
        """A JSON escape can give a problem id a lone surrogate; it is split like any other id.

        The scored input's problem ids come from its column file, and
        both inputs give the same assignment.
        """
        records = tmp_path / "records.jsonl"
        objects = [
            {
                "problem_id": "p1\ud800" if i == 1 else f"p{i}",
                "sample_id": f"s{i}",
                "language": "python",
                "token_logprobs": [-0.5],
                "label": i % 2,
            }
            for i in range(6)
        ]
        records.write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="ascii")
        scored = tmp_path / "scored.jsonl"
        assert run(["score", "--input", str(records), "--output", str(scored)]).exit_code == 0
        assigned = {}
        for path in (records, scored):
            out = tmp_path / f"{path.stem}_splits"
            result = run(["split", "--input", str(path), "--output-dir", str(out)])
            assert result.exit_code == 0, result.output
            assigned[path.stem] = {
                name: [json.loads(line)["sample_id"] for line in (out / f"{name}.jsonl").open()]
                for name in ("train", "val", "test")
            }
        assert assigned["records"] == assigned["scored"]
        assert (tmp_path / "scored_splits" / f"train.jsonl{COLUMNS_SUFFIX}").is_file()

    @settings(max_examples=100, deadline=None)
    @given(
        content=record_files(),
        order=st.sampled_from(["by split", "interleaved", "shuffled"]),
        shuffle=st.randoms(use_true_random=False),
        indent=st.sampled_from(["", " ", "\t "]),
        parts=st.sampled_from([1, 3]),
        block=st.sampled_from([1, 7, 64, scoring_module._BLOCK_BYTES]),
    )
    def test_column_file_splits_as_the_json(
        self, content, order, shuffle, indent, parts, block
    ):
        """Routing rows by their column file writes what splitting the JSON writes.

        Rows are ordered so that runs bound for one split are as long as
        they can be, or problems interleave, or in any order; lines may
        start with whitespace; and the column-file reader's blocks may be
        shorter than a line.  Each split's column file loads as its JSON.
        """
        lines = [indent.encode() + line for line in content.splitlines(keepends=True)]
        pids = [json.loads(line)["problem_id"] for line in lines]
        if order == "by split" and len(set(pids)) >= 3:
            assignment = assign_problem_splits(pids, SplitSpec())
            lines = [line for _, line in sorted(zip(pids, lines), key=lambda p: assignment[p[0]])]
        elif order == "interleaved":
            by_problem = {}
            for pid, line in zip(pids, lines):
                by_problem.setdefault(pid, []).append(line)
            queues = list(by_problem.values())
            lines = [queue[k] for k in range(len(lines)) for queue in queues if k < len(queue)]
        else:
            shuffle.shuffle(lines)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "records.jsonl").write_bytes(b"".join(lines))
            scored, bare = tmp / "scored.jsonl", tmp / "bare.jsonl"
            outputs = {}
            with forced_parts(parts):
                args = ["score", "--input", str(tmp / "records.jsonl"), "--output", str(scored)]
                assert run(args).exit_code == 0
                bare.write_bytes(scored.read_bytes())
                for name, path in (("columns", scored), ("bare", bare)):
                    with contextlib.ExitStack() as stack:
                        if path == scored:
                            patch = mock.patch.object
                            stack.enter_context(patch(scoring_module, "_BLOCK_BYTES", block))
                            stack.enter_context(
                                patch(cli_module, "read_columns", side_effect=AssertionError)
                            )
                        result = run(["split", "--input", str(path), "--output-dir", str(tmp / name)])
                    written = {p.name: p.read_bytes() for p in sorted((tmp / name).glob("*.jsonl"))}
                    outputs[name] = result.exit_code, result.output, written
            assert outputs["columns"] == outputs["bare"]
            for name in outputs["columns"][2]:
                path = tmp / "columns" / name
                with mock.patch.object(scoring_module, "read_ranges", side_effect=AssertionError):
                    got = load_scored(str(path))
                columns_of(path).unlink()
                assert_same_split(got, load_scored(str(path)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines.insert(5, b"\n"), None),
            (lambda lines: lines.append(b"\n"), None),
            (lambda lines: lines.__setitem__(5, lines[5][:-1] + b"\r\n"), None),
            (lambda lines: lines.__delitem__(5), None),
            (lambda lines: lines.insert(5, lines[5]), None),
            (lambda lines: lines.__setitem__(5, "\u3000 \n".encode()), None),
            (lambda lines: lines.__setitem__(-1, lines[-1][:-1]), None),
            (
                lambda lines: lines.__setitem__(2, lines[2][:-2] + b', "x": "\xff"}\n'),
                "line is not valid UTF-8 [line 3]",
            ),
        ],
        ids=[
            "blank-line", "blank-last-line", "crlf", "line-removed", "line-duplicated",
            "whitespace-line", "unterminated", "not-utf8",
        ],
    )
    def test_column_file_unlike_its_jsonl_exits_4(self, tmp_path, edit, message):
        """A column file whose header matches a JSONL file it does not describe line by line.

        score and split never write such a pair, so it is refused, and
        the outputs already in place are kept.
        """
        records, scored = tmp_path / "records.jsonl", tmp_path / "scored.jsonl"
        write_synth(records, n=30)
        assert run(["score", "--input", str(records), "--output", str(scored)]).exit_code == 0
        lines = scored.read_bytes().splitlines(keepends=True)
        edit(lines)
        text = b"".join(lines)
        scored.write_bytes(text)
        header, rows = columns_of(scored).read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header.update(jsonl_bytes=len(text), jsonl_crc32=zlib.crc32(text))
        columns_of(scored).write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rows)
        out = tmp_path / "splits"
        out.mkdir()
        for name in ("train", "val", "test"):
            (out / f"{name}.jsonl").write_text(f"old {name}\n", encoding="utf-8")
        # Blocks shorter than a line, so the lines at fault are found across blocks.
        with mock.patch.object(scoring_module, "_BLOCK_BYTES", 100):
            result = run(["split", "--input", str(scored), "--output-dir", str(out)])
        assert result.exit_code == 4
        if message is None:
            message = f"column file {columns_of(scored)} does not describe {scored} line for line"
        assert result.output == f"error: {message}\n"
        for name in ("train", "val", "test"):
            assert (out / f"{name}.jsonl").read_text(encoding="utf-8") == f"old {name}\n"
        assert len(list(out.iterdir())) == 3

    def test_bad_fractions_rejected(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=30)
        result = run(
            [
                "split",
                "--input",
                str(records),
                "--output-dir",
                str(tmp_path / "s"),
                "--train",
                "0.9",
                "--val",
                "0.3",
                "--test",
                "0.3",
            ]
        )
        assert result.exit_code == 4


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Scored and split synthetic data shared by the fit-eval tests."""
    root = tmp_path_factory.mktemp("pipeline")
    records = root / "records.jsonl"
    write_synth(records, n=600, seed=23)
    scored = root / "scored.jsonl"
    run(["score", "--input", str(records), "--output", str(scored)])
    splits = root / "splits"
    run(["split", "--input", str(scored), "--output-dir", str(splits)])
    return splits


def fit_eval_args(splits, outdir, extra=()):
    return [
        "fit-eval",
        "--train",
        str(splits / "train.jsonl"),
        "--val",
        str(splits / "val.jsonl"),
        "--test",
        str(splits / "test.jsonl"),
        "--output-dir",
        str(outdir),
        *extra,
    ]


def swapped_split_args(command, splits, outdir, name, path):
    """fit-eval or ablate arguments over ``splits`` with split ``name`` read from ``path``."""
    args = fit_eval_args(splits, outdir, ("--methods", "platt"))
    args[0] = command
    args[args.index(str(splits / f"{name}.jsonl"))] = str(path)
    if command == "ablate":
        args[args.index("--output-dir")] = "--output"
    return args


def with_bad_utf8(src, dst, line=3):
    """Copy JSONL ``src`` to ``dst`` with a byte that is not UTF-8 in a string on ``line``."""
    lines = Path(src).read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip()[:-1] + b', "x": "\xff"}\n'
    Path(dst).write_bytes(b"".join(lines))
    return dst


class TestInvalidUtf8:
    """A line that is not UTF-8 exits 4 naming its line, in every command."""

    def assert_names_line_3(self, result):
        assert result.exit_code == 4, result.output
        assert "error: line is not valid UTF-8 [line 3]" in result.output

    def test_score(self, tmp_path):
        records = tmp_path / "records.jsonl"
        write_synth(records, n=10)
        bad = with_bad_utf8(records, tmp_path / "bad.jsonl")
        self.assert_names_line_3(
            run(["score", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
        )
        assert not (tmp_path / "o.jsonl").exists()

    def test_split(self, pipeline, tmp_path):
        bad = with_bad_utf8(pipeline.parent / "scored.jsonl", tmp_path / "bad.jsonl")
        self.assert_names_line_3(
            run(["split", "--input", str(bad), "--output-dir", str(tmp_path / "s")])
        )

    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_fit_eval_and_ablate(self, pipeline, tmp_path, command):
        bad = with_bad_utf8(pipeline / "val.jsonl", tmp_path / "bad.jsonl")
        args = swapped_split_args(command, pipeline, tmp_path / "out", "val", bad)
        self.assert_names_line_3(run(args))

    def test_convert_calibri(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        lines = [TestConvertCommand().aliased_line(i) for i in range(4)]
        src.write_text("\n".join(lines) + "\n")
        bad = with_bad_utf8(src, tmp_path / "bad.jsonl")
        out = tmp_path / "o.jsonl"
        args = ["convert-calibri", "--source", str(bad), "--output", str(out)]
        result = run(args)
        assert result.exit_code == 4, result.output
        assert f"error: {bad} line 3: line is not valid UTF-8\n" in result.output

    @pytest.mark.parametrize("command", ["score", "fit-eval", "ablate"])
    def test_config(self, pipeline, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"grid_m": 1\xff0}')
        out = tmp_path / "out"
        if command == "score":
            args = ["score", "--input", str(pipeline / "test.jsonl"), "--output", str(out)]
        else:
            args = swapped_split_args(command, pipeline, out, "val", pipeline / "val.jsonl")
        result = run([*args, "--config", str(cfg)])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: config file is not valid JSON: 'utf-8' codec")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_report(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_bytes(b'{"n_samples": \xff}')
        result = run(["report", "--report", str(path), "--output-dir", str(tmp_path / "c")])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: malformed report: 'utf-8' codec")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json"]


# Runs the CLI with the range reader cutting every file into the number
# of parts given as the first argument (1 reads in process).
FORCED_PARTS_CLI = """
import sys
import codecal.data
parts = int(sys.argv.pop(1))
codecal.data.PARALLEL_MIN_BYTES = 0
codecal.data._cpus = lambda: parts
from codecal.cli import main
main(prog_name="codecal")
"""


CODE_SKIP = ("--method", "code_prob", "--skip-missing")


class TestReaderPartCount:
    def run_stages(self, splits, cwd, parts, records):
        """stdout plus stderr of score, split, fit-eval and ablate, run with outputs in ``cwd``."""
        cwd.mkdir()
        env = cli_env()
        inputs = [
            x
            for name in ("train", "val", "test")
            for x in (f"--{name}", str(splits / f"{name}.jsonl"))
        ]
        fit = ("--complexity", "difficulty_label", "--grid-m", "10")
        stages = [
            ["score", "--input", str(records), "--output", "scored.jsonl"],
            ["score", "--input", str(records), "--output", "code.jsonl", *CODE_SKIP],
            ["split", "--input", str(splits / "scored.jsonl"), "--output-dir", "splits"],
            ["fit-eval", *inputs, *fit, "--output-dir", "fit"],
            ["ablate", *inputs, *fit, "--output", "ablation.csv"],
        ]
        errs = []
        for args in stages:
            done = subprocess.run(
                [sys.executable, "-c", FORCED_PARTS_CLI, str(parts), *args],
                cwd=cwd,
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            errs.append(done.stdout + done.stderr)
        return errs

    def test_outputs_and_stderr_do_not_depend_on_parts(self, pipeline, tmp_path):
        # Every third record loses its code span, so code_prob skips some.
        records = tmp_path / "records.jsonl"
        lines = (pipeline.parent / "records.jsonl").read_text(encoding="utf-8").splitlines()
        objects = [json.loads(line) for line in lines]
        for obj in objects[::3]:
            del obj["code_span"]
        records.write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")
        # Inputs without column files, so split, fit-eval and ablate decode their JSON in parts.
        bare = split_copy(pipeline, tmp_path / "bare", columns=False)
        (bare / "scored.jsonl").write_bytes((pipeline.parent / "scored.jsonl").read_bytes())
        serial, forked = tmp_path / "serial", tmp_path / "forked"
        errs = self.run_stages(bare, forked, 3, records)
        assert errs == self.run_stages(bare, serial, 1, records)
        assert errs[1] == b"scored 400 samples, skipped 200\n"
        files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(forked) for p in forked.rglob("*") if p.is_file())
        assert len(files) > 20
        for rel in files:
            assert (forked / rel).read_bytes() == (serial / rel).read_bytes(), rel


class TestFitEvalCommand:
    def test_artifacts_written(self, pipeline, tmp_path):
        outdir = tmp_path / "out"
        result = run(
            fit_eval_args(
                pipeline,
                outdir,
                ("--complexity", "difficulty_label", "--grid-m", "10"),
            )
        )
        assert result.exit_code == 0
        assert (outdir / "grouping.json").is_file()
        assert (outdir / "report_uncalibrated.json").is_file()
        assert (outdir / "reliability_uncalibrated.csv").is_file()
        for name in ("platt", "histogram", "gcur_linear", "gcur_logistic", "ighb", "iglb"):
            assert (outdir / f"model_{name}.json").is_file()
            assert (outdir / f"report_{name}.json").is_file()
            assert (outdir / f"reliability_{name}.csv").is_file()
        rows = read_csv(outdir / "comparison.csv")
        assert rows[0] == ["method", "bss", "acc", "ece", "brier"]
        assert [r[0] for r in rows[1:]] == [
            "uncalibrated",
            "platt",
            "histogram",
            "gcur_linear",
            "gcur_logistic",
            "ighb",
            "iglb",
        ]
        for row in rows[1:]:
            for cell in row[1:]:
                assert cell == "-inf" or float(cell) == pytest.approx(float(cell))

    def test_ighb_stops_when_its_patch_would_move_nothing(self, tmp_path):
        # Half the samples score 0.1, the lowest grid value, and all are
        # wrong: once the other half is patched, the worst cell's shift
        # rounds back onto it.  A fit that repeats that patch until
        # max_iters (1,000 patches) writes the report pinned below.
        spec = SynthSpec(
            blocks=(
                Block("stuck", 0.5, 0.0, ("constant", 0.1)),
                Block("off", 0.5, 0.8, ("constant", 0.5)),
            ),
            n_samples=200,
            seed=3,
        )
        samples, _ = generate(spec)
        records = tmp_path / "records.jsonl"
        save_records(samples, str(records))
        scored = tmp_path / "scored.jsonl"
        run(["score", "--input", str(records), "--output", str(scored)])
        splits = tmp_path / "splits"
        run(["split", "--input", str(scored), "--output-dir", str(splits)])
        outdir = tmp_path / "out"
        flags = ("--methods", "ighb", "--grid-m", "10", "--alpha", "0.0005", "--no-language")
        flags += ("--length-metrics", "none", "--complexity", "difficulty_label")
        assert run(fit_eval_args(splits, outdir, flags)).exit_code == 0
        model = json.loads((outdir / "model_ighb.json").read_text())
        assert model["convergence"] == {
            "converged": False,
            "iterations": 1,
            "stop_reason": "no_progress",
        }
        assert model["params"]["patches"] == [{"group": 0, "cell": 5, "delta": 0.30303030303030304}]
        report = (outdir / "report_ighb.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "ec7cd5e422c481cd45a1ff3ddc33f80cbb358d01b317b4424aefe20e691daca1"
        )

    def test_method_subset_and_rerun_identical(self, pipeline, tmp_path):
        extra = ("--methods", "platt,histogram", "--grid-m", "10")
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for outdir in (out1, out2):
            result = run(fit_eval_args(pipeline, outdir, extra))
            assert result.exit_code == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_failed_method_gets_failed_row(self, pipeline, tmp_path):
        # A degenerate train split (all labels 1) breaks the logistic fits
        # but not the binning ones.
        root = tmp_path
        records = root / "records.jsonl"
        spec = SynthSpec(
            blocks=(Block("sure", 1.0, 1.0, ("uniform", 0.4, 0.9)),),
            n_samples=120,
            seed=5,
        )
        samples, _ = generate(spec)
        save_records(samples, str(records))
        scored = root / "scored.jsonl"
        run(["score", "--input", str(records), "--output", str(scored)])
        splits = root / "splits"
        run(["split", "--input", str(scored), "--output-dir", str(splits)])
        outdir = root / "out"
        result = run(
            fit_eval_args(
                splits,
                outdir,
                ("--methods", "platt,histogram", "--grid-m", "10", "--length-metrics", "none"),
            )
        )
        assert result.exit_code == 0
        rows = {r[0]: r[1:] for r in read_csv(outdir / "comparison.csv")[1:]}
        assert rows["platt"] == ["failed"] * 4
        assert rows["histogram"] != ["failed"] * 4
        assert rows["uncalibrated"][0] in ("-inf", "1.0")
        assert not (outdir / "model_platt.json").exists()

    def test_config_alpha_string_matches_flag(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": "0.1", "methods": "ighb", "grid_m": 10}))
        from_config, from_flags = tmp_path / "c", tmp_path / "f"
        assert run(fit_eval_args(pipeline, from_config, ("--config", str(cfg)))).exit_code == 0
        flags = ("--alpha", "0.1", "--methods", "ighb", "--grid-m", "10")
        assert run(fit_eval_args(pipeline, from_flags, flags)).exit_code == 0
        for name in sorted(p.name for p in from_flags.iterdir()):
            assert (from_config / name).read_bytes() == (from_flags / name).read_bytes(), name

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_infinite_alpha_fails_ighb(self, pipeline, tmp_path, how):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1e999}')
        alpha = ("--alpha", "inf") if how == "flag" else ("--config", str(cfg))
        out = tmp_path / "out"
        result = run(fit_eval_args(pipeline, out, ("--methods", "ighb", *alpha)))
        assert result.exit_code == 0
        assert "ighb failed: alpha must be positive and finite, got inf" in result.output
        assert read_csv(out / "comparison.csv")[2] == ["ighb"] + ["failed"] * 4
        assert not (out / "model_ighb.json").exists()
        assert all(b"Infinity" not in path.read_bytes() for path in out.iterdir())

    @pytest.mark.parametrize("config", [{"language": "false"}, {"alpha": "x"}, {"grid_m": []}])
    def test_mistyped_config_value_is_data_error(self, pipeline, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run(fit_eval_args(pipeline, tmp_path / "out", ("--config", str(cfg))))
        assert result.exit_code == 4
        assert "config value" in result.output

    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_mixed_scoring_methods_rejected(self, pipeline, tmp_path, command):
        """A split scored by another method, or a split without a column file mixing two."""
        tail_test = tmp_path / "test.jsonl"
        rescore = ["score", "--input", str(pipeline / "test.jsonl"), "--output", str(tail_test)]
        assert run([*rescore, "--method", "tail_prob"]).exit_code == 0
        lines = (pipeline / "test.jsonl").read_bytes().splitlines(keepends=True)
        for k in range(1, len(lines), 2):
            lines[k] = lines[k].replace(b'"method": "avg_prob"', b'"method": "tail_prob"')
        mixed_test = tmp_path / "mixed.jsonl"
        mixed_test.write_bytes(b"".join(lines))
        for path in (tail_test, mixed_test):
            result = run(swapped_split_args(command, pipeline, tmp_path / "out", "test", path))
            assert result.exit_code == 4
            assert "different methods: avg_prob, tail_prob" in result.output

    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_invalid_record_names_line(self, pipeline, tmp_path, command):
        lines = (pipeline / "val.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        obj = json.loads(lines[6])
        obj["token_logprobs"][0] = 0.5
        lines[6] = json.dumps(obj) + "\n"
        bad_val = tmp_path / "val.jsonl"
        bad_val.write_text("".join(lines), encoding="utf-8")
        result = run(swapped_split_args(command, pipeline, tmp_path / "out", "val", bad_val))
        assert result.exit_code == 4
        sid = obj["sample_id"]
        message = f"token logprob 0.5 must be finite and <= 0 [line 7, sample_id={sid!r}]"
        assert message in result.output

    def test_unknown_method_list_rejected(self, pipeline, tmp_path):
        result = run(
            fit_eval_args(pipeline, tmp_path / "out", ("--methods", "platt,mystery"))
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_grid_above_the_bound_refused_before_loading(self, tmp_path, source):
        m = MAX_GRID_M + 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_m": m}), encoding="utf-8")
        extra = ("--grid-m", str(m)) if source == "flag" else ("--config", str(config))
        # The splits do not exist: loading them would exit 3.
        result = run(fit_eval_args(tmp_path / "missing", tmp_path / "out", extra))
        assert result.exit_code == 4
        want = f"error: bin grid needs an integer m from 2 to {MAX_GRID_M}, got {m}\n"
        assert result.output == want
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_duplicate_length_metric_refused_before_loading(self, tmp_path, command):
        # The splits do not exist: loading them would exit 3.
        args = fit_eval_args(tmp_path / "missing", tmp_path / "out", ("--length-metrics", "loc,loc"))
        args[0] = command
        if command == "ablate":
            args[args.index("--output-dir")] = "--output"
        result = run(args)
        assert result.exit_code == 4
        assert result.output == "error: duplicate length metric 'loc'\n"
        assert not (tmp_path / "out").exists()


FIT_EVAL_KEYS = sorted(
    param.name
    for param in main.commands["fit-eval"].params
    if param.name not in ("train_path", "val_path", "test_path", "config_path", "output_dir")
)
FLAG_KEYS = ("all_group", "language")


def mistyped_configs():
    """One config key with a value click cannot convert, or a non-boolean flag."""

    def wrong_value(key):
        if key in FLAG_KEYS:
            return json_values.filter(lambda v: not isinstance(v, bool))
        containers = st.lists(json_values, max_size=3) | st.dictionaries(
            st.text(max_size=6), json_values, max_size=3
        )
        return st.booleans() | containers

    return st.sampled_from(FIT_EVAL_KEYS).flatmap(
        lambda key: wrong_value(key).map(lambda value: json.dumps({key: value}))
    )


def unknown_key_configs():
    known = st.dictionaries(st.sampled_from(FIT_EVAL_KEYS), json_values, max_size=3)
    unknown = st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in FIT_EVAL_KEYS), json_values, min_size=1
    )
    return st.tuples(known, unknown).map(lambda parts: json.dumps({**parts[0], **parts[1]}))


VALID_REPORT = json.loads(
    evaluate(
        [0.2, 0.7, 0.9, 0.4],
        [0, 1, 1, 1],
        BinGrid(10),
        GroupSet.from_membership(["ALL", "a", "b"], [[1, 1, 0], [1, 0, 1], [1, 1, 0], [1, 0, 0]]),
    ).to_json()
)


def write_document(path, document):
    """Write a JSON document given as text (UTF-8 encoded) or as raw bytes."""
    path.write_bytes(document.encode("utf-8") if isinstance(document, str) else document)


class TestMalformedInputProperty:
    """Malformed config and report documents exit 2, 3 or 4, never with a traceback.

    ``run`` does not catch exceptions, so anything but a clean exit
    fails the test with its traceback.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        text=json_prefixes({"grid_m": 10, "methods": "platt"})
        | non_objects()
        | unknown_key_configs()
        | mistyped_configs()
        | invalid_utf8({"grid_m": 10, "methods": "platt"})
    )
    def test_malformed_fit_eval_config(self, pipeline, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            write_document(cfg, text)
            result = run(fit_eval_args(pipeline, Path(tmp) / "out", ("--config", str(cfg))))
            assert result.exit_code in (2, 3, 4), result.output
            assert not (Path(tmp) / "out").exists()

    def render(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            write_document(path, text)
            return run(["report", "--report", str(path), "--output-dir", str(Path(tmp) / "c")])

    @settings(max_examples=60, deadline=None)
    @given(
        text=json_prefixes(VALID_REPORT)
        | non_objects()
        | st.sampled_from(sorted(VALID_REPORT)).map(
            lambda key: edited(VALID_REPORT, (key,), drop=True)
        )
        | invalid_utf8(VALID_REPORT)
    )
    def test_malformed_report(self, text):
        result = self.render(text)
        assert result.exit_code in (2, 3, 4), result.output

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(list(json_paths(VALID_REPORT))), value=json_values)
    def test_report_with_a_replaced_value(self, path, value):
        """A value replaced anywhere in a report renders or exits 4."""
        result = self.render(edited(VALID_REPORT, path, value))
        assert result.exit_code in (0, 4), result.output


# A grid other than fit-eval's default, so that replaying a report must use the run's.
FIT_GRID_M = 12


@pytest.fixture(scope="module")
def fit_run(pipeline, tmp_path_factory):
    """The output directory of a fit-eval run of every method on the shared splits."""
    outdir = tmp_path_factory.mktemp("fit_documents")
    flags = ("--complexity", "difficulty_label", "--grid-m", str(FIT_GRID_M))
    result = run(fit_eval_args(pipeline, outdir, flags))
    assert result.exit_code == 0, result.output
    return outdir


@pytest.fixture(scope="module")
def fit_documents(fit_run):
    """The grouping, models and reports of ``fit_run``, decoded, by file name."""
    return {path.name: json.loads(path.read_bytes()) for path in sorted(fit_run.glob("*.json"))}


# The loader and the writer of each document fit-eval writes, by file-name prefix.
DOCUMENT_IO = {
    "grouping": (GroupingModel.from_json, GroupingModel.to_json),
    "model": (model_from_json, model_to_json),
    "report": (lambda text: EvalReport.from_dict(json.loads(text)), EvalReport.to_json),
}


def document_io(name):
    return DOCUMENT_IO[name.split(".")[0].split("_")[0]]


def load_document(name, text):
    """Load the text of fit-eval's document ``name`` as its loader does."""
    return document_io(name)[0](text)


class TestDocumentKeys:
    """fit-eval's grouping, models and reports refuse any key they would not write back."""

    def test_written_documents_load(self, fit_documents):
        assert len(fit_documents) == 14
        for name, payload in fit_documents.items():
            load_document(name, json.dumps(payload))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unknown_key_rejected_at_every_level(self, fit_documents, data):
        """A key added to any object of a grouping, model or report is refused, whatever it holds.

        Values are scalars or containers, so a list of cutpoints for a
        length metric the config does not name is among them.
        """
        name = data.draw(st.sampled_from(sorted(fit_documents)))
        text = data.draw(with_an_extra_key(fit_documents[name]))
        with pytest.raises(DataError):
            load_document(name, text)


class TestDocumentReplay:
    """The documents fit-eval writes replay exactly."""

    def test_loaded_documents_write_back_their_bytes(self, fit_run):
        paths = sorted(fit_run.glob("*.json"))
        assert len(paths) == 14
        for path in paths:
            text = path.read_text(encoding="utf-8")
            load, write = document_io(path.name)
            assert write(load(text)) + "\n" == text, path.name

    def test_grouping_and_models_reproduce_the_reports(self, pipeline, fit_run):
        grouping = GroupingModel.from_json((fit_run / "grouping.json").read_text(encoding="utf-8"))
        test = load_scored(str(pipeline / "test.jsonl"), grouping.config)
        groups = grouping.apply(test.columns)
        replayed = {"uncalibrated": test.p_hat}
        for path in sorted(fit_run.glob("model_*.json")):
            model = model_from_json(path.read_text(encoding="utf-8"))
            if hasattr(model, "group_names"):
                replayed[model.method] = model.apply(test.p_hat, groups.select(model.group_names))
            else:
                replayed[model.method] = model.apply(test.p_hat)
        assert len(replayed) == 7
        for name, calibrated in replayed.items():
            report = evaluate(calibrated, test.labels, BinGrid(FIT_GRID_M), groups)
            want = (fit_run / f"report_{name}.json").read_text(encoding="utf-8")
            assert report.to_json() + "\n" == want, name


def nested(depth, kind):
    """A JSON document ``depth`` arrays or objects deep."""
    opener, closer = ("[", "]") if kind == "array" else ('{"k": ', "}")
    return opener * depth + "0" + closer * depth


# Python refuses to convert an integer literal with more digits than this.
INT_DIGITS = sys.get_int_max_str_digits()


def int_limit_reason(literal):
    """Why ``int(literal)`` fails, or None if it converts."""
    try:
        int(literal)
    except ValueError as exc:
        return str(exc)
    return None


class TestDecodeFailures:
    """A document that fails to decode exits 4 naming where it is, never with a traceback.

    Each record file holds one good record and the document on line 2,
    which with three parts is decoded in a forked child.  Every command
    decodes through one rule, so every one refuses the same documents.
    """

    def run_all(self, tmp, doc, parts):
        """The stdout plus stderr of each command that reads ``doc``, which must exit 4."""
        records, deep = tmp / "records.jsonl", tmp / "deep.json"
        record = {"problem_id": "p", "sample_id": "s", "language": "python"}
        record.update(token_logprobs=[-0.5], label=1, method="avg_prob", p_hat=0.5)
        records.write_text(json.dumps(record) + "\n" + doc + "\n", encoding="utf-8")
        deep.write_text(doc + "\n", encoding="utf-8")
        score = ["score", "--input", str(records), "--output", str(tmp / "scored.jsonl")]
        splits = [x for name in ("train", "val", "test") for x in (f"--{name}", str(records))]
        converted = str(tmp / "converted.jsonl")
        commands = {
            "score": score,
            "split": ["split", "--input", str(records), "--output-dir", str(tmp / "splits")],
            "fit-eval": ["fit-eval", *splits, "--output-dir", str(tmp / "fit")],
            "ablate": ["ablate", *splits, "--output", str(tmp / "ablation.csv")],
            "report": ["report", "--report", str(deep), "--output-dir", str(tmp / "charts")],
            "config": [*score, "--config", str(deep)],
            "convert-calibri": ["convert-calibri", "--source", str(deep), "--output", converted],
        }
        outputs = {}
        with mock.patch.multiple(data_module, PARALLEL_MIN_BYTES=0, _cpus=lambda: parts):
            for name, args in commands.items():
                result = run(args)
                assert result.exit_code == 4, (name, result.output)
                outputs[name] = result.output
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return outputs

    def refusals(self, deep, reason):
        """What each command of :meth:`run_all` says of a document refused for ``reason``."""
        at_line_2 = f"error: malformed JSON: {reason} [line 2]\n"
        in_report = "JSON nested too deeply" if reason == "nested too deeply" else reason
        return {
            "score": at_line_2,
            "split": at_line_2,
            "fit-eval": at_line_2,
            "ablate": at_line_2,
            "report": f"error: malformed report: {in_report}\n",
            "config": f"error: config file is not valid JSON: {reason}\n",
            "convert-calibri": f"error: {deep} line 1: malformed JSON: {reason}\n",
        }

    @settings(max_examples=20, deadline=None)
    @given(
        depth=st.integers(1, 300) | st.integers(300, 5000) | st.integers(100_000, 120_000),
        kind=st.sampled_from(["array", "object"]),
        parts=st.sampled_from([1, 3]),
    )
    @example(depth=100_000, kind="array", parts=3)
    def test_depth(self, depth, kind, parts):
        """Shallow documents decode; deep ones are refused by name; none crashes."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            outputs = self.run_all(tmp, nested(depth, kind), parts)
            too_deep = self.refusals(tmp / "deep.json", "nested too deeply")
        for name, output in outputs.items():
            if depth <= 300:
                assert output != too_deep[name]
            elif depth >= 100_000:
                assert output == too_deep[name]
            else:
                assert "nested" not in output or output == too_deep[name]

    @pytest.mark.skipif(INT_DIGITS == 0, reason="integer conversion is not limited")
    @settings(max_examples=12, deadline=None)
    @given(
        digits=st.integers(1, 400) | st.integers(INT_DIGITS - 3, INT_DIGITS + 3)
        | st.integers(INT_DIGITS + 1, 3 * INT_DIGITS),
        sign=st.sampled_from(["", "-"]),
        parts=st.sampled_from([1, 3]),
    )
    @example(digits=INT_DIGITS, sign="", parts=3)
    @example(digits=INT_DIGITS + 1, sign="", parts=3)
    @example(digits=INT_DIGITS + 1, sign="-", parts=1)
    def test_integer_digits(self, digits, sign, parts):
        """An integer literal decodes up to the conversion limit and is refused by name past it."""
        literal = sign + "9" * digits
        reason = int_limit_reason(literal)
        assert (reason is None) == (digits <= INT_DIGITS)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            outputs = self.run_all(tmp, literal, parts)
            refused = self.refusals(tmp / "deep.json", reason)
        for name, output in outputs.items():
            if reason is None:
                assert "integer string conversion" not in output, (name, output)
            else:
                assert output == refused[name]


def traced_cli_names():
    """The ``codecal.cli`` names that ``bench/traced.py`` wraps in spans."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "traced.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "CLI_SPANS":
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("bench/traced.py has no CLI_SPANS")


# The names of codecal.cli that the benchmark's traced replay and these
# tests replace, and the module each comes from.
PATCHED_NAMES = {
    "assign_problem_splits": "data",
    "load_scored": "scoring",
    "fit_platt": "calibrators",
    "fit_histogram_binning": "calibrators",
    "fit_gcur_linear": "calibrators",
    "fit_gcur_logistic": "calibrators",
    "fit_ighb": "calibrators",
    "fit_iglb": "calibrators",
    "model_to_json": "calibrators",
    "evaluate": "metrics",
    "reliability_chart": "svg",
    "group_chart": "svg",
    "_calibrate": "cli",
}

# Replaces each name with a counting wrapper before any command runs, as
# bench/traced.py does, then runs the commands and prints the counts.
# With "getattr" the wrapped function is read from codecal.cli, as the
# replay reads it; with "source" from its own module.
PATCHED_RUN = """
import importlib, json, sys
import codecal.cli as cli
names, read, commands = json.loads(sys.argv[1])
calls = dict.fromkeys(names, 0)

def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name, module in names.items():
    source = cli if read == "getattr" else importlib.import_module("codecal." + module)
    setattr(cli, name, counted(name, getattr(source, name)))
for args in commands:
    cli.main(args, standalone_mode=False)
print(json.dumps(calls))
"""


class TestPatchedNames:
    def test_every_traced_name_is_covered(self):
        """Each traced name is patched below, or is one codecal.cli does not have."""
        missing = [name for name in traced_cli_names() if name not in PATCHED_NAMES]
        assert [name for name in missing if hasattr(cli_module, name)] == []

    @pytest.mark.parametrize("read", ["getattr", "source"])
    def test_wrapper_set_before_a_command_is_called(self, pipeline, tmp_path, read):
        """A wrapper set on codecal.cli before a command runs is what the command calls."""
        commands = [
            ["split", "--input", str(pipeline.parent / "scored.jsonl"), "--output-dir", "splits"],
            fit_eval_args(pipeline, tmp_path / "fit"),
            ["report", "--report", str(tmp_path / "fit" / "report_iglb.json"), "--output-dir", "c"],
        ]
        args = json.dumps([PATCHED_NAMES, read, commands])
        done = subprocess.run(
            [sys.executable, "-c", PATCHED_RUN, args],
            cwd=tmp_path,
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        calls = json.loads(done.stdout.splitlines()[-1])
        assert [name for name, count in calls.items() if count == 0] == []


ABLATE_SUBSETS = [
    "complexity",
    "complexity+language",
    "complexity+language+length",
    "complexity+length",
    "language",
    "language+length",
    "length",
]


class TestAblateCommand:
    def test_subset_grid(self, pipeline, tmp_path):
        out = tmp_path / "ablation.csv"
        result = run(
            [
                "ablate",
                "--train",
                str(pipeline / "train.jsonl"),
                "--val",
                str(pipeline / "val.jsonl"),
                "--test",
                str(pipeline / "test.jsonl"),
                "--methods",
                "platt,gcur_linear",
                "--complexity",
                "difficulty_label",
                "--grid-m",
                "10",
                "--output",
                str(out),
            ]
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        assert rows[0] == ["method", "groups", "bss"]
        assert [r[1] for r in rows[1:]] == [s for s in ABLATE_SUBSETS for _ in range(2)]
        # A global method ignores the grouping, so its score is constant
        # across subsets.
        platt_scores = {r[2] for r in rows[1:] if r[0] == "platt"}
        assert len(platt_scores) == 1

    def test_no_categories_rejected(self, pipeline, tmp_path):
        result = run(
            [
                "ablate",
                "--train",
                str(pipeline / "train.jsonl"),
                "--val",
                str(pipeline / "val.jsonl"),
                "--test",
                str(pipeline / "test.jsonl"),
                "--no-language",
                "--length-metrics",
                "none",
                "--output",
                str(tmp_path / "a.csv"),
            ]
        )
        assert result.exit_code == 4


def split_copy(pipeline, folder, columns=True):
    """A copy of the pipeline's splits in ``folder``, with or without their column files."""
    folder.mkdir()
    for name in ("train", "val", "test"):
        path = pipeline / f"{name}.jsonl"
        (folder / path.name).write_bytes(path.read_bytes())
        if columns:
            (folder / f"{path.name}{COLUMNS_SUFFIX}").write_bytes(columns_of(path).read_bytes())
    return folder


class TestColumnFiles:
    """fit-eval and ablate write and print the same bytes from column files as from JSON."""

    FIT = ("--complexity", "branch_heuristic", "--grid-m", "10")

    def fit_and_ablate(self, splits, cwd, json_read=True):
        """Exit code and output of fit-eval and ablate over ``splits``, then every file they wrote.

        Without ``json_read`` every split must come from its column file.
        """
        cwd.mkdir()
        names = ("train", "val", "test")
        inputs = [x for name in names for x in (f"--{name}", str(splits / f"{name}.jsonl"))]
        commands = [
            ["fit-eval", *inputs, *self.FIT, "--output-dir", str(cwd / "fit")],
            ["ablate", *inputs, *self.FIT, "--output", str(cwd / "ablation.csv")],
        ]
        results = []
        with contextlib.ExitStack() as stack:
            if not json_read:
                stack.enter_context(
                    mock.patch.object(scoring_module, "read_ranges", side_effect=AssertionError)
                )
            for args in commands:
                result = runner.invoke(main, args, catch_exceptions=False)
                output = result.output.replace(str(cwd), "<out>").replace(str(splits), "<in>")
                results.append((result.exit_code, output))
        files = {p.relative_to(cwd): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        return results, files

    def test_same_outputs_without_or_with_unmatched_column_files(self, pipeline, tmp_path):
        splits = split_copy(pipeline, tmp_path / "splits")
        want = self.fit_and_ablate(splits, tmp_path / "columns", json_read=False)
        assert [code for code, _ in want[0]] == [0, 0]
        assert len(want[1]) > 20
        bare = split_copy(pipeline, tmp_path / "bare", columns=False)
        assert self.fit_and_ablate(bare, tmp_path / "json") == want
        # A header that describes another file.
        stale = split_copy(pipeline, tmp_path / "stale")
        other = columns_of(pipeline / "test.jsonl").read_bytes()
        columns_of(stale / "val.jsonl").write_bytes(other)
        assert self.fit_and_ablate(stale, tmp_path / "stale_out") == want

    def test_jsonl_edited_in_place_is_read_as_json(self, pipeline, tmp_path):
        """An edit that keeps the size changes only the checksum."""
        edited = {}
        for name, columns in (("edited", True), ("edited_bare", False)):
            splits = split_copy(pipeline, tmp_path / name, columns)
            test = splits / "test.jsonl"
            text = test.read_bytes()
            test.write_bytes(text.replace(b'"label": 1', b'"label": 0', 5))
            assert len(test.read_bytes()) == len(text)
            edited[name] = self.fit_and_ablate(splits, tmp_path / f"{name}_out")
        assert edited["edited"] == edited["edited_bare"]
        original = self.fit_and_ablate(split_copy(pipeline, tmp_path / "original"), tmp_path / "out")
        assert edited["edited"][1] != original[1]

    @pytest.mark.parametrize(
        "change",
        [
            lambda text: text[:-7],
            lambda text: b"{" + text,
            lambda text: text.replace(b'"rows"', b'"rowz"', 1),
        ],
        ids=["truncated", "malformed-header", "unknown-header-key"],
    )
    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_malformed_column_file_exits_4_naming_it(self, pipeline, tmp_path, change, command):
        splits = split_copy(pipeline, tmp_path / "splits")
        columns = columns_of(splits / "val.jsonl")
        columns.write_bytes(change(columns.read_bytes()))
        args = swapped_split_args(command, splits, tmp_path / "out", "val", splits / "val.jsonl")
        result = run(args)
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: ") and f"column file {columns}" in result.output
        assert not (tmp_path / "out").exists()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_byte_of_the_body_changed_exits_4(self, pipeline, data):
        """split, fit-eval and ablate each refuse a column file with any one body byte changed.

        Its header still matches its JSONL file; crc32 detects every
        change confined to one byte.
        """
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            splits = split_copy(pipeline, tmp / "splits")
            val, columns = splits / "val.jsonl", columns_of(splits / "val.jsonl")
            header, body = columns.read_bytes().split(b"\n", 1)
            at = data.draw(st.integers(0, len(body) - 1), label="at")
            byte = body[at] ^ data.draw(st.integers(1, 255), label="xor")
            columns.write_bytes(header + b"\n" + body[:at] + bytes([byte]) + body[at + 1 :])
            runs = [["split", "--input", str(val), "--output-dir", str(tmp / "out")]]
            for command in ("fit-eval", "ablate"):
                runs.append(swapped_split_args(command, splits, tmp / "out", "val", val))
            for args in runs:
                result = run(args)
                assert result.exit_code == 4, (args[0], result.output)
                assert result.output.startswith("error: ")
                assert f"column file {columns}" in result.output
                assert not (tmp / "out").exists()

    def test_flipped_labels_exit_4(self, tmp_path):
        """A test split's column file with 200 labels flipped, its header matching its JSONL."""
        records, scored, splits = (tmp_path / name for name in ("in.jsonl", "scored.jsonl", "s"))
        write_synth(records, n=1200, seed=11)
        assert run(["score", "--input", str(records), "--output", str(scored)]).exit_code == 0
        assert run(["split", "--input", str(scored), "--output-dir", str(splits)]).exit_code == 0
        test, columns = splits / "test.jsonl", columns_of(splits / "test.jsonl")
        header, body = columns.read_bytes().split(b"\n", 1)
        body = bytearray(body)
        assert json.loads(header)["rows"] >= 200
        for row in range(200):
            body[row * scoring_module._HEAD.size + 8] ^= 1  # the label follows p_hat's 8 bytes
        columns.write_bytes(header + b"\n" + body)
        fit = run(fit_eval_args(splits, tmp_path / "out", ("--methods", "platt")))
        split = run(["split", "--input", str(test), "--output-dir", str(tmp_path / "t")])
        problem = "has heads or strings that do not match its body_crc32"
        assert (fit.exit_code, fit.output) == (4, f"error: column file {columns} {problem}\n")
        assert (split.exit_code, split.output) == (fit.exit_code, fit.output)


def subset_name(cfg):
    """The ablate subset a grouping config stands for."""
    categories = ["complexity"] if cfg.complexity_source != "none" else []
    categories += ["language"] if cfg.use_language else []
    categories += ["length"] if cfg.length_metrics else []
    return "+".join(categories)


class TestAblateInProcesses:
    """Ablate's subsets, fitted in several processes, report as if fitted in one."""

    def ablate(self, pipeline, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
        out = tmp_path / f"ablation{cpus}.csv"
        args = swapped_split_args("ablate", pipeline, out, "train", pipeline / "train.jsonl")
        args[args.index("--methods") + 1] = "platt,gcur_linear,histogram"
        result = runner.invoke(main, [*args, "--complexity", "difficulty_label"])
        return result.exit_code, result.stderr, out

    @pytest.mark.parametrize("bad", [3, 4], ids=["parent", "child"])
    def test_first_error_in_subset_order(self, pipeline, tmp_path, monkeypatch, bad):
        """With 3 processes subset 3 is the parent's and subset 4 a child's."""
        real = cli_module._calibrate

        def calibrate(values, grid, splits, cfg, methods):
            name = subset_name(cfg)
            if ABLATE_SUBSETS.index(name) == bad:
                raise DataError(f"grouping broke on {name}")
            grouping, test_groups, results = real(values, grid, splits, cfg, methods)
            failed = ("gcur_linear", DataError(f"no fit on {name}"), None)
            return grouping, test_groups, [failed if r[0] == failed[0] else r for r in results]

        monkeypatch.setattr(cli_module, "_calibrate", calibrate)
        want = "".join(
            f"gcur_linear on {name} failed: no fit on {name}\n" for name in ABLATE_SUBSETS[:bad]
        )
        want += f"error: grouping broke on {ABLATE_SUBSETS[bad]}\n"
        for cpus in (1, 3):
            code, stderr, out = self.ablate(pipeline, tmp_path, monkeypatch, cpus)
            assert (code, stderr) == (4, want)
            assert not out.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_groupless_methods_fit_once(self, pipeline, tmp_path, monkeypatch):
        calls = []

        def fit_platt(*args):
            calls.append(os.getpid())
            raise DataError("platt refused")

        monkeypatch.setattr(cli_module, "fit_platt", fit_platt)
        code, stderr, out = self.ablate(pipeline, tmp_path, monkeypatch, 3)
        assert code == 0
        assert calls == [os.getpid()]
        assert stderr == "".join(
            f"platt on {name} failed: platt refused\n" for name in ABLATE_SUBSETS
        ) + f"wrote {out}\n"
        rows = read_csv(out)[1:]
        assert [row[0] for row in rows] == ["platt", "gcur_linear", "histogram"] * 7
        assert {row[2] for row in rows[::3]} == {"failed"}
        assert len({row[2] for row in rows[2::3]}) == 1


def write_many_groups(directory, n=30000, seed=5):
    """Scored train/val/test splits (60/20/20) that difficulty-label complexity cuts into 24 groups.

    Ten languages, eight difficulty labels and short or long code give
    the groups; each (difficulty, length) block has its own accuracy, so
    the scores are miscalibrated per group.
    """
    rng = np.random.default_rng(seed)
    blocks = tuple(
        Block(f"lvl{d}-{band}", 1 / 16, float(rng.uniform(0.2, 0.9)), ("uniform", 0.3, 0.8))
        for d in range(8)
        for band in ("short", "long")
    )
    languages = tuple(f"lang{i}" for i in range(10))
    samples, _ = generate(SynthSpec(blocks=blocks, n_samples=n, seed=seed, languages=languages))
    files = {name: open(directory / f"{name}.jsonl", "w") for name in ("train", "val", "test")}
    with files["train"], files["val"], files["test"]:
        for i, sample in enumerate(samples):
            difficulty, band = sample.difficulty.split("-")
            obj = sample.to_dict()
            obj.update(difficulty=difficulty, method="avg_prob")
            obj.update(code_text="x = 1\n" * (3 if band == "short" else 12 + i % 4))
            obj["p_hat"] = math.exp(sample.token_logprobs[0])
            name = "train" if i % 5 < 3 else ("val", "test")[i % 5 - 3]
            files[name].write(json.dumps(obj) + "\n")


class TestCpuCount:
    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs at least two CPUs",
    )
    def test_outputs_do_not_depend_on_cpus(self, tmp_path):
        """BLAS that split its reductions by CPU count changed gcur_logistic's bytes."""
        write_many_groups(tmp_path)
        env = {k: v for k, v in cli_env().items() if not k.endswith("_NUM_THREADS")}
        cpu = min(os.sched_getaffinity(0))
        inputs = [x for name in ("train", "val", "test") for x in (f"--{name}", f"{name}.jsonl")]
        inputs += ["--complexity", "difficulty_label"]
        for where, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            out = tmp_path / where
            for args in (["fit-eval", "--output-dir", str(out)], ["ablate", "--output", "a.csv"]):
                run_cli([*args, *inputs], tmp_path, env=env, preexec_fn=pin)
            (tmp_path / "a.csv").rename(out / "ablation.csv")
        one, every = tmp_path / "one", tmp_path / "all"
        files = sorted(p.name for p in one.iterdir())
        assert files == sorted(p.name for p in every.iterdir())
        assert "model_gcur_logistic.json" in files
        for name in files:
            assert (one / name).read_bytes() == (every / name).read_bytes(), name


def skipped_group(**stats):
    """A group summary the charts skip, so only the report's own checks can refuse it."""
    return dict(stats, degenerate=True)


def group_a(gasce, **stats):
    """Report fields with one group ``a``: all three samples of TestReportCommand's report
    as fit-eval writes them, but for ``stats``; ``gasce`` is the per_group_gasce mapping."""
    summary = {"count": 3, "mean_conf": 0.6, "accuracy": 2 / 3, "degenerate": False, **stats}
    return {"group_summary": {"a": summary}, "per_group_gasce": gasce}


class TestReportCommand:
    def test_writes_both_charts(self, pipeline, tmp_path):
        outdir = tmp_path / "fit"
        run(fit_eval_args(pipeline, outdir, ("--methods", "platt", "--grid-m", "10")))
        charts = tmp_path / "charts"
        result = run(
            ["report", "--report", str(outdir / "report_platt.json"), "--output-dir", str(charts)]
        )
        assert result.exit_code == 0
        rel = charts / "report_platt_reliability.svg"
        grp = charts / "report_platt_groups.svg"
        assert rel.is_file() and grp.is_file()
        assert rel.read_text().startswith("<svg")
        assert grp.read_text().startswith("<svg")

    def test_missing_report_is_io_error(self, tmp_path):
        result = run(
            ["report", "--report", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path)]
        )
        assert result.exit_code == 3

    def render_broken(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        return run(["report", "--report", str(path), "--output-dir", str(tmp_path / "charts")])

    def valid_report(self):
        return json.loads(evaluate([0.2, 0.7, 0.9], [0, 1, 1], BinGrid(10)).to_json())

    def test_missing_reliability_is_data_error(self, tmp_path):
        payload = self.valid_report()
        del payload["reliability"]
        result = self.render_broken(tmp_path, json.dumps(payload))
        assert result.exit_code == 4
        assert "error: report is missing field 'reliability'" in result.output

    def test_malformed_json_is_data_error(self, tmp_path):
        result = self.render_broken(tmp_path, '{"schema_version": 1, "ece": ')
        assert result.exit_code == 4
        assert "error: malformed report:" in result.output

    def test_short_reliability_row_is_data_error(self, tmp_path):
        payload = self.valid_report()
        payload["reliability"][0] = payload["reliability"][0][:2]
        result = self.render_broken(tmp_path, json.dumps(payload))
        assert result.exit_code == 4
        assert "error: report reliability rows must be [bin, count, conf, acc]" in result.output

    def test_groups_as_fit_eval_writes_them_load(self, tmp_path):
        """``group_a``'s defaults are valid, so each case below is refused for its change."""
        change = group_a({"a": 0.0})
        change["group_summary"]["b"] = skipped_group(count=0, mean_conf=None, accuracy=None)
        result = self.render_broken(tmp_path, json.dumps({**self.valid_report(), **change}))
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_m": "x"},
            {"group_summary": {"a": {}}},
            {"reliability": [["a", "b", "c", "d"]]},
            # No positive count to scale bar opacity by.
            {"reliability": [[1, -1, 0.5, 0.5], [2, 0, 0.5, 0.5]]},
            # An integer too large for a float coordinate.
            {"reliability": [[1, 1, 0.5, 10**400]]},
            # Non-finite values and rates outside [0, 1].
            {"reliability": [[1, 1, 0.5, math.nan]]},
            {"reliability": [[1, 1, 0.5, 5.0]]},
            {"reliability": [[1, 1, -0.1, 0.5]]},
            {"reliability": [[1, math.inf, 0.5, 0.5]]},
            {"group_summary": {"a": {"count": 2, "mean_conf": math.nan, "accuracy": 0.5}}},
            {"group_summary": {"a": {"count": 2, "mean_conf": 0.5, "accuracy": 1.5}}},
            {"group_summary": {"a": {"count": math.nan, "mean_conf": None, "accuracy": None}}},
            # Values fit-eval never writes: the report holds 3 samples on a grid of 10.
            {"n_samples": "three"},
            {"n_samples": -1},
            {"n_samples": True},
            {"grid_m": 2.5},
            {"grid_m": 1},
            {"grid_m": MAX_GRID_M + 1},
            {"reliability": [[True, 1, 0.5, 0.5]]},
            {"reliability": [[1, True, 0.5, 0.5]]},
            {"reliability": [[0, 1, 0.5, 0.5]]},
            {"reliability": [[11, 1, 0.5, 0.5]]},
            {"reliability": [[1, 4, 0.5, 0.5]]},
            {"reliability": [[1.0, 1, 0.5, 0.5]]},
            {"reliability": [[1, 1, True, 0.5]]},
            {"group_summary": {"a": skipped_group(count=False, mean_conf=None, accuracy=None)}},
            {"group_summary": {"a": skipped_group(count=1, mean_conf=None, accuracy=0.5)}},
            {"ece": math.nan},
            {"brier": "0.1"},
            {"base_rate": True},
            {"bss": "inf"},
            {"bss": "0.5"},
            {"bss": False},
            {"per_group_gasce": {"a": math.inf}},
            # Rows fit-eval never writes: a repeated, a descending or an empty
            # bin, and counts that do not sum to n_samples (3).
            {"reliability": [[3, 1, 0.2, 0.0], [3, 1, 0.2, 1.0]]},
            {"reliability": [[3, 1, 0.2, 0.0], [3, 2, 0.2, 1.0]]},
            {"reliability": [[8, 2, 0.7, 1.0], [3, 1, 0.2, 0.0]]},
            {"reliability": [[2, 0, 0.2, 0.0], [3, 3, 0.2, 1.0]]},
            {"reliability": [[3, 2, 0.2, 0.0]]},
            {"reliability": []},
            # Group summaries fit-eval never writes: degenerate is the JSON
            # boolean count == 0, the rates are null exactly then, and
            # per_group_gasce holds a value >= 0 for each other group.
            group_a({"a": 0.0}, degenerate="no"),
            group_a({"a": 0.0}, degenerate=0),
            group_a({}, count=0),
            group_a({}, count=0, degenerate=True),
            group_a({}, degenerate=True, mean_conf=None, accuracy=None),
            group_a({"a": 0.0}, mean_conf=None, accuracy=None),
            group_a({"a": -0.01}),
            group_a({}),
            group_a({"a": 0.0, "b": 0.0}),
            {"per_group_gasce": {"b": 0.01}},
            # Keys fit-eval never writes, at the top level and in a group summary.
            {"bogus": 1},
            group_a({"a": 0.0}, bogus=1),
        ],
    )
    def test_mistyped_values_are_data_errors(self, tmp_path, change):
        result = self.render_broken(tmp_path, json.dumps({**self.valid_report(), **change}))
        assert result.exit_code == 4
        assert "error: " in result.output
        assert not (tmp_path / "charts").exists()


class TestConvertCommand:
    def aliased_line(self, i, logprobs=(-0.2, -0.1), extra=None):
        obj = {
            "task_id": f"t{i // 2}",
            "gen_id": f"g{i}",
            "lang": "python",
            "logprobs": list(logprobs),
            "passed": i % 2 == 0,
            "level": "easy",
            "code": "print(1)",
        }
        if extra:
            obj.update(extra)
        return json.dumps(obj)

    def test_aliases_resolved_and_mapping_written(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text("\n".join(self.aliased_line(i) for i in range(6)) + "\n")
        out = tmp_path / "converted.jsonl"
        result = run(["convert-calibri", "--source", str(src), "--output", str(out)])
        assert result.exit_code == 0
        samples = load_records(str(out))
        assert len(samples) == 6
        sample = samples[0]
        assert sample.problem_id == "t0"
        assert sample.language == "python"
        assert sample.label in (0, 1)
        assert sample.difficulty == "easy"
        mapping = json.loads((out.parent / "converted.jsonl.mapping.json").read_text())
        assert mapping["fields"]["problem_id"] == ["task_id"]
        assert mapping["fields"]["label"] == ["passed"]
        assert mapping["converted"] == 6
        assert mapping["skipped_missing_logprobs"] == 0

    def test_rows_without_logprobs_skipped(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        lines = [self.aliased_line(0), self.aliased_line(1, logprobs=())]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "converted.jsonl"
        result = run(["convert-calibri", "--source", str(src), "--output", str(out)])
        assert result.exit_code == 0
        assert len(load_records(str(out))) == 1
        mapping = json.loads((out.parent / "converted.jsonl.mapping.json").read_text())
        assert mapping["skipped_missing_logprobs"] == 1

    def test_unknown_layout_rejected(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text(json.dumps({"prompt": "x", "score": 1}) + "\n")
        result = run(
            ["convert-calibri", "--source", str(src), "--output", str(tmp_path / "o.jsonl")]
        )
        assert result.exit_code == 4
        assert "expected" in result.output or result.exit_code == 4

    def test_directory_source(self, tmp_path):
        srcdir = tmp_path / "dump"
        srcdir.mkdir()
        (srcdir / "b.jsonl").write_text(self.aliased_line(2) + "\n")
        (srcdir / "a.jsonl").write_text(self.aliased_line(0) + "\n")
        out = tmp_path / "converted.jsonl"
        result = run(["convert-calibri", "--source", str(srcdir), "--output", str(out)])
        assert result.exit_code == 0
        mapping = json.loads((out.parent / "converted.jsonl.mapping.json").read_text())
        assert [Path(p).name for p in mapping["source_files"]] == ["a.jsonl", "b.jsonl"]

    def test_duplicate_sample_ids_rejected(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text(self.aliased_line(0) + "\n" + self.aliased_line(0) + "\n")
        result = run(
            ["convert-calibri", "--source", str(src), "--output", str(tmp_path / "o.jsonl")]
        )
        assert result.exit_code == 4
        assert f"{src} line 2: duplicate sample_id 'g0'" in result.output

    def test_rejected_record_names_source_file_and_line(self, tmp_path):
        # Line 1 is skipped for its empty logprobs, so the bad record is
        # the second one converted but sits on line 3 of the source.
        src = tmp_path / "raw.jsonl"
        lines = [self.aliased_line(1, logprobs=()), "", self.aliased_line(2, logprobs=(0.5,))]
        src.write_text("\n".join(lines) + "\n")
        result = run(
            ["convert-calibri", "--source", str(src), "--output", str(tmp_path / "o.jsonl")]
        )
        assert result.exit_code == 4
        assert f"{src} line 3: converted record rejected: token logprob 0.5" in result.output
        assert "sample_id='g2'" in result.output

    def convert_lines(self, tmp_path, lines):
        src = tmp_path / "raw.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.jsonl"
        return src, out, run(["convert-calibri", "--source", str(src), "--output", str(out)])

    def test_integer_ids_converted(self, tmp_path):
        _, out, result = self.convert_lines(
            tmp_path, [self.aliased_line(0, extra={"task_id": 7, "gen_id": 70})]
        )
        assert result.exit_code == 0, result.output
        (sample,) = load_records(str(out))
        assert (sample.problem_id, sample.sample_id) == ("7", "70")

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"task_id": None}, "problem_id"),
            ({"gen_id": {"x": 1}}, "sample_id"),
            ({"task_id": True}, "problem_id"),
        ],
    )
    def test_non_string_ids_rejected(self, tmp_path, extra, field):
        lines = [self.aliased_line(i, extra=extra) for i in range(2)]
        src, out, result = self.convert_lines(tmp_path, lines)
        assert result.exit_code == 4, result.output
        want = f"error: {src} line 1: converted record rejected: {field} must be a non-empty string"
        assert result.output.startswith(want)
        assert not out.exists()

    def test_missing_source_rejected(self, tmp_path):
        result = run(
            [
                "convert-calibri",
                "--source",
                str(tmp_path / "nowhere"),
                "--output",
                str(tmp_path / "o.jsonl"),
            ]
        )
        assert result.exit_code == 4
