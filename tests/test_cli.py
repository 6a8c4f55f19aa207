import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import codecal
from codecal.binning import BinGrid
import codecal.cli as cli_module
from codecal.cli import main
from codecal.data import load_records, save_records
from codecal.groups import GroupSet
from codecal.metrics import evaluate
from codecal.scoring import load_scored
from codecal.synthgen import Block, SynthSpec, generate

from malformed import edited, json_paths, json_prefixes, json_values, non_objects

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
    dataset, _ = generate(spec)
    for i, sample in enumerate(dataset.samples):
        sample.code_text = "if x:\n    y += 1\n" * (i % 5) + "return y\n"
    save_records(dataset, str(path))
    return dataset


def run(args):
    return runner.invoke(main, args, catch_exceptions=False)


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
        dataset = write_synth(records, n=60)
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
    def run_stages(self, pipeline, cwd, parts, records):
        """stdout plus stderr of score, split, fit-eval and ablate, run with outputs in ``cwd``."""
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(codecal.__file__).parent.parent))
        inputs = [
            x
            for name in ("train", "val", "test")
            for x in (f"--{name}", str(pipeline / f"{name}.jsonl"))
        ]
        fit = ("--complexity", "difficulty_label", "--grid-m", "10")
        stages = [
            ["score", "--input", str(records), "--output", "scored.jsonl"],
            ["score", "--input", str(records), "--output", "code.jsonl", *CODE_SKIP],
            ["split", "--input", str(pipeline.parent / "scored.jsonl"), "--output-dir", "splits"],
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
        serial, forked = tmp_path / "serial", tmp_path / "forked"
        errs = self.run_stages(pipeline, forked, 3, records)
        assert errs == self.run_stages(pipeline, serial, 1, records)
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
        dataset, _ = generate(spec)
        save_records(dataset, str(records))
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

    @pytest.mark.parametrize("config", [{"language": "false"}, {"alpha": "x"}, {"grid_m": []}])
    def test_mistyped_config_value_is_data_error(self, pipeline, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run(fit_eval_args(pipeline, tmp_path / "out", ("--config", str(cfg))))
        assert result.exit_code == 4
        assert "config value" in result.output

    @pytest.mark.parametrize("command", ["fit-eval", "ablate"])
    def test_mixed_scoring_methods_rejected(self, pipeline, tmp_path, command):
        tail_test = tmp_path / "test.jsonl"
        rescore = ["score", "--input", str(pipeline / "test.jsonl"), "--output", str(tail_test)]
        assert run([*rescore, "--method", "tail_prob"]).exit_code == 0
        result = run(swapped_split_args(command, pipeline, tmp_path / "out", "test", tail_test))
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
        GroupSet(["ALL", "a", "b"], [[1, 1, 0], [1, 0, 1], [1, 1, 0], [1, 0, 0]]),
    ).to_json()
)


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
    )
    def test_malformed_fit_eval_config(self, pipeline, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(text, encoding="utf-8")
            result = run(fit_eval_args(pipeline, Path(tmp) / "out", ("--config", str(cfg))))
            assert result.exit_code in (2, 3, 4), result.output
            assert not (Path(tmp) / "out").exists()

    def render(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            path.write_text(text, encoding="utf-8")
            return run(["report", "--report", str(path), "--output-dir", str(Path(tmp) / "c")])

    @settings(max_examples=60, deadline=None)
    @given(
        text=json_prefixes(VALID_REPORT)
        | non_objects()
        | st.sampled_from(sorted(VALID_REPORT)).map(
            lambda key: edited(VALID_REPORT, (key,), drop=True)
        )
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
        subsets = [
            "complexity",
            "complexity+language",
            "complexity+language+length",
            "complexity+length",
            "language",
            "language+length",
            "length",
        ]
        assert [r[1] for r in rows[1:]] == [s for s in subsets for _ in range(2)]
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
        dataset = load_records(str(out))
        assert len(dataset.samples) == 6
        sample = dataset.samples[0]
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
        assert len(load_records(str(out)).samples) == 1
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
