"""Command line pipeline: score, split, fit-eval, ablate, report, convert.

Every command is deterministic: rerunning with the same inputs and
flags reproduces output files byte for byte.  Exit statuses separate
usage problems (2, from click), IO failures (3), and data errors (4).
"""

import csv
import functools
import itertools
import json
import os
import stat
import sys
from dataclasses import replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import data
from .data import (
    SplitSpec,
    assign_problem_splits,
    atomic_outputs,
    fork_tasks,
    iter_lines,
    parse_record,
    read_columns,
    save_records,
)
from .errors import ConvertError, DataError, RecordError, schema_fields
from .report import DEFAULT_EPSILON, MAX_GRID_M, NEG_INF, EvalReport
from .scoring import METHOD_NAMES as SCORE_METHODS
from .scoring import (
    COLUMNS_SUFFIX,
    ConfidenceMethod,
    load_scored,
    open_columns,
    score_file,
)
from .svg import group_chart, reliability_chart

METHOD_NAMES = ("platt", "histogram", "gcur_linear", "gcur_logistic", "ighb", "iglb")
GROUPLESS_METHODS = ("platt", "histogram")

EXIT_IO = 3
EXIT_DATA = 4

# What fit-eval and ablate use of the modules that load numpy.  They are
# bound from the package's lazy exports only when one of those commands
# runs, so the others start without numpy.
_FIT_NAMES = (
    "BinGrid",
    "GroupingConfig",
    "GroupingModel",
    "brier_skill_score",
    "evaluate",
    "fit_gcur_linear",
    "fit_gcur_logistic",
    "fit_histogram_binning",
    "fit_ighb",
    "fit_iglb",
    "fit_platt",
    "model_to_json",
)


def _bind_fit_names() -> None:
    """Bind the names of ``_FIT_NAMES`` here; a name already bound, such as a wrapper, stays."""
    package = sys.modules[__package__]
    for name in _FIT_NAMES:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name: str):
    """A name of ``_FIT_NAMES`` that no command has bound yet."""
    if name not in _FIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_fit_names()
    return globals()[name]


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_DATA) from exc
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            raise SystemExit(EXIT_IO) from exc

    return wrapper


def _config_value(ctx: click.Context, param: click.Parameter, value):
    """Convert a config value as click converts the same value given as a flag.

    Flags take only JSON booleans; null stands only for a null default.
    """
    flag = isinstance(param.type, click.types.BoolParamType)
    if flag != isinstance(value, bool):
        need = "a JSON boolean" if flag else f"a {param.type.name}, not a JSON boolean"
        raise DataError(f"config value {param.name}={value!r} must be {need}")
    if flag or (value is None and param.default is None):
        return value
    try:
        return param.type_cast_value(ctx, value if isinstance(value, str) else json.dumps(value))
    except click.BadParameter as exc:
        raise DataError(f"config value {param.name}={value!r}: {exc.message}") from exc


def _merge_config(ctx: click.Context, config_path: str | None, values: dict) -> dict:
    """Fill defaulted parameters from a JSON config file; flags win.

    Every config value is type-checked, also one that a flag overrides.
    """
    if not config_path:
        return values
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except RecursionError:
            raise DataError("config file is not valid JSON: nested too deeply") from None
        except ValueError as exc:  # also bad UTF-8 and an integer too long to convert
            raise DataError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError("config file must hold a JSON object")
    unknown = sorted(set(config) - set(values))
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    params = {param.name: param for param in ctx.command.params}
    merged = dict(values)
    for key, value in config.items():
        value = _config_value(ctx, params[key], value)
        if ctx.get_parameter_source(key) == ParameterSource.DEFAULT:
            merged[key] = value
    return merged


def _check_choice(value: str, choices: tuple, what: str) -> str:
    if value not in choices:
        raise DataError(f"{what} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _parse_methods(raw: str) -> list[str]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise DataError("no calibration methods requested")
    for name in names:
        _check_choice(name, METHOD_NAMES, "method")
    if len(set(names)) != len(names):
        raise DataError("duplicate method names requested")
    return names


def _parse_length_metrics(raw: str) -> tuple:
    if raw in ("", "none"):
        return ()
    metrics = tuple(part.strip() for part in raw.split(",") if part.strip())
    for metric in metrics:
        _check_choice(metric, ("chars", "loc"), "length metric")
    return metrics


def _format_metric(value: float) -> str:
    return "-inf" if value == NEG_INF else repr(float(value))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@click.group()
def main() -> None:
    """Confidence calibration pipeline for code-generation samples."""


@main.command()
@click.option("--input", "input_path", required=True, help="Record JSONL to score.")
@click.option("--output", "output_path", required=True, help="Scored JSONL to write.")
@click.option(
    "--method",
    default="avg_prob",
    show_default=True,
    type=click.Choice(SCORE_METHODS),
    help="Scoring window.",
)
@click.option("--tail-k", default=40, show_default=True, help="Tail window size for tail_prob.")
@click.option("--skip-missing", is_flag=True, help="Drop unscorable samples instead of failing.")
@click.option("--config", "config_path", default=None, help="JSON config; flags take precedence.")
@click.pass_context
@_guarded
def score(ctx, input_path, output_path, config_path, **options) -> None:
    """Attach a raw confidence score to every record.

    Each input line is kept as it is, unknown keys and key order
    included, with "method" and "p_hat" appended.
    """
    values = _merge_config(ctx, config_path, options)
    conf = ConfidenceMethod(values["method"], tail_tokens=values["tail_k"])
    scored, skipped = score_file(input_path, output_path, conf, values["skip_missing"])
    click.echo(f"scored {scored} samples, skipped {skipped}", err=True)


def _problem_id(lineno: int, obj) -> tuple[str]:
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object", line=lineno)
    if "problem_id" not in obj:
        raise RecordError("missing problem_id", line=lineno)
    pid = obj["problem_id"]
    if not isinstance(pid, str) or not pid:
        raise RecordError("problem_id must be a non-empty string", line=lineno)
    return (pid,)


@main.command()
@click.option("--input", "input_path", required=True, help="Record JSONL to split.")
@click.option("--output-dir", required=True, help="Directory for train/val/test JSONL files.")
@click.option("--train", default=0.6, show_default=True, help="Train fraction.")
@click.option("--val", default=0.2, show_default=True, help="Validation fraction.")
@click.option("--test", default=0.2, show_default=True, help="Test fraction.")
@click.option("--seed", default=0, show_default=True, help="Hash seed fixing the split.")
@_guarded
def split(input_path, output_dir, train, val, test, seed) -> None:
    """Split records into train/val/test along problem boundaries.

    Lines pass through untouched, so already scored records keep their
    extra fields.  The problem ids come from the input's column file
    where one matches it, and from a first read of the input otherwise;
    the lines are then copied on a second read, so the input must be a
    regular file.  With a column file, each run of lines bound for one
    split is copied as bytes, and each split gets a column file too,
    holding the heads and strings of its lines.  The outputs replace
    their targets only when every line is written.
    """
    spec = SplitSpec(train=train, val=val, test=test, seed=seed)
    if not stat.S_ISREG(os.stat(input_path).st_mode):
        raise DataError(f"{input_path} is not a regular file, and split reads its input twice")
    names = ("train", "val", "test")
    # Outputs replace their targets only at the end, so an input inside
    # --output-dir is never truncated while it is read.
    paths = [os.path.join(output_dir, f"{name}.jsonl") for name in names]
    with open_columns(input_path) as columns:
        if columns is None:
            (problem_ids,) = read_columns(input_path, _problem_id, 1)
        else:
            problem_ids = columns.problem_ids()
        assignment = assign_problem_splits(problem_ids, spec)
        os.makedirs(output_dir, exist_ok=True)
        column_paths = [f"{path}{COLUMNS_SUFFIX}" for path in paths if columns is not None]
        with atomic_outputs(*paths, *column_paths) as handles:
            out = dict(zip(names, handles))
            if columns is not None:
                dests = [assignment[pid] for pid in problem_ids]
                column_out = dict(zip(names, handles[len(names) :]))
                counts = columns.route(input_path, dests, out, column_out)
            else:
                counts = dict.fromkeys(names, 0)
                seen = 0
                for _, line in iter_lines(input_path):
                    if seen < len(problem_ids):
                        name = assignment[problem_ids[seen]]
                        out[name].write((line.rstrip("\n") + "\n").encode("utf-8"))
                        counts[name] += 1
                    seen += 1
                if seen != len(problem_ids):
                    raise DataError(
                        f"{input_path} changed while it was being split: "
                        f"{len(problem_ids)} records on the first read, {seen} on the second"
                    )
    click.echo(
        f"train={counts['train']} val={counts['val']} test={counts['test']}", err=True
    )


def _fit_setup(ctx: click.Context, config_path: str | None, options: dict) -> tuple:
    """The options of ``fit-eval`` and ``ablate``, checked before any split is read.

    Returns the values merged with the config file, the method list,
    the bin grid and the grouping config.
    """
    _bind_fit_names()
    values = _merge_config(ctx, config_path, options)
    methods, grid = _parse_methods(values["methods"]), BinGrid(values["grid_m"])
    grouping = GroupingConfig(
        use_language=values["language"],
        length_metrics=_parse_length_metrics(values["length_metrics"]),
        complexity_source=values["complexity"],
        always_on=values["all_group"],
    )
    return values, methods, grid, grouping


def _load_splits(grouping: "GroupingConfig", *paths: str) -> list:
    """Load scored splits as columns, with the text features ``grouping`` reads.

    All splits must share one scoring method.
    """
    splits = [load_scored(path, grouping) for path in paths]
    methods = sorted(set().union(*(split.methods for split in splits)))
    if len(methods) > 1:
        raise DataError(f"splits were scored by different methods: {', '.join(methods)}")
    return splits


def _fit_one(name, grid, values, train, val, train_groups, val_groups):
    tp, ty = train.p_hat, train.labels
    if name == "platt":
        return fit_platt(tp, ty)
    if name == "histogram":
        return fit_histogram_binning(tp, ty, grid)
    if name == "gcur_linear":
        return fit_gcur_linear(tp, ty, train_groups)
    if name == "gcur_logistic":
        return fit_gcur_logistic(tp, ty, train_groups)
    if name == "ighb":
        return fit_ighb(tp, ty, train_groups, grid, alpha=values["alpha"])
    options = {"epsilon": values["epsilon"], "ls_loss": values["ls_loss"]}
    return fit_iglb(tp, ty, val.p_hat, val.labels, train_groups, val_groups, grid, **options)


def _fit_apply(name, grid, values, splits, groups):
    """Fit method ``name`` on train and apply it to test.

    ``groups`` holds the train, val and test groups, which groupless
    methods do not read.  Returns ``(name, model, calibrated test
    scores)``; a ``DataError`` of the fit or the apply takes the
    model's place, with None for the scores.
    """
    (train, val, test), (train_groups, val_groups, test_groups) = splits, groups
    try:
        model = _fit_one(name, grid, values, train, val, train_groups, val_groups)
        return name, model, model.apply(test.p_hat, test_groups)
    except DataError as exc:
        return name, exc, None


def _calibrate(values, grid, splits, cfg: "GroupingConfig", methods: list[str]):
    """Fit a grouping on train, group every split, and fit and apply each method.

    Returns the grouping, the test groups and the :func:`_fit_apply`
    result of each method.
    """
    grouping = GroupingModel.fit(splits[0].columns, cfg)
    groups = [grouping.apply(split.columns) for split in splits]
    results = [_fit_apply(name, grid, values, splits, groups) for name in methods]
    return grouping, groups[2], results


def _ablate_cell(result, labels) -> tuple[str, str | None]:
    """The BSS cell :func:`_fit_apply`'s result gives in ablation.csv, and its error message."""
    _, model, calibrated = result
    try:
        if isinstance(model, DataError):
            raise model
        return _format_metric(brier_skill_score(calibrated, labels)), None
    except DataError as exc:
        return "failed", str(exc)


_SHARED_FIT_OPTIONS = [
    click.option("--train", "train_path", required=True, help="Scored train JSONL."),
    click.option("--val", "val_path", required=True, help="Scored validation JSONL."),
    click.option("--test", "test_path", required=True, help="Scored test JSONL."),
    click.option(
        "--methods",
        default=",".join(METHOD_NAMES),
        show_default=True,
        help="Comma-separated calibration methods.",
    ),
    click.option("--grid-m", default=20, show_default=True, help=f"Grid bins, at most {MAX_GRID_M}."),
    click.option("--alpha", default=None, type=float, help="ighb budget; default 1/grid-m."),
    click.option(
        "--epsilon", default=DEFAULT_EPSILON, show_default=True, help="iglb region mass floor."
    ),
    click.option(
        "--ls-loss",
        default="ce",
        show_default=True,
        type=click.Choice(("ce", "brier")),
        help="iglb patch loss.",
    ),
    click.option("--language/--no-language", "language", default=True, show_default=True),
    click.option(
        "--length-metrics",
        default="chars,loc",
        show_default=True,
        help="Comma-separated length metrics (chars, loc) or 'none'.",
    ),
    click.option(
        "--complexity",
        default="none",
        show_default=True,
        type=click.Choice(("none", "difficulty_label", "branch_heuristic")),
        help="Complexity source.",
    ),
    click.option("--all-group/--no-all-group", "all_group", default=True, show_default=True),
    click.option("--config", "config_path", default=None, help="JSON config; flags win."),
]


def _with_options(options):
    def deco(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return deco


@main.command("fit-eval")
@_with_options(_SHARED_FIT_OPTIONS)
@click.option("--output-dir", required=True, help="Directory for models, reports, and tables.")
@click.pass_context
@_guarded
def fit_eval(
    ctx, train_path, val_path, test_path, config_path, output_dir, **options
) -> None:
    """Fit requested calibrators on train and evaluate them on test."""
    values, method_list, grid, cfg = _fit_setup(ctx, config_path, options)
    splits = _load_splits(cfg, train_path, val_path, test_path)
    test = splits[2]
    grouping, test_groups, results = _calibrate(values, grid, splits, cfg, method_list)
    os.makedirs(output_dir, exist_ok=True)
    out = functools.partial(os.path.join, output_dir)
    _write_text(out("grouping.json"), grouping.to_json() + "\n")
    rows = []
    for name, model, calibrated in [("uncalibrated", None, test.p_hat), *results]:
        if isinstance(model, DataError):
            click.echo(f"{name} failed: {model}", err=True)
            rows.append([name, "failed", "failed", "failed", "failed"])
            continue
        if model is not None:
            _write_text(out(f"model_{name}.json"), model_to_json(model) + "\n")
        report = evaluate(calibrated, test.labels, grid, test_groups)
        _write_text(out(f"report_{name}.json"), report.to_json() + "\n")
        _write_csv(
            out(f"reliability_{name}.csv"),
            ["bin", "count", "conf", "acc"],
            ([b, count, repr(conf), repr(acc)] for b, count, conf, acc in report.reliability),
        )
        metrics = (report.bss, report.accuracy, report.ece, report.brier)
        rows.append([name, *map(_format_metric, metrics)])
    _write_csv(out("comparison.csv"), ["method", "bss", "acc", "ece", "brier"], rows)
    click.echo(f"wrote {output_dir}/comparison.csv", err=True)


@main.command()
@_with_options(_SHARED_FIT_OPTIONS)
@click.option("--output", "output_path", required=True, help="Ablation CSV to write.")
@click.pass_context
@_guarded
def ablate(
    ctx, train_path, val_path, test_path, config_path, output_path, **options
) -> None:
    """Test BSS per method for every non-empty subset of group categories."""
    values, method_list, grid, base_cfg = _fit_setup(ctx, config_path, options)
    categories = []
    if base_cfg.complexity_source != "none":
        categories.append("complexity")
    if base_cfg.use_language:
        categories.append("language")
    if base_cfg.length_metrics:
        categories.append("length")
    if not categories:
        raise DataError("no group categories enabled, nothing to ablate")
    subsets = []
    for size in range(1, len(categories) + 1):
        subsets.extend(itertools.combinations(sorted(categories), size))
    subsets.sort(key=lambda subset: "+".join(subset))

    # Every subset's grouping reads a part of what the base config reads.
    splits = _load_splits(base_cfg, train_path, val_path, test_path)
    labels = splits[2].labels
    # Groupless methods give the same cell for every subset.
    groupless = {
        name: _ablate_cell(_fit_apply(name, grid, values, splits, (None,) * 3), labels)
        for name in method_list
        if name in GROUPLESS_METHODS
    }
    grouped = [name for name in method_list if name not in GROUPLESS_METHODS]
    procs = min(data._cpus(), len(subsets))

    def run(k):
        """Cells of subsets k, k + procs, ...; a grouping error ends the share."""
        cells = []
        for subset in subsets[k::procs]:
            cfg = replace(
                base_cfg,
                use_language="language" in subset,
                length_metrics=base_cfg.length_metrics if "length" in subset else (),
                complexity_source=base_cfg.complexity_source if "complexity" in subset else "none",
            )
            try:
                _, _, results = _calibrate(values, grid, splits, cfg, grouped)
            except DataError as exc:
                cells.append(exc)
                break
            cells.append({result[0]: _ablate_cell(result, labels) for result in results})
        return cells

    # A share stops at its first error, so the subsets it skipped all come after that error.
    shares = list(fork_tasks(procs, run, "fitting ablate subsets"))
    rows = []
    for i, subset in enumerate(subsets):
        cells = shares[i % procs][i // procs]
        if isinstance(cells, DataError):
            raise cells
        subset_name = "+".join(subset)
        cells = {**groupless, **cells}
        for name in method_list:
            bss, error = cells[name]
            if error is not None:
                click.echo(f"{name} on {subset_name} failed: {error}", err=True)
            rows.append([name, subset_name, bss])
    _write_csv(output_path, ["method", "groups", "bss"], rows)
    click.echo(f"wrote {output_path}", err=True)


@main.command()
@click.option("--report", "report_path", required=True, help="EvalReport JSON to render.")
@click.option("--output-dir", required=True, help="Directory for the SVG charts.")
@_guarded
def report(report_path, output_dir) -> None:
    """Render reliability and group charts from a report."""
    stem = Path(report_path).stem
    with schema_fields("report"):
        parsed = EvalReport.from_json(Path(report_path).read_text(encoding="utf-8"))
        reliability = reliability_chart(parsed, title=f"{stem}: accuracy per confidence bin")
        groups = group_chart(parsed, title=f"{stem}: group confidence vs accuracy")
    os.makedirs(output_dir, exist_ok=True)
    rel_path = os.path.join(output_dir, f"{stem}_reliability.svg")
    grp_path = os.path.join(output_dir, f"{stem}_groups.svg")
    _write_text(rel_path, reliability)
    _write_text(grp_path, groups)
    click.echo(f"wrote {rel_path} and {grp_path}", err=True)


_CALIBRI_ALIASES = {
    "problem_id": ("problem_id", "task_id", "question_id"),
    "sample_id": ("sample_id", "generation_id", "gen_id"),
    "language": ("language", "lang"),
    "token_logprobs": ("token_logprobs", "logprobs", "token_log_probs"),
    "label": ("label", "correct", "passed", "is_correct"),
    "difficulty": ("difficulty", "difficulty_label", "level"),
    "code_text": ("code_text", "extracted_code", "code"),
    "code_span": ("code_span",),
}
_CALIBRI_REQUIRED = ("problem_id", "language", "label")


def _source_lines(path: str):
    """``(lineno, raw, obj)`` of each line of ``path``, decoded as every record reader decodes.

    A line that does not decode is named by file and line.
    """
    try:
        with data._open_text(path) as fh:
            yield from data._json_lines(fh)
    except RecordError as exc:
        raise ConvertError(f"{path} line {exc.line}: {exc.reason}") from exc


def _resolve_field(obj: dict, target: str):
    for alias in _CALIBRI_ALIASES[target]:
        if alias in obj:
            return alias, obj[alias]
    return None, None


@main.command("convert-calibri")
@click.option("--source", required=True, help="Downloaded dataset file or directory of JSONL.")
@click.option("--output", "output_path", required=True, help="Converted record JSONL.")
@_guarded
def convert_calibri(source, output_path) -> None:
    """Convert locally downloaded CALIBRI-style JSONL to the record schema.

    Never fetches anything; point --source at files you downloaded
    yourself.  A mapping metadata file is written next to the output.
    """
    src = Path(source)
    if src.is_dir():
        files = sorted(str(p) for p in src.glob("*.jsonl"))
        if not files:
            raise ConvertError(f"no .jsonl files under {source}")
    elif src.is_file():
        files = [str(src)]
    else:
        raise ConvertError(f"source {source} does not exist")

    used_fields: dict[str, set] = {}
    skipped = 0
    samples = []
    seen = set()
    row_index = 0
    for path in files:
        for lineno, _, obj in _source_lines(path):
            row_index += 1
            where = f"{path} line {lineno}"
            if not isinstance(obj, dict):
                raise ConvertError(f"{where}: record is not a JSON object")
            found = {target: _resolve_field(obj, target) for target in _CALIBRI_ALIASES}
            missing = [target for target in _CALIBRI_REQUIRED if found[target][0] is None]
            if missing:
                expected = {t: list(_CALIBRI_ALIASES[t]) for t in missing}
                raise ConvertError(f"{where}: unknown layout, expected one of {expected}")
            if not found["token_logprobs"][1]:
                skipped += 1
                continue
            if found["sample_id"][0] is None:
                found["sample_id"] = ("<synthesized>", f"{found['problem_id'][1]}#r{row_index}")
            record: dict = {}
            for target, (key, value) in found.items():
                if key is not None:
                    used_fields.setdefault(target, set()).add(key)
                    record[target] = value
            for key in ("sample_id", "problem_id"):
                if type(record[key]) is int:  # an integer id, but not a bool
                    record[key] = str(record[key])
            if isinstance(record["label"], bool):
                record["label"] = int(record["label"])
            try:
                sample = parse_record(record)
            except RecordError as exc:
                raise ConvertError(f"{where}: converted record rejected: {exc}") from exc
            if sample.sample_id in seen:
                sid = sample.sample_id
                raise ConvertError(f"{where}: duplicate sample_id {sid!r} after conversion")
            seen.add(sample.sample_id)
            samples.append(sample)
    save_records(samples, output_path)
    mapping = {
        "source_files": files,
        "fields": {k: sorted(v) for k, v in sorted(used_fields.items())},
        "converted": len(samples),
        "skipped_missing_logprobs": skipped,
    }
    _write_text(output_path + ".mapping.json", json.dumps(mapping, indent=2, sort_keys=True) + "\n")
    click.echo(f"converted {len(samples)} records, skipped {skipped}", err=True)


if __name__ == "__main__":
    main()
