"""Correctness checks on the CLI's output files.

Each check returns a list of problems (empty when the output is right).
The checks use only the generator's planted values, an independent
re-computation of the uncalibrated metrics, cross-file consistency, and
the values recorded for a workload seed in ``expected.json``.

Run as ``python bench/checks.py <json-args>``: it checks one pipeline
directory and prints the problems per stage, plus the values the
recorded-values gate compares, as JSON.  Reading the outputs happens
in this separate process so that the benchmark process stays small.
"""

import csv
import itertools
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

METHODS = ("platt", "histogram", "gcur_linear", "gcur_logistic", "ighb", "iglb")
TOLERANCE = 1e-9
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def check_score(scored: Path, planted_conf: np.ndarray) -> list[str]:
    """Every record is scored once, with p_hat equal to its planted confidence."""
    seen = []
    for line in _read_lines(scored):
        obj = json.loads(line)
        index = int(obj["sample_id"].split("-s")[-1])
        if obj.get("method") != "avg_prob" or not _close(obj["p_hat"], planted_conf[index]):
            return [f"{obj['sample_id']}: p_hat {obj.get('p_hat')!r} != planted"]
        seen.append(index)
    if sorted(seen) != list(range(planted_conf.size)):
        return [f"scored {len(seen)} records, not each of the {planted_conf.size} inputs once"]
    return []


def check_split(scored: Path, split_dir: Path) -> list[str]:
    """Splits partition the scored lines, untouched, along problem boundaries."""
    problems = []
    parts = {name: _read_lines(split_dir / f"{name}.jsonl") for name in ("train", "val", "test")}
    if sorted(itertools.chain.from_iterable(parts.values())) != sorted(_read_lines(scored)):
        problems.append("split lines are not a permutation of the scored lines")
    owners: dict[str, str] = {}
    for name, lines in parts.items():
        if not lines:
            problems.append(f"{name} split is empty")
        for line in lines:
            pid = json.loads(line)["problem_id"]
            if owners.setdefault(pid, name) != name:
                problems.append(f"problem {pid} appears in {owners[pid]} and {name}")
                return problems
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def independent_metrics(p: np.ndarray, y: np.ndarray, m: int) -> dict[str, float]:
    """BSS, accuracy at 0.5, ECE and Brier, computed without codecal."""
    n = p.size
    bins = np.minimum(np.floor(p * m).astype(int), m - 1)
    count = np.bincount(bins, minlength=m)
    sum_p = np.bincount(bins, weights=p, minlength=m)
    sum_y = np.bincount(bins, weights=y, minlength=m)
    occupied = count > 0
    ece = float(np.sum(np.abs(sum_y[occupied] - sum_p[occupied]) / n))
    brier = float(np.sum((p - y) ** 2) / n)
    rate = float(y.sum() / n)
    ref = rate * (1.0 - rate)
    bss = (ref - brier) / ref if ref > 0 else (1.0 if brier == 0 else -math.inf)
    acc = float(np.sum((p >= 0.5) == (y == 1)) / n)
    return {"bss": bss, "acc": acc, "ece": ece, "brier": brier}


def _metric(text: str) -> float:
    return -math.inf if text == "-inf" else float(text)


def check_fit_eval(test_split: Path, fit_dir: Path, grid_m: int) -> list[str]:
    """comparison.csv is complete, matches the reports, and its baseline row is right."""
    problems = []
    rows = _read_csv(fit_dir / "comparison.csv")
    if rows[0] != ["method", "bss", "acc", "ece", "brier"]:
        return [f"comparison.csv header {rows[0]}"]
    if [row[0] for row in rows[1:]] != ["uncalibrated", *METHODS]:
        return [f"comparison.csv methods {[row[0] for row in rows[1:]]}"]
    for row in rows[1:]:
        if "failed" in row:
            problems.append(f"{row[0]} failed in fit-eval")
            continue
        report = json.loads((fit_dir / f"report_{row[0]}.json").read_text(encoding="utf-8"))
        for column, field in enumerate(("bss", "accuracy", "ece", "brier"), start=1):
            if _format(report[field]) != row[column]:
                problems.append(f"{row[0]}: comparison {field} differs from report_{row[0]}.json")
        if row[0] != "uncalibrated" and not (fit_dir / f"model_{row[0]}.json").is_file():
            problems.append(f"model_{row[0]}.json missing")
    objs = [json.loads(line) for line in _read_lines(test_split)]
    p = np.array([obj["p_hat"] for obj in objs])
    y = np.array([obj["label"] for obj in objs], dtype=float)
    ours = independent_metrics(p, y, grid_m)
    for column, key in enumerate(("bss", "acc", "ece", "brier"), start=1):
        if not _close(_metric(rows[1][column]), ours[key]):
            problems.append(f"uncalibrated {key} {rows[1][column]} != recomputed {ours[key]!r}")
    return problems


def _format(value) -> str:
    return "-inf" if value == "-inf" else repr(float(value))


def check_ablate(ablation: Path, fit_dir: Path, subsets: list[str], same_groups: bool) -> list[str]:
    """Every subset and method has a BSS.  When ablate and fit-eval use
    the same group flags, the largest subset matches fit-eval."""
    rows = _read_csv(ablation)
    if rows[0] != ["method", "groups", "bss"]:
        return [f"ablation header {rows[0]}"]
    got = {(row[1], row[0]): row[2] for row in rows[1:]}
    want = {(subset, name) for subset in subsets for name in METHODS}
    if set(got) != want or len(rows) - 1 != len(want):
        return ["ablation rows do not cover every subset and method once"]
    problems = [f"{name} on {sub} failed" for (sub, name), bss in got.items() if bss == "failed"]
    if not same_groups:
        return problems
    full = max(subsets, key=len)
    comparison = {row[0]: row[1] for row in _read_csv(fit_dir / "comparison.csv")[1:]}
    for name in METHODS:
        bss = got[(full, name)]
        if bss != "failed" and comparison[name] != "failed":
            if not _close(_metric(bss), _metric(comparison[name]), 1e-12):
                problems.append(f"{name}: ablation BSS on all groups differs from fit-eval")
    return problems


def check_report(chart_dir: Path) -> list[str]:
    """Both charts exist and are well-formed SVG."""
    problems = []
    for name in ("report_iglb_reliability.svg", "report_iglb_groups.svg"):
        try:
            root = ET.parse(chart_dir / name).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{name}: root element is {root.tag}")
    return problems


def _cell(text: str):
    """A result cell as the gate stores it: a number to 12 digits, or its text."""
    return text if text in ("failed", "-inf") else float(f"{float(text):.12g}")


def _agree(a, b) -> bool:
    return _close(a, b) if isinstance(a, float) and isinstance(b, float) else a == b


def observed(fit_dir: Path, ablation: Path) -> dict:
    """The values the recorded-values gate compares."""
    out: dict = {}
    for name in ("ighb", "iglb"):
        path = fit_dir / f"model_{name}.json"
        model = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
        out[name] = model and [len(model["params"]["patches"]), model["convergence"]["stop_reason"]]
    rows = _read_csv(fit_dir / "comparison.csv")[1:]
    out["comparison"] = [[_cell(text) for text in row[1:]] for row in rows]
    out["ablation"] = [_cell(row[2]) for row in _read_csv(ablation)[1:]]
    return out


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_recorded(got: dict, want: dict) -> tuple[list[str], list[str]]:
    """(fit-eval problems, ablate problems) against recorded values."""
    fit = [
        f"{name} [patches, stop reason] {got[name]} != recorded {want[name]}"
        for name in ("ighb", "iglb")
        if got[name] != want[name]
    ]
    got_cells = [cell for row in got["comparison"] for cell in row]
    want_cells = [cell for row in want["comparison"] for cell in row]
    if len(got_cells) != len(want_cells) or not all(map(_agree, got_cells, want_cells)):
        fit.append("comparison.csv differs from the recorded values")
    abl = []
    if len(got["ablation"]) != len(want["ablation"]) or not all(
        map(_agree, got["ablation"], want["ablation"])
    ):
        abl.append("ablation BSS differs from the recorded values")
    return fit, abl


def _guarded(check, *args) -> list[str]:
    # A malformed output fails its stage; it must not stop the benchmark.
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001
        return [f"unreadable output: {exc!r}"]


def check_pipeline(args: dict) -> dict:
    """Problems per stage of one pipeline directory, and its observed values."""
    pipe = Path(args["pipe"])
    fit_dir = pipe / "fit"
    problems = {
        "score": _guarded(check_score, pipe / "scored.jsonl", np.load(args["conf"])),
        "split": _guarded(check_split, pipe / "scored.jsonl", pipe / "splits"),
        "fit_eval": _guarded(check_fit_eval, pipe / "splits/test.jsonl", fit_dir, args["grid_m"]),
        "ablate": _guarded(
            check_ablate,
            pipe / "ablation.csv",
            fit_dir,
            args["ablate_subsets"],
            args["ablate_same_groups"],
        ),
        "report": _guarded(check_report, pipe / "charts"),
    }
    try:
        got = observed(fit_dir, pipe / "ablation.csv")
    except Exception as exc:  # noqa: BLE001
        got = None
        problems["fit_eval"].append(f"unreadable output: {exc!r}")
    recorded = load_expected().get(args["workload"], {}).get(str(args["seed"]))
    if got is not None and recorded is not None and recorded["records"] == args["records"]:
        fit, abl = check_recorded(got, recorded)
        problems["fit_eval"] += fit
        problems["ablate"] += abl
    return {"problems": problems, "observed": got, "recorded": recorded is not None}


if __name__ == "__main__":
    print(json.dumps(check_pipeline(json.loads(sys.argv[1]))))
