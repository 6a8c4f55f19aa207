"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The last check replicates published-dataset
numbers and only runs when CODECAL_CALIBRI_DIR points at locally
downloaded data; it is skipped otherwise.
"""

import csv
import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from codecal.binning import BinGrid, assign_bins, round_to_grid_index
from codecal.calibrators import (
    fit_gcur_linear,
    fit_histogram_binning,
    fit_ighb,
    fit_iglb,
    fit_platt,
)
from codecal.cli import main
from codecal.data import save_records
from codecal.groups import GroupSet
from codecal.metrics import NEG_INF, brier_skill_score, evaluate
from codecal.scoring import ConfidenceMethod, score_sample
from codecal.synthgen import Block, SynthSpec, generate

from oracles import brute_brier, brute_bss, brute_ece, brute_gasce

runner = CliRunner()


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _scores(samples) -> np.ndarray:
    """avg_prob score of each sample, as ``score`` computes it."""
    method = ConfidenceMethod("avg_prob")
    return np.array([score_sample(s, method) for s in samples])


def _planted_blocks(n, seed):
    """Constant raw confidence 0.5 with three planted accuracies."""
    spec = SynthSpec(
        blocks=(
            Block("low", 1 / 3, 0.3, ("constant", 0.5)),
            Block("mid", 1 / 3, 0.6, ("constant", 0.5)),
            Block("high", 1 / 3, 0.9, ("constant", 0.5)),
        ),
        n_samples=n,
        seed=seed,
    )
    samples, groups = generate(spec)
    return _scores(samples), np.array([s.label for s in samples]), groups


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(12345)
    started = time.monotonic()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = int(rng.choice([2, 5, 20]))
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        members = rng.integers(0, 2, size=n)
        if members.sum() == 0:
            members[int(rng.integers(0, n))] = 1
        s, l = scores.tolist(), labels.tolist()
        groups = GroupSet.from_membership(["g"], members[:, None])
        report = evaluate(scores, labels, BinGrid(m), groups)
        ok &= abs(report.ece - brute_ece(s, l, m)) <= 1e-12
        ok &= abs(report.brier - brute_brier(s, l)) <= 1e-12
        ref_bss = brute_bss(s, l)
        if ref_bss == float("-inf"):
            ok &= report.bss == NEG_INF
        else:
            ok &= abs(report.bss - ref_bss) <= 1e-12
        ok &= abs(report.per_group_gasce["g"] - brute_gasce(s, l, members.tolist(), m)) <= 1e-12
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    _report(1, "metric oracle equivalence, 500 instances", ok)


def test_criterion_2_histogram_binning_fixed_point():
    spec = SynthSpec(
        blocks=(
            Block("a", 0.5, 0.7, ("uniform", 0.05, 0.95)),
            Block("b", 0.5, 0.4, ("uniform", 0.2, 1.0)),
        ),
        n_samples=3000,
        seed=77,
    )
    samples, _ = generate(spec)
    p = _scores(samples)
    y = np.array([s.label for s in samples], dtype=float)
    grid = BinGrid(20)
    model = fit_histogram_binning(p, y, grid)
    calibrated = model.apply(p)
    cells = round_to_grid_index(p, grid)
    worst = 0.0
    for cell in np.unique(cells):
        mask = cells == cell
        worst = max(worst, abs(float(calibrated[mask].mean()) - float(y[mask].mean())))
    _report(2, "histogram binning fixed point", worst <= 1e-12)


def test_criterion_3_linear_group_unbiasedness():
    spec = SynthSpec(
        blocks=(
            Block("clean", 0.5, 0.75, ("uniform", 0.5, 0.9)),
            Block("messy", 0.5, 0.35, ("uniform", 0.2, 0.6)),
        ),
        n_samples=5000,
        seed=31,
        languages=("python", "cpp"),
    )
    samples, block_groups = generate(spec)
    p = _scores(samples)
    y = np.array([s.label for s in samples], dtype=float)
    languages = np.array([s.language for s in samples])
    columns = np.column_stack(
        [
            block_groups.select(["clean", "messy"]).matrix(),
            (languages == "python").astype(int),
            (languages == "cpp").astype(int),
        ]
    )
    groups = GroupSet.from_membership(["clean", "messy", "lang_python", "lang_cpp"], columns)
    model = fit_gcur_linear(p, y, groups)
    calibrated = model.apply(p, groups.select(model.group_names))
    worst = max(
        abs(float(np.mean(y[member] - calibrated[member])))
        for member in groups.matrix().T.astype(bool)
    )
    _report(3, "linear recalibration group unbiasedness", worst <= 1e-8)


def test_criterion_4_iterative_binning_terminates_within_budget():
    started = time.monotonic()
    p, y, groups = _planted_blocks(10000, 101)
    grid = BinGrid(20)
    model = fit_ighb(p, y, groups, grid)
    calibrated = model.apply(p, groups.select(model.group_names))
    report = evaluate(calibrated, y, grid, groups)
    worst = max(
        float(groups.masses[j]) * report.per_group_gasce[name]
        for j, name in enumerate(groups.names)
    )
    elapsed = time.monotonic() - started
    ok = model.converged and worst <= 0.05 and elapsed < 30.0
    _report(4, "iterative histogram binning within error budget", ok)


def test_criterion_5_iterative_logit_binning_beats_global_methods():
    grid = BinGrid(20)
    tp, ty, tg = _planted_blocks(10000, 101)
    vp, vy, vg = _planted_blocks(4000, 102)
    sp, sy, sg = _planted_blocks(4000, 103)
    model = fit_iglb(tp, ty, vp, vy, tg, vg, grid)
    history = model.val_brier_history
    strictly_decreasing = all(b < a for a, b in zip(history, history[1:]))
    calibrated = model.apply(sp, sg.select(model.group_names))
    test_brier = evaluate(calibrated, sy, grid).brier
    test_bss = brier_skill_score(calibrated, sy)
    bss_platt = brier_skill_score(fit_platt(tp, ty).apply(sp), sy)
    bss_hist = brier_skill_score(fit_histogram_binning(tp, ty, grid).apply(sp), sy)
    planted_optimum = (0.3 * 0.7 + 0.6 * 0.4 + 0.9 * 0.1) / 3.0
    ok = (
        strictly_decreasing
        and history[-1] <= history[0]
        and test_bss >= bss_platt + 0.1
        and test_bss >= bss_hist + 0.1
        and abs(test_brier - planted_optimum) <= 0.02
    )
    _report(5, "iterative logit binning recovers planted structure", ok)


def test_criterion_6_known_value_spot_checks():
    ok = evaluate([0.5, 0.5], [0, 1], BinGrid(20)).brier == pytest.approx(0.25, abs=1e-15)
    ok &= brier_skill_score([1.0, 1.0], [1, 1]) == 1.0
    ok &= brier_skill_score([0.9, 1.0], [1, 1]) == NEG_INF
    ok &= assign_bins([1.0], BinGrid(20)).tolist() == [20]
    _report(6, "known-value spot checks", bool(ok))


def _stamped_records(path, n, seed):
    spec = SynthSpec(
        blocks=(
            Block("easy", 0.4, 0.85, ("uniform", 0.4, 0.95)),
            Block("mid", 0.3, 0.6, ("uniform", 0.3, 0.8)),
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


def _run_pipeline(root: Path) -> None:
    records = root / "records.jsonl"
    _stamped_records(records, 1200, 29)
    scored = root / "scored.jsonl"
    args = ["score", "--input", str(records), "--output", str(scored)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    splits = root / "splits"
    args = ["split", "--input", str(scored), "--output-dir", str(splits)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    fit = root / "fit"
    args = [
        "fit-eval",
        "--train",
        str(splits / "train.jsonl"),
        "--val",
        str(splits / "val.jsonl"),
        "--test",
        str(splits / "test.jsonl"),
        "--complexity",
        "difficulty_label",
        "--output-dir",
        str(fit),
    ]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    charts = root / "charts"
    args = ["report", "--report", str(fit / "report_iglb.json"), "--output-dir", str(charts)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0


def test_criterion_7_pipeline_determinism(tmp_path):
    started = time.monotonic()
    first = tmp_path / "first"
    second = tmp_path / "second"
    for root in (first, second):
        root.mkdir()
        _run_pipeline(root)
    files_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_second = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    ok = files_first == files_second and len(files_first) > 20
    for rel in files_first:
        ok &= filecmp.cmp(first / rel, second / rel, shallow=False)
    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    _report(7, "byte-identical pipeline reruns", bool(ok))


def test_criterion_8_replication_on_downloaded_data(tmp_path):
    source = os.environ.get("CODECAL_CALIBRI_DIR")
    if not source:
        pytest.skip("set CODECAL_CALIBRI_DIR to a locally downloaded dataset to run this check")
    converted = tmp_path / "records.jsonl"
    args = ["convert-calibri", "--source", source, "--output", str(converted)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    scored = tmp_path / "scored.jsonl"
    args = ["score", "--input", str(converted), "--output", str(scored)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    splits = tmp_path / "splits"
    args = ["split", "--input", str(scored), "--output-dir", str(splits)]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    fit = tmp_path / "fit"
    args = [
        "fit-eval",
        "--train",
        str(splits / "train.jsonl"),
        "--val",
        str(splits / "val.jsonl"),
        "--test",
        str(splits / "test.jsonl"),
        "--length-metrics",
        "none",
        "--output-dir",
        str(fit),
    ]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    with open(fit / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = {row[0]: row[1:] for row in csv.reader(fh) if row[0] != "method"}
    bss = {name: float(vals[0]) for name, vals in rows.items() if vals[0] not in ("failed", "-inf")}
    report = json.loads((fit / "report_iglb.json").read_text())
    ok = bss["uncalibrated"] < 0.0
    for name in ("platt", "histogram"):
        ok &= bss["uncalibrated"] < bss[name]
    for grouped in ("gcur_linear", "iglb"):
        for global_method in ("platt", "histogram"):
            ok &= bss[global_method] < bss[grouped]
    ok &= abs(report["accuracy"] - 0.830) <= 0.05
    _report(8, "replication on downloaded dataset", bool(ok))
