"""Tiny-size smoke run of the benchmark harness, so it does not rot.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
It is outside the Tier-1 suite, whose pytest ``testpaths`` is ``tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_RECORDS = {"long-tokens": 300, "many-patch": 1500}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    workload = dataclasses.replace(run.WORKLOADS[name], records=TINY_RECORDS[name])
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, work=tmp_path / "work")
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= len(run.STAGES)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert wanted <= {**result["end_to_end"], **result["per_layer"]}.keys()
    assert result["env"]["records"] == TINY_RECORDS[name]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "many-patch", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
