"""codecal benchmark: seeded inputs through the real CLI stages.

Usage, from the repository root::

    python3 bench/run.py --workload many-patch --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's input from ``--seed``, then
runs the CLI stages (``score -> split -> fit-eval -> ablate ->
report``) as child processes, one at a time, and repeats the pipeline
until ``--seconds`` have passed.  Both workloads run every stage, so
every end-to-end metric exists on each.  The first pipeline's outputs
are checked in full (``bench/checks.py``); later ones must repeat its
bytes.

* ``--trace 0`` reports the end-to-end metrics: means over the
  pipeline repetitions of each stage's wall time and their sum, peak
  RSS of the stage processes (from ``os.wait4``), and the median
  start-up time of CLI processes that do no work, probed twice in
  every pipeline so that the probes spread over the whole run.  Split,
  the shortest timed stage, runs a second time before ablate.
* ``--trace 1`` alternates CLI pipelines with traced replays of each
  stage (``bench/traced.py``, which runs the CLI in process with its
  layer calls wrapped in spans) and reports medians of per-layer span
  times, counts, RSS growth and shares of the CLI's wall times.  The
  replay must write the same bytes as the CLI.

Metric names, units and the reason for each workload are read from
``BENCHMARK.json``.  Human-readable lines go to stdout first; the last
line is one JSON object.  A results file with the environment, the
raw samples and any failures is written under ``.bench_work/results``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Traced runs always make this many CLI/replay pairs, so the per-layer
# shares are medians, not single samples.
TRACE_MIN_PAIRS = 2
STAGES = ("score", "split", "fit_eval", "ablate", "report")
# Untraced pipelines run split again before ablate, half a pipeline
# after the first time, so split_s averages twice as many samples.
SPLIT_AGAIN = "split_again"
LAYERS = ("data", "scoring", "groups", "calibrators", "metrics", "svg")


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    tokens: int
    fit_flags: tuple
    ablate_flags: tuple
    # The group-category subsets ablate runs through, joined by "+".
    ablate_subsets: tuple

    @property
    def grid_m(self) -> int:
        flags = self.fit_flags
        return int(flags[flags.index("--grid-m") + 1]) if "--grid-m" in flags else 20


FIT_MANY_PATCH = ("--complexity", "difficulty_label", "--grid-m", "100", "--alpha", "0.001")


# On a 2-core machine one pipeline takes 9-11 s on either workload, so
# a 55 s run holds four or five and reports their means.  The host's
# speed swings by up to a factor of two for seconds at a time, so what
# steadies a stage's figure is how much of the run its samples cover,
# which a larger input does not raise: at 16k long-tokens records a run
# holds two or three pipelines and loses more of its time to the last
# one that no longer fits.  At 8k records the five process start-ups
# and split's own decoding weigh more, so data and scoring are about
# 65% of long-tokens' time, not the 70% at 16k.
WORKLOADS = {
    # Token arrays dominate the bytes; JSON decode, per-float validation
    # and re-encoding in data/scoring take most of the time; the branch
    # keyword regex runs in groups.  Fitters are a few percent.  Ablate
    # runs only so that ablate_s exists here: on the complexity
    # category alone, which keeps it, like the other stages, mostly IO.
    "long-tokens": Workload(
        "long-tokens",
        records=8000,
        tokens=200,
        fit_flags=("--complexity", "branch_heuristic"),
        ablate_flags=(
            "--complexity", "branch_heuristic", "--no-language", "--length-metrics", "none"
        ),
        ablate_subsets=("complexity",),
    ),
    # 24 overlapping groups at m=100 with miscalibration planted per
    # (language, difficulty, length band); alpha=0.001 keeps ighb
    # patching, so calibrators and metrics dominate fit-eval and ablate.
    "many-patch": Workload(
        "many-patch",
        records=30000,
        tokens=8,
        fit_flags=FIT_MANY_PATCH,
        ablate_flags=FIT_MANY_PATCH,
        ablate_subsets=(
            "complexity",
            "complexity+language",
            "complexity+language+length",
            "complexity+length",
            "language",
            "language+length",
            "length",
        ),
    ),
}


def stage_args(w: Workload) -> dict[str, list[str]]:
    """CLI arguments per stage, for the CLI and the traced replay alike.

    Paths are relative to the pipeline directory, which is the working
    directory of every stage process; the input sits one level up.
    """
    split_flags = [
        x for name in ("train", "val", "test") for x in (f"--{name}", f"splits/{name}.jsonl")
    ]
    return {
        "score": ["score", "--input", "../input.jsonl", "--output", "scored.jsonl"],
        "split": ["split", "--input", "scored.jsonl", "--output-dir", "splits"],
        "fit_eval": ["fit-eval", *split_flags, *w.fit_flags, "--output-dir", "fit"],
        "ablate": ["ablate", *split_flags, *w.ablate_flags, "--output", "ablation.csv"],
        "report": ["report", "--report", "fit/report_iglb.json", "--output-dir", "charts"],
    }


def stage_outputs(pipe: Path, stage: str) -> list[Path]:
    """Files a stage writes, for byte comparisons."""
    if stage == "score":
        return [pipe / "scored.jsonl"]
    if stage == "ablate":
        return [pipe / "ablation.csv"]
    sub = {"split": "splits", "fit_eval": "fit", "report": "charts"}[stage]
    return sorted(p for p in (pipe / sub).iterdir() if p.is_file())


def digest(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of the given files, read in chunks."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def helper(script: str, args: dict) -> dict:
    """Run a bench helper script in its own process; its last stdout line is JSON."""
    argv = [sys.executable, str(BENCH_DIR / script), json.dumps(args)]
    done = subprocess.run(argv, env=child_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with code {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


@dataclass
class ProcRun:
    wall_s: float
    maxrss_mb: float
    code: int


def spawn(argv: list[str], cwd: Path, log) -> ProcRun:
    """Run one child to completion; wall time and peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "codecal.cli", *args]


def probe_setup(cwd: Path, log) -> float:
    """Wall time of a CLI process that does no work."""
    run = spawn(cli_argv(["--help"]), cwd, log)
    if run.code != 0:
        raise RuntimeError("codecal.cli --help failed")
    return run.wall_s


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def run_cli_pipeline(w: Workload, pipe: Path, log, setup: list | None = None) -> dict[str, ProcRun]:
    """One run of every stage.  With ``setup``, start-up probes before
    score and before ablate are appended to it, and split runs again
    before ablate, as ``SPLIT_AGAIN``; it rewrites the same files."""
    if pipe.exists():
        shutil.rmtree(pipe)
    pipe.mkdir(parents=True)
    args_by_stage = stage_args(w)
    order = list(STAGES)
    if setup is not None:
        order.insert(order.index("ablate"), SPLIT_AGAIN)
    runs = {}
    for stage in order:
        if setup is not None and stage in ("score", "ablate"):
            setup.append(probe_setup(pipe, log))
        args = args_by_stage["split" if stage == SPLIT_AGAIN else stage]
        runs[stage] = spawn(cli_argv(args), pipe, log)
        if runs[stage].code != 0:
            break
    return runs


def first_checks(w: Workload, pipe: Path, seed: int) -> dict:
    """Full correctness checks of one CLI pipeline's outputs, per stage."""
    args = {
        "pipe": str(pipe),
        "conf": str(pipe.parent / "input.jsonl.conf.npy"),
        "grid_m": w.grid_m,
        "ablate_subsets": list(w.ablate_subsets),
        "ablate_same_groups": w.ablate_flags == w.fit_flags,
        "workload": w.name,
        "seed": seed,
        "records": w.records,
    }
    checked = helper("checks.py", args)
    if not checked["recorded"]:
        print(f"note: no recorded values for {w.name} seed {seed}", file=sys.stderr)
    return checked


def tally_pipeline(runs: dict, problems_by_stage: dict, tally: Tally) -> bool:
    ok = True
    for stage in (*STAGES, SPLIT_AGAIN) if SPLIT_AGAIN in runs else STAGES:
        run = runs.get(stage)
        if run is None:
            problems = ["not run"]
        elif run.code:
            problems = [f"exit code {run.code}"]
        else:
            problems = problems_by_stage.get(stage, [])
        ok &= tally.record(f"cli {stage}", problems)
    return ok


def digests(pipe: Path) -> dict[str, str]:
    return {stage: digest(stage_outputs(pipe, stage)) for stage in STAGES}


def measure(w: Workload, work: Path, seed: int, seconds: float, trace: bool, log, tally: Tally):
    """CLI pipelines while another fits in ``seconds``; without
    ``trace`` each also probes set-up time, with ``trace`` each is
    followed by a traced replay.  Returns the set-up probes, the CLI
    runs, the per-layer values of each replay and the values the
    recorded-values gate saw."""
    pipe = work / "cli"
    setup = None if trace else []
    if setup is not None:
        probe_setup(work, log)  # warm-up, not counted
    iterations, replays = [], []
    reference = None
    observed = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs = run_cli_pipeline(w, pipe, log, setup)
        iterations.append(runs)
        if reference is None:
            problems = {}
            if all(stage in runs for stage in STAGES):
                checked = first_checks(w, pipe, seed)
                problems, observed = checked["problems"], checked["observed"]
            if not tally_pipeline(runs, problems, tally):
                break
            reference = digests(pipe)
        else:
            got = digests(pipe)
            problems = {
                s: ["output differs from the first run"] for s in STAGES if got[s] != reference[s]
            }
            tally_pipeline(runs, problems, tally)
        if trace:
            traced = run_traced(w, work, pipe, log, tally)
            if traced is None:
                break
            replays.append(layer_metrics(traced, runs))
            counts = {key: replays[-1][key] for key in COUNT_KEYS}
            if counts != {key: replays[0][key] for key in COUNT_KEYS}:
                tally.record("traced counts", [f"{counts} differ from the first replay"])
        # Start another only if it would end in time, judged by this one
        # (which, the first time, also includes the checks).
        now = time.perf_counter()
        enough = not trace or len(replays) >= TRACE_MIN_PAIRS
        if enough and 2 * now - began - start > seconds:
            break
    return setup or [], iterations, replays, observed


def e2e_metrics(w: Workload, setup: list[float], iterations: list[dict]) -> dict:
    """Values over the pipeline runs in which every stage ran.

    Times are means, not medians: the host switches between a fast
    speed and one about 1.7 times slower for one to ten seconds at a
    time, so the median of a run's four or five samples jumps between
    the two speeds, while the mean follows the share of the run spent
    at each.  Set-up probes are many and short, so they take the median.
    ``total_s`` is the sum of the stage means, split counted once.
    """
    complete = [runs for runs in iterations if all(stage in runs for stage in STAGES)]
    values = {"setup_s": statistics.median(setup)} if setup else {}
    if not complete:
        return values

    def samples(stage):
        keys = (stage, SPLIT_AGAIN) if stage == "split" else (stage,)
        return [runs[key].wall_s for runs in complete for key in keys if key in runs]

    means = {stage: statistics.fmean(samples(stage)) for stage in STAGES}
    total_s = sum(means.values())
    return {
        **values,
        "total_s": total_s,
        "records_per_s": w.records / total_s,
        **{f"{stage}_s": means[stage] for stage in STAGES[:4]},
        "peak_rss_mb": statistics.median(
            max(run.maxrss_mb for run in runs.values()) for runs in complete
        ),
        "fit_eval_rss_mb": statistics.median(runs["fit_eval"].maxrss_mb for runs in complete),
    }


def run_traced(w: Workload, work: Path, cli_pipe: Path, log, tally: Tally) -> dict | None:
    """One traced replay of every stage; spans per stage, or None on failure."""
    pipe = work / "traced"
    if pipe.exists():
        shutil.rmtree(pipe)
    pipe.mkdir(parents=True)
    out = {}
    for stage, args in stage_args(w).items():
        spans_path = pipe / f"spans_{stage}.json"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), *args]
        run = spawn(argv, pipe, log)
        problems = [f"exit code {run.code}"] if run.code else []
        if not problems:
            if digest(stage_outputs(pipe, stage)) != digest(stage_outputs(cli_pipe, stage)):
                problems.append("traced outputs differ from the CLI's")
        if not tally.record(f"traced {stage}", problems):
            return None
        out[stage] = {"wall_s": run.wall_s, **json.loads(spans_path.read_text(encoding="utf-8"))}
    return out


def _durations(spans: list[dict]) -> tuple[dict, dict]:
    """Summed duration and summed self time per span name.

    Self time is a span's duration minus that of its child spans.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, child_time):
        dur = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + dur
        own[span["name"]] = own.get(span["name"], 0.0) + dur - children
    return total, own


def _layer_self(own: dict, layers=LAYERS) -> float:
    return sum(value for name, value in own.items() if name.split(".")[0] in layers)


def layer_metrics(traced: dict, runs: dict[str, ProcRun]) -> dict:
    """Per-layer values of one traced replay.

    Shares divide layer self time by the replay's own process wall
    times, so both sides of a ratio are measured at the same moment;
    the host's speed drifts by up to a fifth within seconds.  The
    overhead sets the replay against the CLI pipeline ``runs`` that ran
    just before it.
    """
    by_name: dict[str, float] = {}
    own_by_stage = {}
    for stage, result in traced.items():
        total, own = _durations(result["spans"])
        for name, value in total.items():
            by_name[name] = by_name.get(name, 0.0) + value
        own_by_stage[stage] = own
    counts = traced["fit_eval"]["counts"]
    fit_spans = traced["fit_eval"]["spans"]

    def span_s(name: str) -> float:
        # A call the CLI no longer makes did no work.
        return by_name.get(name, 0.0)

    cli_total = sum(run.wall_s for run in runs.values())
    # The probes are extra work the CLI does not do.
    trace_total = sum(result["wall_s"] for result in traced.values()) - sum(
        value for name, value in by_name.items() if name.startswith("probe.")
    )
    values = {
        "data.load_records_s": span_s("data.load_records"),
        "data.parse_record_s": span_s("probe.data.parse_record"),
        "data.assign_problem_splits_s": span_s("data.assign_problem_splits"),
        "scoring.score_dataset_s": span_s("scoring.score_dataset"),
        "scoring.save_scored_s": span_s("scoring.save_scored"),
        "scoring.load_scored_s": span_s("scoring.load_scored"),
        "scoring.load_scored_peak_growth_mb": sum(
            s["maxrss_growth_mb"] for s in fit_spans if s["name"] == "scoring.load_scored"
        ),
        "groups.fit_s": span_s("groups.fit"),
        "groups.apply_s": span_s("groups.apply"),
        "calibrators.apply_s": span_s("calibrators.apply"),
        "calibrators.model_to_json_s": span_s("calibrators.model_to_json"),
        "metrics.evaluate_s": span_s("metrics.evaluate"),
        "metrics.evaluate_calls": sum(
            span["name"] == "metrics.evaluate" for r in traced.values() for span in r["spans"]
        ),
        "svg.render_s": span_s("svg.render"),
        "trace.total_s": trace_total,
        "trace.overhead_ratio": trace_total / cli_total - 1.0,
        "groups.n_groups": counts.get("groups.n_groups", 0),
        "calibrators.ighb_patches": counts.get("calibrators.ighb_patches", 0),
        "calibrators.iglb_patches": counts.get("calibrators.iglb_patches", 0),
        "calibrators.iglb_skipped_regions": counts.get("calibrators.iglb_skipped_regions", 0),
        "calibrators.iglb_accept_ratio": counts.get("calibrators.iglb_patches", 0)
        / max(counts.get("calibrators.iglb_patch_fits", 0), 1),
        "share.data_scoring_of_total": sum(
            _layer_self(own, ("data", "scoring")) for own in own_by_stage.values()
        )
        / trace_total,
        "share.calibrators_metrics_of_fit_ablate": sum(
            _layer_self(own_by_stage[s], ("calibrators", "metrics")) for s in ("fit_eval", "ablate")
        )
        / (traced["fit_eval"]["wall_s"] + traced["ablate"]["wall_s"]),
    }
    for method in ("platt", "histogram", "gcur_linear", "gcur_logistic", "ighb", "iglb"):
        values[f"calibrators.fit_{method}_s"] = span_s(f"calibrators.fit_{method}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(_layer_self(own, (layer,)) for own in own_by_stage.values())
    for stage, own in own_by_stage.items():
        values[f"cli.{stage}_self_s"] = own[f"stage.{stage}"]
    return values


COUNT_KEYS = (
    "groups.n_groups",
    "calibrators.ighb_patches",
    "calibrators.iglb_patches",
    "calibrators.iglb_skipped_regions",
    "calibrators.iglb_accept_ratio",
    "metrics.evaluate_calls",
)


def per_layer(replays: list[dict], info: dict, work: Path) -> dict:
    """Medians of the replays' values, with the input's sizes."""
    if not replays:
        return {}
    values = {key: statistics.median(r[key] for r in replays) for key in replays[0]}
    values.update({key: replays[0][key] for key in COUNT_KEYS})
    values["data.records"] = info["records"]
    values["data.tokens"] = info["tokens"]
    values["data.input_bytes"] = info["input_bytes"]
    values["scoring.scored_bytes"] = (work / "cli" / "scored.jsonl").stat().st_size
    return values


def environment(w: Workload, seed: int, info: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "seed": seed,
        "workload": w.name,
        "records": info["records"],
        "tokens": info["tokens"],
        "input_bytes": info["input_bytes"],
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate, measure and check one workload; returns the full result."""
    work.mkdir(parents=True)
    tally = Tally()
    with open(work / "children.log", "w", encoding="utf-8") as log:
        input_path = work / "input.jsonl"
        gen_args = {"workload": w.name, "path": str(input_path), "seed": seed}
        info = helper("gen.py", {**gen_args, "records": w.records, "tokens": w.tokens})
        info["input_bytes"] = input_path.stat().st_size
        setup, iterations, replays, observed = measure(w, work, seed, seconds, trace, log, tally)
        e2e = e2e_metrics(w, setup, iterations)
        values = per_layer(replays, info, work)
    return {
        "env": environment(w, seed, info),
        "end_to_end": e2e,
        "per_layer": values,
        "samples": {
            "setup_s": setup,
            "iterations": [{s: vars(run) for s, run in runs.items()} for runs in iterations],
        },
        "observed": observed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codecal" / "cli.py").is_file():
        print(f"error: codecal sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}[args.workload]

    w = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {**result["end_to_end"], **result["per_layer"]}
    ok = result["failed"] == 0
    if ok:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
            return 1
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    result.update({"workload": w.name, "why": why, "seconds": args.seconds, "trace": args.trace})
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    (results_dir / name).write_text(text, encoding="utf-8")

    print(f"workload {w.name}: {why}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"failed_ratio {result['failed'] / max(result['attempted'], 1):.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = float(values[m["name"]])
            print(f"{m['name']} {value:.6g} {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": ok,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
