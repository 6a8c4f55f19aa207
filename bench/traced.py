"""Traced, in-process run of one CLI stage.

Run as ``python bench/traced.py <spans-out> <cli-args...>`` with ``src``
on ``PYTHONPATH``.  The layer functions that :mod:`codecal.cli` imports
are wrapped in spans (name, start, end, parent, growth of this
process's peak RSS), then the stage runs as
``codecal.cli.main(<cli-args>, standalone_mode=False)``.  The replay
therefore makes the CLI's own calls and writes the CLI's own files,
which the benchmark compares byte for byte with an untraced run.
Spans are kept in memory and written as JSON when the stage ends.

A name the CLI no longer imports is skipped with a note on stderr; its
span then never occurs.  After ``score``, a probe outside the stage
times ``parse_record`` over records decoded beforehand, so decode time
is roughly ``load_records - parse_record``.
"""

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager

import codecal.cli as cli
from codecal.data import parse_record
from codecal.groups import GroupingModel

# Names in codecal.cli -> span names.  The layer is the part before the dot.
CLI_SPANS = {
    "load_records": "data.load_records",
    "assign_problem_splits": "data.assign_problem_splits",
    "score_dataset": "scoring.score_dataset",
    "save_scored": "scoring.save_scored",
    "load_scored": "scoring.load_scored",
    "fit_platt": "calibrators.fit_platt",
    "fit_histogram_binning": "calibrators.fit_histogram",
    "fit_gcur_linear": "calibrators.fit_gcur_linear",
    "fit_gcur_logistic": "calibrators.fit_gcur_logistic",
    "fit_ighb": "calibrators.fit_ighb",
    "fit_iglb": "calibrators.fit_iglb",
    "membership_matrix": "calibrators.membership_matrix",
    "model_to_json": "calibrators.model_to_json",
    "evaluate": "metrics.evaluate",
    "reliability_chart": "svg.render",
    "group_chart": "svg.render",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record["maxrss_growth_mb"] = (rss_after - rss_before) / 1024.0
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the CLI's layer calls in spans; record counts from their results."""
    traced_apply: set = set()

    def fitted(method: str):
        def on_result(model) -> None:
            # Models have no name in the CLI, so their apply is wrapped per class.
            cls = type(model)
            if cls not in traced_apply:
                traced_apply.add(cls)
                cls.apply = tracer.wrap("calibrators.apply", cls.apply)
            if method in ("ighb", "iglb"):
                tracer.counts[f"calibrators.{method}_patches"] = len(model.patches)
            if method == "iglb":
                tracer.counts["calibrators.iglb_skipped_regions"] = len(model.skipped_regions)
                # Each kept patch was one fit; a stop on validation Brier rejected one more.
                rejected = 1 if model.stop_reason == "val_brier" else 0
                tracer.counts["calibrators.iglb_patch_fits"] = len(model.patches) + rejected

        return on_result

    for attr, name in CLI_SPANS.items():
        fn = getattr(cli, attr, None)
        if fn is None:
            print(f"note: codecal.cli has no {attr}; no {name} span", file=sys.stderr)
            continue
        fit = name.startswith("calibrators.fit_")
        on_result = fitted(name.removeprefix("calibrators.fit_")) if fit else None
        setattr(cli, attr, tracer.wrap(name, fn, on_result))

    def count_groups(groups) -> None:
        tracer.counts["groups.n_groups"] = len(groups.names)

    GroupingModel.fit = staticmethod(tracer.wrap("groups.fit", GroupingModel.fit))
    GroupingModel.apply = tracer.wrap("groups.apply", GroupingModel.apply, count_groups)


def probe_parse_record(tracer: Tracer, input_path: str) -> None:
    with tracer.span("probe.decode"), open(input_path, "r", encoding="utf-8") as fh:
        objs = [json.loads(raw) for raw in fh if raw.strip()]
    with tracer.span("probe.data.parse_record"):
        for lineno, obj in enumerate(objs, start=1):
            parse_record(obj, line=lineno)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    stage = cli_args[0].replace("-", "_")
    tracer = Tracer()
    instrument(tracer)
    with tracer.span(f"stage.{stage}"):
        cli.main(cli_args, standalone_mode=False)
    if stage == "score":
        probe_parse_record(tracer, cli_args[cli_args.index("--input") + 1])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
