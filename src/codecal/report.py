"""The evaluation report, and the numbers the command line shows before numpy loads.

Nothing here imports numpy, so ``codecal report`` and every command's
``--help`` start without it.
"""

import json
from dataclasses import dataclass, field, fields

from .errors import DataError, exact_keys, finite_numbers, schema_fields, whole_number

__all__ = ["NEG_INF", "MAX_GRID_M", "DEFAULT_EPSILON", "EvalReport"]

# The fields of each ``group_summary`` entry, as ``evaluate`` writes them.
_GROUP_STATS = ("count", "mean_conf", "accuracy", "degenerate")

# Sentinel for an undefined skill score on a degenerate reference.  Kept
# as an actual float so comparisons work, but serialized as the string
# "-inf" because JSON has no infinity literal.
NEG_INF = float("-inf")
# Fitters and metrics cost O(groups * m), so m is bounded well above any grid in use.
MAX_GRID_M = 10_000
# iglb's default floor on the mass of a patched region.
DEFAULT_EPSILON = 0.05


@dataclass
class EvalReport:
    """Everything a calibration run reports about one score vector."""

    n_samples: int
    grid_m: int
    ece: float
    brier: float
    brier_ref: float
    bss: float
    accuracy: float
    base_rate: float
    per_group_gasce: dict[str, float] = field(default_factory=dict)
    group_summary: dict[str, dict] = field(default_factory=dict)
    reliability: list[tuple[int, int, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as its JSON payload; its dicts are the report's own, not copies."""
        payload = {"schema_version": 1, **{f.name: getattr(self, f.name) for f in fields(self)}}
        payload["bss"] = "-inf" if self.bss == NEG_INF else self.bss
        payload["reliability"] = [list(row) for row in self.reliability]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        with schema_fields("report"):
            if payload.get("schema_version") != 1:
                raise DataError(f"unsupported report schema version {payload.get('schema_version')!r}")
            names = [f.name for f in fields(cls)]
            exact_keys(payload, ["schema_version", *names], what="report")
            values = {name: payload[name] for name in names}
            values.update(
                reliability=[tuple(row) for row in values["reliability"]],
                per_group_gasce=dict(values["per_group_gasce"]),
                group_summary=dict(values["group_summary"]),
            )
            n = whole_number(values["n_samples"], "report n_samples", range(2**63))
            m = whole_number(values["grid_m"], "report grid_m", range(2, MAX_GRID_M + 1))
            scalars = ("ece", "brier", "brier_ref", "accuracy", "base_rate")
            finite_numbers([values[k] for k in scalars], f"report {', '.join(scalars)}", 5)
            if values["bss"] != "-inf":
                finite_numbers([values["bss"]], "report bss", 1)
            values["bss"] = float(values["bss"])
            gasce = [*values["per_group_gasce"].values()]
            finite_numbers(gasce, "report per_group_gasce values", unit=True)
            if any(len(row) != 4 for row in values["reliability"]):
                raise DataError("report reliability rows must be [bin, count, conf, acc]")
            for b, count, conf, acc in values["reliability"]:
                whole_number(b, "report reliability bin", range(1, m + 1))
                whole_number(count, f"report reliability bin {b} count", range(1, n + 1))
                rates = [conf, acc]
                finite_numbers(rates, f"report reliability bin {b} conf and acc", 2, unit=True)
            bins = [row[0] for row in values["reliability"]]
            if bins != sorted(set(bins)) or sum(row[1] for row in values["reliability"]) != n:
                raise DataError(
                    "report reliability must list occupied bins in ascending order,"
                    " with counts summing to n_samples"
                )
            for name, stats in values["group_summary"].items():
                exact_keys(stats, _GROUP_STATS, what=f"report group {name!r}")
                count = whole_number(stats["count"], f"report group {name!r} count", range(n + 1))
                rates = [stats["mean_conf"], stats["accuracy"]]
                empty = count == 0
                if not empty:
                    what = f"report group {name!r} mean_conf and accuracy"
                    finite_numbers(rates, what, 2, unit=True)
                if stats["degenerate"] is not empty or (empty and rates != [None, None]):
                    what = "degenerate, with null rates, exactly when its count is 0"
                    raise DataError(f"report group {name!r} must be {what}")
            live = [name for name, stats in values["group_summary"].items() if stats["count"]]
            if sorted(values["per_group_gasce"]) != sorted(live):
                raise DataError("report per_group_gasce must list exactly the groups with members")
            return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        with schema_fields("report"):
            return cls.from_dict(json.loads(text))
