"""The evaluation report, and the numbers the command line shows before numpy loads.

Nothing here imports numpy, so ``codecal report`` and every command's
``--help`` start without it.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import DataError, schema_fields

__all__ = ["NEG_INF", "MAX_GRID_M", "DEFAULT_EPSILON", "EvalReport"]

# Sentinel for an undefined skill score on a degenerate reference.  Kept
# as an actual float so comparisons work, but serialized as the string
# "-inf" because JSON has no infinity literal.
NEG_INF = float("-inf")
# Fitters and metrics cost O(groups * m), so m is bounded well above any grid in use.
MAX_GRID_M = 10_000
# iglb's default floor on the mass of a patched region.
DEFAULT_EPSILON = 0.05


def _check_number(where: str, *values, unit: bool = False) -> None:
    """Raise ``DataError`` unless every value is a finite number, in [0, 1] with ``unit``."""
    for value in values:
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if not ok or (unit and not 0.0 <= value <= 1.0):
            need = "a finite number in [0, 1]" if unit else "a finite number"
            raise DataError(f"report {where} holds {value!r}, not {need}")


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
        payload = {"schema_version": 1, **asdict(self)}
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
            values = {f.name: payload[f.name] for f in fields(cls)}
            values.update(
                reliability=[tuple(row) for row in values["reliability"]],
                bss=NEG_INF if values["bss"] == "-inf" else float(values["bss"]),
                per_group_gasce=dict(values["per_group_gasce"]),
                group_summary=dict(values["group_summary"]),
            )
            if any(len(row) != 4 for row in values["reliability"]):
                raise DataError("report reliability rows must be [bin, count, conf, acc]")
            for b, count, conf, acc in values["reliability"]:
                _check_number(f"reliability row {b!r}", b, count)
                _check_number(f"reliability row {b!r}", conf, acc, unit=True)
            for name, stats in values["group_summary"].items():
                _check_number(f"group {name!r}", stats["count"])
                rates = (stats["mean_conf"], stats["accuracy"])
                _check_number(f"group {name!r}", *(v for v in rates if v is not None), unit=True)
            return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        with schema_fields("report"):
            return cls.from_dict(json.loads(text))
