"""Calibration metrics and the evaluation report.

All metrics take parallel arrays of confidence scores in [0, 1] and
binary outcome labels.  Binned quantities use the uniform grid from
:mod:`codecal.binning`; empty bins contribute nothing.  The binned
metrics read per-(group, bin) counts, residual sums ``sum(y - p)`` and
label sums from :func:`binning.cell_sums`, one call for all groups.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .binning import BinGrid, assign_bins, cell_sums, member_pairs
from .errors import DataError, DegenerateGroupError, schema_fields
from .groups import GroupSet, check_membership

__all__ = [
    "NEG_INF",
    "ece",
    "brier",
    "base_rate",
    "brier_reference",
    "brier_skill_score",
    "accuracy_at_half",
    "gasce",
    "multicalibration_check",
    "reliability_table",
    "EvalReport",
    "evaluate",
]

# Sentinel for an undefined skill score on a degenerate reference.  Kept
# as an actual float so comparisons work, but serialized as the string
# "-inf" because JSON has no infinity literal.
NEG_INF = float("-inf")


def _as_scores(scores, empty: str = "need at least one sample") -> np.ndarray:
    """Validated 1-d float array of scores in [0, 1]; ``empty`` is the message for none."""
    p = np.asarray(scores, dtype=float)
    if p.ndim != 1:
        raise DataError(f"scores must be a 1-d array, got shape {p.shape}")
    if p.size == 0:
        raise DataError(empty)
    if not np.all(np.isfinite(p)) or np.min(p) < 0.0 or np.max(p) > 1.0:
        raise DataError("scores must lie in [0, 1]")
    return p


def _as_scores_labels(
    scores, labels, *groups: GroupSet, empty: str = "need at least one sample"
) -> tuple[np.ndarray, np.ndarray]:
    """Validated float arrays of parallel scores and labels.

    ``empty`` is the message for zero samples.  Each of ``groups`` must
    cover the samples.
    """
    p = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape or p.ndim != 1:
        raise DataError(f"scores and labels must be parallel 1-d arrays, got {p.shape} and {y.shape}")
    p = _as_scores(p, empty)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("labels must be 0 or 1")
    if any(g.n_samples != p.size for g in groups):
        raise DataError("group set covers a different number of samples")
    return p, y


def ece(scores, labels, grid: BinGrid) -> float:
    """Expected calibration error.

    Bins scores on the uniform grid and averages the absolute gap
    between per-bin accuracy and per-bin mean confidence, weighted by
    bin occupancy:

        ECE = sum_b |B_b|/n * |acc(B_b) - conf(B_b)|

    Empty bins contribute 0.
    """
    p, y = _as_scores_labels(scores, labels)
    # |B_b|/n * |acc - conf| is |sum of the residuals in b| / n.
    _, rsums = cell_sums(assign_bins(p, grid), grid.m, None, y - p)
    return float(np.sum(np.abs(rsums)) / p.size)


def brier(scores, labels) -> float:
    """Mean squared error between confidence and outcome.

    0 for perfect confidence, 0.25 for a constant 0.5 on balanced
    outcomes, 1 when confidently wrong everywhere.
    """
    p, y = _as_scores_labels(scores, labels)
    return float(np.mean((p - y) ** 2))


def base_rate(labels) -> float:
    """Fraction of positive labels."""
    y = np.asarray(labels, dtype=float)
    if y.size == 0:
        raise DataError("need at least one sample")
    return float(y.mean())


def brier_reference(labels) -> float:
    """Brier score of always predicting the base rate: p_r * (1 - p_r)."""
    rate = base_rate(labels)
    return rate * (1.0 - rate)


def brier_skill_score(scores, labels) -> float:
    """Skill relative to the base-rate predictor: (B_ref - B) / B_ref.

    Positive means better than knowing only the base rate.  On a
    degenerate reference (all labels equal, B_ref = 0) the score is 1.0
    for a perfect predictor and ``NEG_INF`` otherwise.
    """
    p, y = _as_scores_labels(scores, labels)
    b = brier(p, y)
    ref = brier_reference(y)
    if ref == 0.0:
        return 1.0 if b == 0.0 else NEG_INF
    return (ref - b) / ref


def accuracy_at_half(scores, labels) -> float:
    """Accuracy of thresholding confidence at 0.5 (0.5 itself predicts positive)."""
    p, y = _as_scores_labels(scores, labels)
    predicted = (p >= 0.5).astype(float)
    return float(np.mean(predicted == y))


def gasce(scores, labels, member_mask, grid: BinGrid) -> float:
    """Group-wise average squared calibration error.

    Over the samples of one group, bins are weighted by their share of
    the group and the squared mean residual ``mean(y - p)`` inside each
    bin is accumulated:

        gASCE(g) = sum_b P(b | g) * mean(y - p | g, b)^2

    Raises on an empty group: there is nothing to average.
    """
    p, y = _as_scores_labels(scores, labels)
    g = np.asarray(member_mask)
    if g.shape != p.shape:
        raise DataError("member mask must parallel the scores")
    g = check_membership(g[:, None], 1)[:, 0].astype(bool)
    if not g.any():
        raise DegenerateGroupError("gasce of an empty group is undefined")
    sums = cell_sums(assign_bins(p[g], grid), grid.m, None, y[g] - p[g])
    return float(_gasce(*sums)[0])


def _gasce(counts, rsums) -> np.ndarray:
    """gASCE per row of ``(k, m)`` cell sums; rows without members give 0."""
    delta = rsums / np.maximum(counts, 1)
    share = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return np.sum(share * delta * delta, axis=1)


def multicalibration_check(
    scores, labels, groups: GroupSet, grid: BinGrid, alpha: float
) -> dict[str, dict]:
    """Check ``P(g) * gASCE(g) < alpha`` for every group.

    Returns one entry per group with its mass, weighted error, and
    verdict.  Zero-mass groups pass vacuously and carry no error value.
    """
    p, y = _as_scores_labels(scores, labels, groups)
    if not alpha > 0.0:
        raise DataError(f"alpha must be positive, got {alpha}")
    pairs = member_pairs(groups.membership)
    counts, rsums = cell_sums(assign_bins(p, grid), grid.m, pairs, y - p)
    result: dict[str, dict] = {}
    for name, count, err in zip(groups.names, counts.sum(axis=1), _gasce(counts, rsums)):
        if count == 0:
            result[name] = {"pass": True, "vacuous": True, "mass": 0.0, "weighted_gasce": None}
            continue
        mass = float(count / p.size)
        weighted = float(mass * err)
        result[name] = {
            "pass": bool(weighted < alpha),
            "vacuous": False,
            "mass": mass,
            "weighted_gasce": weighted,
        }
    return result


def reliability_table(scores, labels, grid: BinGrid) -> list[tuple[int, int, float, float]]:
    """Rows ``(bin, count, conf, acc)`` for every occupied bin, ascending."""
    p, y = _as_scores_labels(scores, labels)
    sums = cell_sums(assign_bins(p, grid), grid.m, None, y - p, y)
    counts, rsums, ysums = (table[0].tolist() for table in sums)
    return [
        (b, c, (sy - sr) / c, sy / c)
        for b, c, sr, sy in zip(range(1, grid.m + 1), counts, rsums, ysums)
        if c
    ]


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


def evaluate(scores, labels, grid: BinGrid, groups: GroupSet | None = None) -> EvalReport:
    """Compute the full report for one score vector.

    Zero-mass groups are listed in the summary with a degenerate marker
    but contribute no gASCE entry.
    """
    p, y = _as_scores_labels(scores, labels)
    per_group: dict[str, float] = {}
    summary: dict[str, dict] = {}
    if groups is not None:
        if groups.n_samples != p.size:
            raise DataError("group set covers a different number of samples")
        pairs = member_pairs(groups.membership)
        counts, rsums, ysums = cell_sums(assign_bins(p, grid), grid.m, pairs, y - p, y)
        totals = zip(counts.sum(axis=1).tolist(), rsums.sum(axis=1), ysums.sum(axis=1))
        for name, (count, rsum, ysum), err in zip(groups.names, totals, _gasce(counts, rsums)):
            if count == 0:
                summary[name] = {"count": 0, "mean_conf": None, "accuracy": None, "degenerate": True}
                continue
            per_group[name] = float(err)
            summary[name] = {
                "count": count,
                "mean_conf": float((ysum - rsum) / count),
                "accuracy": float(ysum / count),
                "degenerate": False,
            }
    return EvalReport(
        n_samples=p.size,
        grid_m=grid.m,
        ece=ece(p, y, grid),
        brier=brier(p, y),
        brier_ref=brier_reference(y),
        bss=brier_skill_score(p, y),
        accuracy=accuracy_at_half(p, y),
        base_rate=base_rate(y),
        per_group_gasce=per_group,
        group_summary=summary,
        reliability=reliability_table(p, y, grid),
    )
