"""Calibration metrics, and :func:`evaluate`, which gathers them into an :class:`EvalReport`.

All metrics take parallel arrays of confidence scores in [0, 1] and
binary outcome labels.  Binned quantities use the uniform grid from
:mod:`codecal.binning`; empty bins contribute nothing.  The binned
metrics read per-(group, bin) counts, residual sums ``sum(y - p)`` and
label sums from :func:`binning.cell_sums`, one call for all groups.
"""

import numpy as np

from .binning import BinGrid, assign_bins, cell_sums, member_pairs
from .errors import DataError
from .groups import GroupSet
from .report import NEG_INF, EvalReport

__all__ = [
    "NEG_INF",
    "ece",
    "brier",
    "base_rate",
    "brier_reference",
    "brier_skill_score",
    "accuracy_at_half",
    "reliability_table",
    "EvalReport",
    "evaluate",
]

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


def _gasce(counts, rsums) -> np.ndarray:
    """Group-wise average squared calibration error per row of ``(k, m)`` cell sums.

    Bins are weighted by their share of the group, and the squared mean
    residual inside each bin is accumulated:

        gASCE(g) = sum_b P(b | g) * mean(y - p | g, b)^2

    Rows without members give 0.
    """
    delta = rsums / np.maximum(counts, 1)
    share = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return np.sum(share * delta * delta, axis=1)


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


def evaluate(scores, labels, grid: BinGrid, groups: GroupSet | None = None) -> EvalReport:
    """Compute the full report for one score vector.

    Zero-mass groups are listed in the summary with a degenerate marker
    but contribute no gASCE entry.
    """
    p, y = _as_scores_labels(scores, labels, *([] if groups is None else [groups]))
    per_group: dict[str, float] = {}
    summary: dict[str, dict] = {}
    if groups is not None:
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
