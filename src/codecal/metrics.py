"""Calibration metrics: :func:`evaluate` gathers every one into an :class:`EvalReport`.

Metrics take parallel arrays of confidence scores in [0, 1] and binary
outcome labels.  Binned quantities use the uniform grid from
:mod:`codecal.binning`; empty bins contribute nothing.  They read
per-(group, bin) counts, residual sums ``sum(y - p)`` and label sums
from :func:`binning.cell_sums`: one call for all groups, and one for
the whole sample.
"""

import numpy as np

from .binning import BinGrid, assign_bins, cell_sums
from .errors import DataError
from .groups import GroupSet
from .report import NEG_INF, EvalReport

__all__ = ["NEG_INF", "brier_skill_score", "EvalReport", "evaluate"]


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


def _skill(brier: float, reference: float) -> float:
    """Skill relative to the base-rate predictor: (B_ref - B) / B_ref.

    B_ref = rate * (1 - rate) is the Brier score of always predicting
    the base rate.  On a degenerate reference (all labels equal, B_ref =
    0) the skill is 1.0 for a perfect predictor and ``NEG_INF`` otherwise.
    """
    if reference == 0.0:
        return 1.0 if brier == 0.0 else NEG_INF
    return (reference - brier) / reference


def brier_skill_score(scores, labels) -> float:
    """The ``bss`` of :func:`evaluate`, without the rest of its report.

    Positive means better than knowing only the base rate.
    """
    p, y = _as_scores_labels(scores, labels)
    rate = float(y.mean())
    return _skill(float(np.mean((p - y) ** 2)), rate * (1.0 - rate))


def evaluate(scores, labels, grid: BinGrid, groups: GroupSet | None = None) -> EvalReport:
    """Compute the full report for one score vector.

    Scores are binned once.  One groupless table of per-bin counts,
    residual sums ``sum(y - p)`` and label sums gives both the ECE,

        ECE = sum_b |B_b|/n * |acc(B_b) - conf(B_b)| = sum_b |sum of residuals in b| / n,

    and the reliability rows ``(bin, count, conf, acc)`` of the occupied
    bins; the Brier score is the mean squared error ``mean((p - y)^2)``
    and the accuracy thresholds at 0.5, which predicts positive.  Each
    group's gASCE, its group-wise average squared calibration error,
    weights its bins by their share of the group:

        gASCE(g) = sum_b P(b | g) * mean(y - p | g, b)^2

    Zero-mass groups are listed in the summary with a degenerate marker
    but contribute no gASCE entry.
    """
    p, y = _as_scores_labels(scores, labels, *([] if groups is None else [groups]))
    bins = assign_bins(p, grid)
    per_group: dict[str, float] = {}
    summary: dict[str, dict] = {}
    if groups is not None:
        counts, rsums, ysums = cell_sums(bins, grid.m, groups, y - p, y)
        delta = rsums / np.maximum(counts, 1)
        share = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        gasce = np.sum(share * delta * delta, axis=1)
        totals = zip(counts.sum(axis=1).tolist(), rsums.sum(axis=1), ysums.sum(axis=1))
        for name, (count, rsum, ysum), err in zip(groups.names, totals, gasce):
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
    counts, rsums, ysums = cell_sums(bins, grid.m, None, y - p, y)
    brier = float(np.mean((p - y) ** 2))
    rate = float(y.mean())
    reference = rate * (1.0 - rate)
    rows = zip(range(1, grid.m + 1), *(table[0].tolist() for table in (counts, rsums, ysums)))
    return EvalReport(
        n_samples=p.size,
        grid_m=grid.m,
        ece=float(np.sum(np.abs(rsums)) / p.size),
        brier=brier,
        brier_ref=reference,
        bss=_skill(brier, reference),
        accuracy=float(np.mean((p >= 0.5) == y)),
        base_rate=rate,
        per_group_gasce=per_group,
        group_summary=summary,
        reliability=[(b, c, (sy - sr) / c, sy / c) for b, c, sr, sy in rows if c],
    )
