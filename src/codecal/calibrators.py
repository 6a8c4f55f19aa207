"""Post-hoc calibrators for raw confidence scores.

Six methods, from global to group-conditional:

* Platt scaling: a two-parameter sigmoid over the log score.
* Histogram binning: per-grid-cell additive corrections.
* Group unbiased recalibration, linear variant: one additive offset
  per group, solved by least squares on the residuals.
* Group unbiased recalibration, logistic variant: logistic regression
  on the logit score plus group indicators.
* Iterative grid patching: repeatedly shifts the worst group-cell by
  its mean residual until every group clears the error budget.
* Iterative sigmoid patching: repeatedly refits a two-parameter
  sigmoid on the worst one-sided group region, early-stopped by
  validation Brier score.

Fitting happens on grid-rounded scores for the two iterative methods,
and every patch round-trips through the same rounding, so replaying a
serialized model reproduces training outputs bit for bit.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .binning import BinGrid, cell_sums, round_to_grid_index
from .errors import (
    DataError,
    FitError,
    exact_keys,
    finite_numbers,
    schema_fields,
    strings,
    whole_number,
)
from .groups import GroupSet
from .metrics import _as_scores, _as_scores_labels
from .report import DEFAULT_EPSILON

__all__ = [
    "LOGIT_CLAMP",
    "sigmoid",
    "clamped_logit",
    "PlattModel",
    "HistogramBinningModel",
    "GcurModel",
    "IterativePatchModel",
    "fit_platt",
    "fit_histogram_binning",
    "fit_gcur_linear",
    "fit_gcur_logistic",
    "fit_ighb",
    "fit_iglb",
    "model_to_json",
    "model_from_json",
]

LOGIT_CLAMP = 1e-6
RIDGE = 1e-6
TIKHONOV = 1e-10
GRAD_TOL = 1e-8
NEWTON_MAX_ITER = 100
# Newton adds its Hessian over blocks of this many rows, so the weighted
# temporary is one block rather than a copy of X.  Every fit on at most
# this many rows is still one product.
HESSIAN_BLOCK_ROWS = 8192
PATCH_MAX_ITERS = 1000
# Why each iterative fitter may stop, as its model records it.
STOP_REASONS = {
    "ighb": ("error_budget", "max_iters", "no_progress"),
    "iglb": ("val_brier", "mass_threshold", "all_regions_skipped", "max_iters"),
}
_NEWTON_KEYS = ("converged", "grad_norm", "iterations")
_STOP_KEYS = ("converged", "iterations", "stop_reason")
_PATCH_KEYS = {"ighb": ("group", "cell", "delta"), "iglb": ("group", "bin", "side", "alpha", "beta")}
_SKIP_KEYS = ("iteration", "group", "bin", "side")

_check_scores_labels = functools.partial(_as_scores_labels, empty="need at least one sample to fit")
_check_scores = functools.partial(_as_scores, empty="need at least one score to apply")


def _match_scalar(template, out):
    """``out`` as a Python float when ``template`` is a scalar, else unchanged."""
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(out[()] if out.ndim == 0 else out)
    return out


def sigmoid(z):
    """Numerically stable logistic function."""
    z_arr = np.asarray(z, dtype=float)
    out = np.empty_like(z_arr, dtype=float)
    pos = z_arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z_arr[pos]))
    ez = np.exp(z_arr[np.logical_not(pos)])
    out[np.logical_not(pos)] = ez / (1.0 + ez)
    return _match_scalar(z, out)


def clamped_logit(p):
    """log(p / (1-p)) with p clamped into [1e-6, 1 - 1e-6] first.

    The clamp only moves saturated scores, so logit(1) is about 13.8155
    instead of infinite.
    """
    p_arr = np.asarray(p, dtype=float)
    q = np.clip(p_arr, LOGIT_CLAMP, 1.0 - LOGIT_CLAMP)
    return _match_scalar(p, np.log(q) - np.log1p(-q))


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOGIT_CLAMP))


def _weighted_gram(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``X.T @ diag(weights) @ X``, summed over blocks of ``HESSIAN_BLOCK_ROWS`` rows."""
    rows = HESSIAN_BLOCK_ROWS
    gram = (X[:rows].T * weights[:rows]) @ X[:rows]
    for lo in range(rows, len(X), rows):
        block = X[lo : lo + rows]
        gram += (block.T * weights[lo : lo + rows]) @ block
    return gram


def _newton_fit(X: np.ndarray, y: np.ndarray, loss: str) -> tuple[np.ndarray, dict]:
    """Damped Newton minimizer for mean CE or mean squared error of sigmoid(Xw).

    Ridge 1e-6 keeps the problem strictly convex (CE) or at least
    bounded (squared), so iteration from zero is deterministic.  Stops
    at gradient norm 1e-8 or 100 iterations.
    """
    n, d = X.shape
    w = np.zeros(d)

    def objective(wv: np.ndarray) -> float:
        z = X @ wv
        if loss == "ce":
            data_term = float(np.mean(np.logaddexp(0.0, z) - y * z))
        else:
            data_term = float(np.mean((sigmoid(z) - y) ** 2))
        return data_term + 0.5 * RIDGE * float(wv @ wv)

    iterations = 0
    converged = False
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        z = X @ w
        mu = sigmoid(z)
        s = mu * (1.0 - mu)
        if loss == "ce":
            grad = X.T @ (mu - y) / n + RIDGE * w
            hess = _weighted_gram(X, s) / n + RIDGE * np.eye(d)
        else:
            r = mu - y
            grad = 2.0 * X.T @ (r * s) / n + RIDGE * w
            # Gauss-Newton curvature keeps the step direction descent-safe.
            hess = 2.0 * _weighted_gram(X, s * s) / n + RIDGE * np.eye(d)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= GRAD_TOL:
            converged = True
            iterations -= 1
            break
        step = np.linalg.solve(hess, grad)
        current = objective(w)
        t = 1.0
        while t > 1e-12 and objective(w - t * step) >= current:
            t *= 0.5
        if t <= 1e-12:
            break
        w = w - t * step
    else:
        iterations = NEWTON_MAX_ITER
    info = {"converged": converged, "iterations": iterations, "grad_norm": gnorm}
    return w, info


def _kept_groups(groups: GroupSet, where: str = ""):
    """Names of the groups with members, of those without, and the former's GroupSet."""
    dropped = groups.degenerate
    kept = [name for name in groups.names if name not in dropped]
    if not kept:
        raise FitError(f"every group is empty{where}, nothing to fit")
    return kept, dropped, groups.select(kept)


def _model_groups(model, groups, n: int) -> GroupSet:
    """The groups ``model`` was fitted on, in its order, from ``groups`` over ``n`` samples."""
    if not isinstance(groups, GroupSet) or groups.n_samples != n:
        raise DataError(f"{model.method} needs a GroupSet over its {n} scores to apply")
    return groups.select(model.group_names)


@dataclass
class PlattModel:
    """sigmoid(a * log(p) + b), fitted by cross-entropy."""

    a: float
    b: float
    convergence: dict = field(default_factory=dict)
    method: str = "platt"

    def apply(self, scores, groups=None) -> np.ndarray:
        p = _check_scores(scores)
        return sigmoid(self.a * _clamped_log(p) + self.b)


@dataclass
class HistogramBinningModel:
    """Per-grid-cell additive corrections on rounded scores."""

    grid_m: int
    deltas: list[float]
    method: str = "histogram"

    def apply(self, scores, groups=None) -> np.ndarray:
        grid = BinGrid(self.grid_m)
        idx = round_to_grid_index(_check_scores(scores), grid)
        d = np.asarray(self.deltas, dtype=float)
        out = idx / grid.m + d[idx - 1]
        return np.clip(out, 0.0, 1.0)


@dataclass
class GcurModel:
    """Group unbiased recalibration, either additive or logistic."""

    variant: str
    group_names: list[str]
    lambdas: list[float] = field(default_factory=list)
    intercept: float = 0.0
    score_coef: float = 0.0
    group_coefs: list[float] = field(default_factory=list)
    dropped_groups: list[str] = field(default_factory=list)
    dependent_columns: list[str] = field(default_factory=list)
    convergence: dict = field(default_factory=dict)

    @property
    def method(self) -> str:
        return "gcur_linear" if self.variant == "linear" else "gcur_logistic"

    def apply(self, scores, groups=None) -> np.ndarray:
        p = _check_scores(scores)
        g = _model_groups(self, groups, p.size).matrix().astype(float)
        if self.variant == "linear":
            return np.clip(p + g @ np.asarray(self.lambdas), 0.0, 1.0)
        z = self.intercept + self.score_coef * clamped_logit(p) + g @ np.asarray(self.group_coefs)
        return sigmoid(z)


@dataclass
class IterativePatchModel:
    """Recorded patch sequence for the two iterative calibrators.

    Applying the model replays the patches in training order, rounding
    back to the grid after each one, so outputs are always grid values.
    """

    method: str
    grid_m: int
    group_names: list[str]
    patches: list[dict]
    stop_reason: str
    dropped_groups: list[str] = field(default_factory=list)
    alpha: float | None = None
    epsilon: float | None = None
    ls_loss: str | None = None
    val_brier_history: list[float] = field(default_factory=list)
    skipped_regions: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Whether fitting met its stop rule, rather than running out of rounds or progress."""
        return self.stop_reason not in ("max_iters", "no_progress")

    @property
    def convergence(self) -> dict:
        """Whether fitting converged, after how many patches, and why it stopped."""
        return {
            "converged": self.converged,
            "iterations": len(self.patches),
            "stop_reason": self.stop_reason,
        }

    def apply(self, scores, groups=None) -> np.ndarray:
        grid = BinGrid(self.grid_m)
        p = _check_scores(scores)
        g = _model_groups(self, groups, p.size)
        cells = round_to_grid_index(p, grid)
        for patch in self.patches:
            cells = _apply_patch(self.method, cells, g, patch, grid)
        return cells / grid.m


def _region(cells: np.ndarray, g: GroupSet, patch: dict) -> np.ndarray:
    """Rows an iglb patch refits, ascending: its group's members on one side of its bin."""
    members = g.members(patch["group"])
    at = cells[members]
    return members[at <= patch["bin"] if patch["side"] == "le" else at >= patch["bin"]]


def _ighb_target(patch: dict, grid: BinGrid) -> int:
    """Grid cell an ighb patch moves its members to."""
    value = min(max(patch["cell"] / grid.m + patch["delta"], 1.0 / grid.m), 1.0)
    return int(round_to_grid_index(value, grid)[()])


def _apply_patch(method: str, cells: np.ndarray, g: GroupSet, patch: dict, grid: BinGrid):
    """Grid cells after one ighb or iglb patch; ``cells`` itself is left as it is."""
    out = cells.copy()
    if method == "ighb":
        members = g.members(patch["group"])
        out[members[cells[members] == patch["cell"]]] = _ighb_target(patch, grid)
    else:
        members = _region(cells, g, patch)
        z = patch["alpha"] + patch["beta"] * clamped_logit(cells[members] / grid.m)
        out[members] = round_to_grid_index(sigmoid(z), grid)
    return out


def fit_platt(scores, labels) -> PlattModel:
    """Fit sigmoid(a * log(p) + b) by damped Newton on cross-entropy."""
    p, y = _check_scores_labels(scores, labels)
    if y.min() == y.max():
        raise FitError(
            "all labels identical; a sigmoid fit is degenerate, use the base rate instead"
        )
    X = np.column_stack([_clamped_log(p), np.ones_like(p)])
    w, info = _newton_fit(X, y, loss="ce")
    return PlattModel(a=float(w[0]), b=float(w[1]), convergence=info)


def fit_histogram_binning(scores, labels, grid: BinGrid) -> HistogramBinningModel:
    """Mean residual per occupied rounding cell; unseen cells keep zero."""
    p, y = _check_scores_labels(scores, labels)
    idx = round_to_grid_index(p, grid)
    deltas = np.zeros(grid.m)
    # np.mean's pairwise sums, not cell_sums' sequential ones: a calibrated
    # score can sit on a bin edge, which one ulp moves to the next bin.
    for cell in range(1, grid.m + 1):
        mask = idx == cell
        if mask.any():
            deltas[cell - 1] = float(np.mean(y[mask] - cell / grid.m))
    return HistogramBinningModel(grid_m=grid.m, deltas=deltas.tolist())


def _dependent_columns(cross: np.ndarray) -> list[int]:
    """Indices of columns in the span of the columns before them, from ``G = g.T @ g``.

    Symmetric elimination of ``G`` in column order yields the squared
    diagonal of the R factor of ``g``; a pivot at or below 1e-10 of the
    largest diagonal entry of ``G`` marks a dependent column, which is
    then left out of the elimination.
    """
    a = np.array(cross, dtype=float)
    tol = 1e-10 * a.diagonal().max()
    dependent = []
    for j in range(a.shape[0]):
        pivot = a[j, j]
        if pivot <= tol:
            dependent.append(j)
            continue
        row = a[j, j + 1 :]
        a[j + 1 :, j + 1 :] -= np.outer(row, row) / pivot
    return dependent


def fit_gcur_linear(scores, labels, groups: GroupSet) -> GcurModel:
    """One additive offset per group, least squares on the raw residuals.

    Solving the damped normal equations zeroes every group's mean
    residual up to the damping term, including overlapping groups.
    Zero-mass groups are dropped and recorded; exactly collinear
    columns are solvable thanks to the damping and get reported.
    """
    p, y = _check_scores_labels(scores, labels, groups)
    kept, dropped, g = _kept_groups(groups)
    g = g.matrix().astype(float)
    cross = g.T @ g
    lam = np.linalg.solve(cross + TIKHONOV * np.eye(len(kept)), g.T @ (y - p))
    dependent = [kept[j] for j in _dependent_columns(cross)]
    return GcurModel(
        variant="linear",
        group_names=kept,
        lambdas=lam.tolist(),
        dropped_groups=dropped,
        dependent_columns=dependent,
    )


def fit_gcur_logistic(scores, labels, groups: GroupSet) -> GcurModel:
    """Logistic regression on [1, logit(p), group indicators]."""
    p, y = _check_scores_labels(scores, labels, groups)
    if y.min() == y.max():
        raise FitError(
            "all labels identical; a logistic fit is degenerate, use the base rate instead"
        )
    # column_stack casts the 0/1 columns to float exactly, without a float copy of them.
    kept, dropped, g = _kept_groups(groups)
    X = np.column_stack([np.ones_like(p), clamped_logit(p), g.matrix()])
    w, info = _newton_fit(X, y, loss="ce")
    return GcurModel(
        variant="logistic",
        group_names=kept,
        intercept=float(w[0]),
        score_coef=float(w[1]),
        group_coefs=w[2:].tolist(),
        dropped_groups=dropped,
        convergence=info,
    )


def fit_ighb(
    scores,
    labels,
    groups: GroupSet,
    grid: BinGrid,
    alpha: float | None = None,
    max_iters: int = PATCH_MAX_ITERS,
) -> IterativePatchModel:
    """Iterative group histogram binning.

    Starts from grid-rounded scores and, while any group's
    occupancy-weighted squared residual error exceeds ``alpha``
    (default ``1/m``), shifts the worst group-cell by its mean residual
    and rounds back to the grid.  Ties go to the lowest group index,
    then the lowest cell index.  A shift that rounds back onto its own
    cell moves nothing, so every later round would choose it again:
    fitting stops there, unconverged, with reason ``no_progress``.
    """
    p, y = _check_scores_labels(scores, labels, groups)
    if alpha is None:
        alpha = 1.0 / grid.m
    if not 0.0 < alpha < np.inf:
        raise DataError(f"alpha must be positive and finite, got {alpha}")
    kept, dropped, g = _kept_groups(groups)
    n, m = p.size, grid.m
    cells = round_to_grid_index(p, grid)
    residuals = y - cells / m
    counts, rsums = cell_sums(cells, m, g, residuals)
    patches: list[dict] = []
    reason = "max_iters"
    for _ in range(max_iters):
        deltas = rsums / np.maximum(counts, 1.0)
        weights = counts / n * deltas * deltas
        if weights.sum(axis=1).max() <= alpha:
            reason = "error_budget"
            break
        # argmax walks row-major, so float ties resolve to the lowest
        # group index and then the lowest cell index.
        flat = int(np.argmax(weights))
        j, cell0 = divmod(flat, m)
        patch = {"group": j, "cell": cell0 + 1, "delta": float(deltas[j, cell0])}
        target = _ighb_target(patch, grid)
        if target == patch["cell"]:
            reason = "no_progress"
            break
        members = g.members(j)
        moved = members[cells[members] == patch["cell"]]
        cells[moved] = target
        residuals[moved] = y[moved] - target / m
        patches.append(patch)
        # Only the patched cell and its target change members.  Their rows
        # are recounted in row order, as a full recount would add them, so
        # the kept tables stay bit-equal to one.
        rows = np.flatnonzero((cells == patch["cell"]) | (cells == target))
        sub = cell_sums(cells, m, g, residuals, among=rows)
        changed = [cell0, target - 1]
        counts[:, changed] = sub[0][:, changed]
        rsums[:, changed] = sub[1][:, changed]
    return IterativePatchModel(
        method="ighb",
        grid_m=grid.m,
        group_names=kept,
        patches=patches,
        stop_reason=reason,
        dropped_groups=dropped,
        alpha=alpha,
    )


def _ranked_regions(counts, rsums, lsums, n: int):
    """Flat indices ``(j * m + b - 1) * 2 + side`` of the one-sided regions, heaviest first.

    Also returns each region's count and whether it holds one label class.
    The stable sort breaks weight ties by group, then bin, then "le" first.
    """

    def both_sides(table):
        le = np.cumsum(table, axis=1)
        ge = np.cumsum(table[:, ::-1], axis=1)[:, ::-1]
        return np.stack([le, ge], axis=2).ravel()

    cnt, rsum, lsum = both_sides(counts), both_sides(rsums), both_sides(lsums)
    delta = rsum / np.maximum(cnt, 1)
    weight = cnt / n * delta * delta
    single = (lsum == 0.0) | (lsum == cnt)
    return np.argsort(-weight, kind="stable"), cnt, single


def fit_iglb(
    train_scores,
    train_labels,
    val_scores,
    val_labels,
    train_groups: GroupSet,
    val_groups: GroupSet,
    grid: BinGrid,
    epsilon: float = DEFAULT_EPSILON,
    ls_loss: str = "ce",
    max_iters: int = PATCH_MAX_ITERS,
) -> IterativePatchModel:
    """Iterative group logit binning with validation early stopping.

    Each round scans every (group, cell, side) region of one-sided
    overlapping cells, picks the one with the largest occupancy-weighted
    squared mean residual, fits a two-parameter sigmoid on the region's
    training samples, and keeps the patch only if the validation Brier
    score of the re-rounded scores strictly improves.  Regions holding a
    single label class are skipped for the round and recorded; selection
    stops when the chosen region's mass falls below ``epsilon``.
    """
    tp, ty = _check_scores_labels(train_scores, train_labels, train_groups)
    vp, vy = _check_scores_labels(val_scores, val_labels, val_groups)
    if train_groups.names != val_groups.names:
        raise DataError("train and val group sets must list the same groups")
    if not 0.0 < epsilon < 1.0:
        raise DataError(f"epsilon must be in (0, 1), got {epsilon}")
    if ls_loss not in ("ce", "brier"):
        raise DataError(f"ls_loss must be 'ce' or 'brier', got {ls_loss!r}")
    kept, dropped, gt = _kept_groups(train_groups, " on the training split")
    gv = val_groups.select(kept)
    n = tp.size
    tcells = round_to_grid_index(tp, grid)
    vcells = round_to_grid_index(vp, grid)

    def val_brier(cells: np.ndarray) -> float:
        return float(np.mean((cells / grid.m - vy) ** 2))

    patches: list[dict] = []
    skips: list[dict] = []
    history = [val_brier(vcells)]
    reason = "max_iters"
    for iteration in range(max_iters):
        sums = cell_sums(tcells, grid.m, gt, ty - tcells / grid.m, ty)
        order, counts, single = _ranked_regions(*sums, n)
        patch = None
        stop = "all_regions_skipped"
        for flat in order.tolist():
            if counts[flat] / n < epsilon:
                stop = "mass_threshold"
                break
            j, rest = divmod(flat, 2 * grid.m)
            m0, side = divmod(rest, 2)
            region = {"group": j, "bin": m0 + 1, "side": ("le", "ge")[side]}
            if not single[flat]:
                patch = region
                break
            skips.append({"iteration": iteration, **region})
        if patch is None:
            reason = stop
            break
        t_members = _region(tcells, gt, patch)
        x = clamped_logit(tcells[t_members] / grid.m)
        w, _ = _newton_fit(np.column_stack([np.ones_like(x), x]), ty[t_members], loss=ls_loss)
        patch.update(alpha=float(w[0]), beta=float(w[1]))
        new_vcells = _apply_patch("iglb", vcells, gv, patch, grid)
        candidate_brier = val_brier(new_vcells)
        if candidate_brier >= history[-1]:
            reason = "val_brier"
            break
        tcells = _apply_patch("iglb", tcells, gt, patch, grid)
        vcells = new_vcells
        patches.append(patch)
        history.append(candidate_brier)
    return IterativePatchModel(
        method="iglb",
        grid_m=grid.m,
        group_names=kept,
        patches=patches,
        stop_reason=reason,
        dropped_groups=dropped,
        epsilon=epsilon,
        ls_loss=ls_loss,
        val_brier_history=history,
        skipped_regions=skips,
    )


# Each method's model class, as a partial that binds the field telling
# apart the methods of one class, and the keys of its document: at the top
# level beside schema_version, method and params, and in params.  Every
# key names the model attribute that holds its value.
_PATCHED = ("grid_m", "group_names", "dropped_groups", "convergence")
_MODEL_KEYS = {
    "platt": (functools.partial(PlattModel), ("convergence",), ("a", "b")),
    "histogram": (functools.partial(HistogramBinningModel), ("grid_m",), ("deltas",)),
    "gcur_linear": (
        functools.partial(GcurModel, "linear"),
        ("group_names", "dropped_groups"),
        ("lambdas", "dependent_columns"),
    ),
    "gcur_logistic": (
        functools.partial(GcurModel, "logistic"),
        ("group_names", "dropped_groups", "convergence"),
        ("intercept", "score_coef", "group_coefs"),
    ),
    "ighb": (functools.partial(IterativePatchModel, "ighb"), _PATCHED, ("patches", "alpha")),
    "iglb": (
        functools.partial(IterativePatchModel, "iglb"),
        _PATCHED,
        ("patches", "epsilon", "ls_loss", "val_brier_history", "skipped_regions"),
    ),
}


def model_to_json(model) -> str:
    """Serialize any fitted calibrator to a versioned JSON document."""
    entry = _MODEL_KEYS.get(getattr(model, "method", None))
    if entry is None or not isinstance(model, entry[0].func):
        raise DataError(f"cannot serialize {type(model).__name__}")
    _, top, inner = entry
    payload = {key: getattr(model, key) for key in top}
    payload.update(
        schema_version=1, method=model.method, params={key: getattr(model, key) for key in inner}
    )
    text = json.dumps(payload, sort_keys=True, indent=2)
    # Only a document that reloads is written, such as one with a Newton record.
    try:
        model_from_json(text)
    except DataError as exc:
        raise DataError(f"cannot serialize this {model.method} model: {exc}") from None
    return text


def _located(entry, what: str, cell: str, k: int, m: int, sided: bool) -> None:
    """Check that ``entry`` names one of k groups and one of m cells, and a side if ``sided``."""
    for key, allowed in (("group", range(k)), (cell, range(1, m + 1))):
        whole_number(entry[key], f"{what} {key}", allowed)
    if sided and entry["side"] not in ("le", "ge"):
        raise DataError(f"{what} side must be 'le' or 'ge', got {entry['side']!r}")


def _patch(method: str, patch, k: int, m: int) -> None:
    """Check that ``_apply_patch`` can replay ``patch`` on k groups and m cells."""
    iglb = method == "iglb"
    exact_keys(patch, _PATCH_KEYS[method], what="model patch")
    _located(patch, "model patch", "bin" if iglb else "cell", k, m, iglb)
    keys = ("alpha", "beta") if iglb else ("delta",)
    finite_numbers([patch[key] for key in keys], f"model patch {' and '.join(keys)}", len(keys))


def _newton_record(info) -> None:
    """Check that ``info`` is a convergence record of :func:`_newton_fit`."""
    exact_keys(info, _NEWTON_KEYS, what="model Newton record")
    if type(info["converged"]) is not bool:
        raise DataError(f"model convergence {info!r} is not a Newton record")
    whole_number(info["iterations"], "model Newton iterations", range(NEWTON_MAX_ITER + 1))
    finite_numbers([info["grad_norm"]], "model Newton grad_norm", 1)


def _check_patch_fields(method: str, doc: dict, k: int, m: int) -> None:
    """Check the fields of an ighb or iglb model on k groups and m cells."""
    conv = exact_keys(doc["convergence"], _STOP_KEYS, what="model convergence")
    if conv["stop_reason"] not in STOP_REASONS[method]:
        raise DataError(f"malformed {method} model convergence {conv!r}")
    key = "alpha" if method == "ighb" else "epsilon"
    value = doc[key]
    if value is not None and not finite_numbers([value], f"model {key}", 1)[0] > 0:
        raise DataError(f"model {key} must be positive, got {value!r}")
    for key in ("patches", "skipped_regions"):
        if not isinstance(doc.get(key, []), list):
            raise DataError(f"model {key} must be a list")
    for patch in doc["patches"]:
        _patch(method, patch, k, m)
    if method == "ighb":
        return
    if doc["ls_loss"] not in ("ce", "brier"):
        raise DataError(f"model ls_loss must be 'ce' or 'brier', got {doc['ls_loss']!r}")
    rounds = len(doc["patches"]) + 1
    finite_numbers(doc["val_brier_history"], "model val_brier_history", rounds, unit=True)
    for skip in doc["skipped_regions"]:
        exact_keys(skip, _SKIP_KEYS, what="model skipped region")
        whole_number(skip["iteration"], "model skipped region iteration", range(rounds))
        _located(skip, "model skipped region", "bin", k, m, True)


def model_from_json(text: str):
    """Rebuild a calibrator from :func:`model_to_json` output.

    Every value ``apply`` reads is checked here, so a malformed model
    raises DataError when it is loaded rather than when it is applied.
    Every object holds exactly the keys ``model_to_json`` writes, so a
    model that loads writes the same document back.
    """
    with schema_fields("model"):
        payload = json.loads(text)
        if payload.get("schema_version") != 1:
            raise DataError(f"unsupported model schema version {payload.get('schema_version')!r}")
        method = payload.get("method")
        if method not in _MODEL_KEYS:
            raise DataError(f"unknown model method {method!r}")
        build, top, inner = _MODEL_KEYS[method]
        exact_keys(payload, ("schema_version", "method", "params", *top), what="model")
        doc = {key: payload[key] for key in top}
        doc.update(exact_keys(payload["params"], inner, what="model params"))
        if "grid_m" in doc:
            m = BinGrid(doc["grid_m"]).m
        if "group_names" in doc:
            names = strings(doc["group_names"], "model group_names")
            if len(set(names)) != len(names):
                raise DataError("model group_names must be unique")
            strings(doc["dropped_groups"], "model dropped_groups")
        if method in ("platt", "gcur_logistic"):
            _newton_record(doc["convergence"])
        if method == "platt":
            finite_numbers([doc["a"], doc["b"]], "model a and b", 2)
        elif method == "histogram":
            finite_numbers(doc["deltas"], "model deltas", m)
        elif method == "gcur_linear":
            finite_numbers(doc["lambdas"], "model lambdas", len(names))
            strings(doc["dependent_columns"], "model dependent_columns")
        elif method == "gcur_logistic":
            coefs = [doc["intercept"], doc["score_coef"]]
            finite_numbers(coefs, "model intercept and score_coef", 2)
            finite_numbers(doc["group_coefs"], "model group_coefs", len(names))
        else:
            _check_patch_fields(method, doc, len(names), m)
        if method not in STOP_REASONS:
            return build(**doc)
        stored = doc.pop("convergence")
        model = build(stop_reason=stored["stop_reason"], **doc)
        # The record is derived from the stop reason and the patches; == alone
        # would take 1 for true and 1.0 for 1.
        derived = model.convergence
        if stored != derived or any(type(stored[k]) is not type(v) for k, v in derived.items()):
            raise DataError(
                f"{method} model convergence {stored!r} disagrees with its stop reason"
                f" and its {len(doc['patches'])} patches"
            )
        return model
