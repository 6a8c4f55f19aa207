"""Uniform confidence bins and the matching score grid.

A grid with ``m`` bins partitions [0, 1] into half-open intervals
``[(i-1)/m, i/m)``; the last bin is closed at 1.0 so every admissible
score lands somewhere.  The grid values themselves are ``{i/m}`` for
``i = 1..m``: there is no zero point, so rounding never produces a
confidence of exactly 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "MAX_GRID_M",
    "BinGrid",
    "assign_bin",
    "assign_bins",
    "round_to_grid",
    "round_to_grid_index",
    "member_pairs",
    "cell_sums",
]

# Fitters and metrics cost O(groups * m), so m is bounded well above any grid in use.
MAX_GRID_M = 10_000


@dataclass(frozen=True)
class BinGrid:
    """Uniform grid over [0, 1] with ``m`` bins, ``2 <= m <= MAX_GRID_M``."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or not 2 <= self.m <= MAX_GRID_M:
            raise DataError(f"bin grid needs an integer m from 2 to {MAX_GRID_M}, got {self.m!r}")

    @property
    def values(self) -> np.ndarray:
        """Grid values ``i/m`` for ``i = 1..m``."""
        return np.arange(1, self.m + 1) / self.m


def _check_unit_range(p: np.ndarray) -> None:
    if not p.size:
        return
    if not np.all(np.isfinite(p)):
        raise DataError("scores must be finite")
    if np.min(p) < 0.0 or np.max(p) > 1.0:
        bad = p[(p < 0.0) | (p > 1.0)][0]
        raise DataError(f"score {bad!r} outside [0, 1]")


def assign_bins(scores, grid: BinGrid) -> np.ndarray:
    """1-based bin index per score.

    Bin ``b`` covers ``[(b-1)/m, b/m)``; the last bin also contains 1.0.
    """
    p = np.asarray(scores, dtype=float)
    _check_unit_range(p)
    idx = np.floor(p * grid.m).astype(int) + 1
    return np.minimum(idx, grid.m)


def assign_bin(score: float, grid: BinGrid) -> int:
    """Bin index for a single score."""
    return int(assign_bins(np.asarray([score]), grid)[0])


def round_to_grid_index(scores, grid: BinGrid) -> np.ndarray:
    """1-based index of the nearest grid value, ties rounding up.

    Scores below ``1/(2m)`` still map to index 1 because the grid has no
    zero point.
    """
    p = np.asarray(scores, dtype=float)
    _check_unit_range(p)
    idx = np.floor(p * grid.m + 0.5).astype(int)
    return np.clip(idx, 1, grid.m)


def _match_scalar(template, out):
    """``out`` as a Python float when ``template`` is a scalar, else unchanged."""
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(out[()] if out.ndim == 0 else out)
    return out


def round_to_grid(scores, grid: BinGrid):
    """Nearest grid value per score, ties rounding up."""
    idx = round_to_grid_index(scores, grid)
    return _match_scalar(scores, idx / grid.m)


def member_pairs(membership) -> tuple[int, np.ndarray, np.ndarray]:
    """``(k, group, row)`` for the nonzero entries of an ``(n, k)`` membership matrix.

    Pairs are group-major and rows ascend within each group, so sums
    built from them add every group's members in row order.
    """
    g = np.asarray(membership)
    group, row = np.nonzero(g.T)
    return g.shape[1], group, row


def cell_sums(cells, m: int, pairs, *weights) -> tuple[np.ndarray, ...]:
    """Per-(group, cell) member counts, then one sum per per-row weight, each ``(k, m)``.

    ``cells`` are 1-based; ``pairs`` comes from :func:`member_pairs`, and
    ``None`` stands for one group holding every row.
    """
    cells = np.asarray(cells)
    if pairs is None:
        k, flat, rows = 1, cells - 1, slice(None)
    else:
        k, group, rows = pairs
        flat = group * m + cells[rows] - 1
    tables = [np.bincount(flat, minlength=k * m)]
    for w in weights:
        tables.append(np.bincount(flat, weights=np.asarray(w, dtype=float)[rows], minlength=k * m))
    return tuple(table.reshape(k, m) for table in tables)
