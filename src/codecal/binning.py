"""Uniform confidence bins and the matching score grid.

A grid with ``m`` bins partitions [0, 1] into half-open intervals
``[(i-1)/m, i/m)``; the last bin is closed at 1.0 so every admissible
score lands somewhere.  The grid values themselves are ``{i/m}`` for
``i = 1..m``: there is no zero point, so rounding never produces a
confidence of exactly 0.

:func:`cell_sums` counts and sums per (group, cell) over the member
lists of a :class:`~codecal.groups.GroupSet`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .report import MAX_GRID_M

__all__ = [
    "MAX_GRID_M",
    "BinGrid",
    "assign_bins",
    "round_to_grid_index",
    "cell_sums",
]


@dataclass(frozen=True)
class BinGrid:
    """Uniform grid over [0, 1] with ``m`` bins, ``2 <= m <= MAX_GRID_M``."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or not 2 <= self.m <= MAX_GRID_M:
            raise DataError(f"bin grid needs an integer m from 2 to {MAX_GRID_M}, got {self.m!r}")


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


def round_to_grid_index(scores, grid: BinGrid) -> np.ndarray:
    """1-based index of the nearest grid value, ties rounding up.

    Scores below ``1/(2m)`` still map to index 1 because the grid has no
    zero point.
    """
    p = np.asarray(scores, dtype=float)
    _check_unit_range(p)
    idx = np.floor(p * grid.m + 0.5).astype(int)
    return np.clip(idx, 1, grid.m)


def cell_sums(cells, m: int, groups, *weights, among=None) -> tuple[np.ndarray, ...]:
    """Per-(group, cell) member counts, then one sum per per-row weight, each ``(k, m)``.

    ``cells`` are 1-based.  ``groups`` is a :class:`~codecal.groups.GroupSet`,
    or ``None`` for one group holding every row; ``among`` counts only
    those rows of ``groups``.  Every sum adds a group's members in row
    order, so counting only the rows of some cells gives those cells'
    sums bit for bit.
    """
    cells = np.asarray(cells)
    if groups is None:
        k, flat, rows = 1, cells - 1, slice(None)
    else:
        k = len(groups.names)
        group, rows = groups.pairs(among)
        flat = group * m + cells[rows] - 1
    tables = [np.bincount(flat, minlength=k * m)]
    for w in weights:
        tables.append(np.bincount(flat, weights=np.asarray(w, dtype=float)[rows], minlength=k * m))
    return tuple(table.reshape(k, m) for table in tables)
