"""Independent brute-force metric implementations for cross-checking.

Everything here is written straight from the defining formulas with
plain Python loops and no shared code with the package, so agreement
with the library is meaningful evidence rather than a tautology.
"""

import math

import numpy as np


def brute_bin_of(p: float, m: int) -> int:
    """Interval membership by direct comparison, no index arithmetic."""
    for i in range(1, m):
        if (i - 1) / m <= p < i / m:
            return i
    return m


def brute_ece(scores, labels, m: int) -> float:
    n = len(scores)
    total = 0.0
    for b in range(1, m + 1):
        members = [i for i in range(n) if brute_bin_of(scores[i], m) == b]
        if not members:
            continue
        acc = sum(labels[i] for i in members) / len(members)
        conf = sum(scores[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def brute_reliability(scores, labels, m: int) -> list[tuple[int, int, float, float]]:
    """Rows ``(bin, count, conf, acc)`` of the occupied bins, ascending."""
    rows = []
    for b in range(1, m + 1):
        members = [i for i in range(len(scores)) if brute_bin_of(scores[i], m) == b]
        if not members:
            continue
        conf = sum(scores[i] for i in members) / len(members)
        acc = sum(labels[i] for i in members) / len(members)
        rows.append((b, len(members), conf, acc))
    return rows


def brute_brier(scores, labels) -> float:
    return sum((p - y) ** 2 for p, y in zip(scores, labels)) / len(scores)


def brute_bss(scores, labels) -> float:
    rate = sum(labels) / len(labels)
    ref = rate * (1.0 - rate)
    b = brute_brier(scores, labels)
    if ref == 0.0:
        return 1.0 if b == 0.0 else float("-inf")
    return (ref - b) / ref


def brute_accuracy_at_half(scores, labels) -> float:
    hits = sum(1 for p, y in zip(scores, labels) if (1 if p >= 0.5 else 0) == y)
    return hits / len(scores)


def brute_gasce(scores, labels, members, m: int) -> float:
    group = [i for i in range(len(scores)) if members[i]]
    total = 0.0
    for b in range(1, m + 1):
        cell = [i for i in group if brute_bin_of(scores[i], m) == b]
        if not cell:
            continue
        delta = sum(labels[i] - scores[i] for i in cell) / len(cell)
        total += len(cell) / len(group) * delta * delta
    return total


def brute_nearest_grid(p: float, m: int) -> float:
    """Nearest grid value by exhaustive comparison, ties to the larger value."""
    best = 1
    best_dist = abs(p - 1 / m)
    for i in range(2, m + 1):
        dist = abs(p - i / m)
        if dist < best_dist or (dist == best_dist and i > best):
            best = i
            best_dist = dist
    return best / m


def brute_nearest_rank_quantile(values, q: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


def reference_ighb(p, y, g, m: int, alpha: float, max_iters: int = 1000):
    """Patches and stop reason of iterative group histogram binning, recounting every round.

    ``g`` is a bool ``(n, k)`` membership whose groups all have members.
    Every round rebuilds each (group, cell) count and residual sum from
    scratch, adding the rows of each group in row order.  The stop rule
    and the choice of patch read the tables with the same numpy
    reductions as the fitter, so ties in weight are broken identically.
    """
    n, k = g.shape
    cells = np.clip(np.floor(np.asarray(p, dtype=float) * m + 0.5).astype(int), 1, m)
    patches = []
    for _ in range(max_iters):
        counts = np.zeros((k, m))
        rsums = np.zeros((k, m))
        for j in range(k):
            for i in np.flatnonzero(g[:, j]):
                counts[j, cells[i] - 1] += 1
                rsums[j, cells[i] - 1] += y[i] - cells[i] / m
        deltas = rsums / np.maximum(counts, 1.0)
        weights = counts / n * deltas * deltas
        if weights.sum(axis=1).max() <= alpha:
            return patches, "error_budget"
        j, cell0 = divmod(int(np.argmax(weights)), m)
        cell, delta = cell0 + 1, float(deltas[j, cell0])
        value = min(max(cell / m + delta, 1 / m), 1.0)
        target = min(max(math.floor(value * m + 0.5), 1), m)
        if target == cell:
            return patches, "no_progress"
        cells[g[:, j] & (cells == cell)] = target
        patches.append({"group": j, "cell": cell, "delta": delta})
    return patches, "max_iters"
