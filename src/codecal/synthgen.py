"""Synthetic datasets with planted group accuracies.

Each block plants a subpopulation: a mass, a true accuracy, and a raw
confidence distribution.  Scores are encoded as a single token log
probability, so every scoring window recovers the planted confidence
exactly and tests can reason about known optima.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import DataError
from .groups import GroupSet

__all__ = ["Block", "SynthSpec", "generate"]


@dataclass(frozen=True)
class Block:
    """One planted subpopulation.

    ``scores`` is either ``("constant", c)`` with c in (0, 1] or
    ``("uniform", lo, hi)`` with 0 < lo <= hi <= 1.
    """

    name: str
    mass: float
    accuracy: float
    scores: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("block name must be non-empty")
        if not 0.0 < self.mass <= 1.0:
            raise DataError(f"block {self.name!r} mass {self.mass} outside (0, 1]")
        if not 0.0 <= self.accuracy <= 1.0:
            raise DataError(f"block {self.name!r} accuracy {self.accuracy} outside [0, 1]")
        kind = self.scores[0] if self.scores else None
        if kind == "constant":
            if len(self.scores) != 2 or not 0.0 < self.scores[1] <= 1.0:
                raise DataError(f"block {self.name!r} constant score must lie in (0, 1]")
        elif kind == "uniform":
            if len(self.scores) != 3 or not 0.0 < self.scores[1] <= self.scores[2] <= 1.0:
                raise DataError(f"block {self.name!r} uniform range must satisfy 0 < lo <= hi <= 1")
        else:
            raise DataError(f"block {self.name!r} has unknown score distribution {self.scores!r}")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    blocks: tuple
    n_samples: int
    seed: int
    languages: tuple = ()

    def __post_init__(self) -> None:
        if not self.blocks:
            raise DataError("need at least one block")
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise DataError("block names must be unique")
        total = sum(b.mass for b in self.blocks)
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"block masses must sum to 1, got {total}")


def generate(spec: SynthSpec) -> tuple[list[Sample], GroupSet]:
    """Draw samples from the spec; deterministic for a fixed seed.

    Each sample draws its block from the block masses, its score from
    the block's distribution, and its label from Bernoulli(block
    accuracy).  The block name is stamped into the difficulty field so
    label-based complexity groups work on synthetic data too.  The
    returned GroupSet marks block membership.
    """
    rng = np.random.default_rng(spec.seed)
    masses = np.array([b.mass for b in spec.blocks])
    block_idx = rng.choice(len(spec.blocks), size=spec.n_samples, p=masses / masses.sum())
    uniform_labels = rng.random(spec.n_samples)
    scores = np.empty(spec.n_samples)
    for j, block in enumerate(spec.blocks):
        mask = block_idx == j
        if block.scores[0] == "constant":
            scores[mask] = block.scores[1]
        else:
            scores[mask] = rng.uniform(block.scores[1], block.scores[2], size=int(mask.sum()))
    lang_idx = None
    if spec.languages:
        lang_idx = rng.integers(0, len(spec.languages), size=spec.n_samples)

    samples = []
    width = len(str(spec.n_samples - 1))
    for i in range(spec.n_samples):
        block = spec.blocks[int(block_idx[i])]
        label = 1 if uniform_labels[i] < block.accuracy else 0
        language = spec.languages[int(lang_idx[i])] if lang_idx is not None else "synthetic"
        samples.append(
            Sample(
                problem_id=f"prob-{i:0{width}d}",
                sample_id=f"s-{i:0{width}d}",
                language=language,
                token_logprobs=[math.log(scores[i])],
                label=label,
                code_span=(0, 1),
                difficulty=block.name,
            )
        )
    membership = np.zeros((spec.n_samples, len(spec.blocks)), dtype=np.int8)
    membership[np.arange(spec.n_samples), block_idx] = 1
    return samples, GroupSet([b.name for b in spec.blocks], membership)
