"""The README's "Library use" snippet runs against the library as it is."""

import re
from pathlib import Path

import numpy as np

from codecal import Block, ConfidenceMethod, SplitSpec, SynthSpec, generate, score_sample
from codecal.data import assign_problem_splits

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet_runs():
    spec = SynthSpec(
        blocks=(
            Block("easy", 0.5, 0.85, ("uniform", 0.4, 0.95)),
            Block("hard", 0.5, 0.35, ("uniform", 0.3, 0.8)),
        ),
        n_samples=600,
        seed=4,
        languages=("python", "cpp"),
    )
    samples, _ = generate(spec)
    for i, sample in enumerate(samples):
        sample.code_text = "if x:\n    y += 1\n" * (i % 5) + "return y\n"
    assignment = assign_problem_splits((s.problem_id for s in samples), SplitSpec(seed=1))
    parts = {"train": [], "val": [], "test": []}
    for sample in samples:
        parts[assignment[sample.problem_id]].append(sample)
    method = ConfidenceMethod("avg_prob")

    def scores_labels(split):
        return (
            np.array([score_sample(s, method) for s in split]),
            np.array([s.label for s in split], dtype=float),
        )

    (tp, ty), (vp, vy), (sp, sy) = map(scores_labels, parts.values())
    names = dict(parts, tp=tp, ty=ty, vp=vp, vy=vy, sp=sp, scores=sp, labels=sy)
    exec(compile(library_snippet(), str(README), "exec"), names)
    assert names["calibrated"].shape == sp.shape
    assert names["report"].n_samples == len(parts["test"])
