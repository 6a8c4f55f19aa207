"""Seeded input generator for the benchmark workloads.

Planted accuracies come from :mod:`codecal.synthgen` blocks.  Each
record's planted confidence ``c`` is expanded into ``tokens`` token log
probabilities whose mean is ``log(c)``: the log confidence is spread
over the tokens by Dirichlet(1, ..., 1) weights, so every token is
``<= 0`` and ``avg_prob`` scoring recovers ``c``.  The same seed and
size always give the same file.

Run as ``python bench/gen.py <json-args>`` with ``src`` on
``PYTHONPATH``; it writes the input file and the planted confidences
(``<path>.conf.npy``) and prints the record and token counts as JSON.
Generating in its own process keeps the benchmark process small, so
the peak RSS that stage processes report is their own.
"""

import json
import math
import sys

import numpy as np

from codecal.synthgen import Block, SynthSpec, generate

SAMPLES_PER_PROBLEM = 5
_BRANCH_LINES = (
    "if value > limit:",
    "for item in items:",
    "while queue and budget:",
    "case token of:",
    "catch err: retry()",
    "ok = left && right || other",
)
_PLAIN_LINES = (
    "total = total + item",
    "result.append(value)",
    "limit = compute(limit, step)",
    "name = prefix + str(index)",
    "count += 1",
    "return result",
)


def _code_text(rng: np.random.Generator, n_lines: int, n_branch: int) -> str:
    """``n_lines`` lines of pseudo code, ``n_branch`` of them branching."""
    lines = [_PLAIN_LINES[int(i)] for i in rng.integers(0, len(_PLAIN_LINES), n_lines)]
    for pos in rng.choice(n_lines, size=min(n_branch, n_lines), replace=False):
        lines[int(pos)] = "    " + _BRANCH_LINES[int(rng.integers(0, len(_BRANCH_LINES)))]
    return "\n".join(lines)


def _token_logprobs(rng: np.random.Generator, conf: np.ndarray, tokens: int) -> np.ndarray:
    """(n, tokens) array of non-positive log probs with row mean log(conf)."""
    weights = rng.exponential(size=(conf.size, tokens))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights * (tokens * np.log(conf))[:, None]


def _long_tokens_blocks() -> tuple:
    return (
        Block("easy", 0.40, 0.80, ("uniform", 0.50, 0.98)),
        Block("medium", 0.35, 0.55, ("uniform", 0.30, 0.90)),
        Block("hard", 0.25, 0.30, ("uniform", 0.20, 0.85)),
    )


def _many_patch_blocks(languages: int, difficulties: int) -> tuple:
    """One block per (language, difficulty, length band), fixed across seeds.

    Accuracy and score range of each block come from a fixed generator,
    so the planted miscalibration is the same for every workload seed
    and only the sampling varies.
    """
    rng = np.random.default_rng(20240517)
    combos = [
        (lang, diff, band)
        for lang in range(languages)
        for diff in range(difficulties)
        for band in ("short", "long")
    ]
    mass = 1.0 / len(combos)
    blocks = []
    for lang, diff, band in combos:
        base = 0.85 - 0.08 * diff + (0.1 if band == "short" else -0.1)
        accuracy = float(np.clip(base + rng.normal(0.0, 0.06), 0.05, 0.95))
        centre = float(np.clip(accuracy + rng.normal(0.05, 0.08), 0.15, 0.85))
        lo, hi = centre - 0.1, centre + 0.1
        name = f"lang{lang}|lvl{diff}|{band}"
        blocks.append(Block(name, mass, accuracy, ("uniform", lo, hi)))
    return tuple(blocks)


def write_long_tokens(path: str, seed: int, records: int, tokens: int) -> dict:
    """Few long records: four languages, three difficulty labels, code on every record."""
    spec = SynthSpec(
        blocks=_long_tokens_blocks(),
        n_samples=records,
        seed=seed,
        languages=("cpp", "java", "javascript", "python"),
    )
    dataset, _ = generate(spec)
    rng = np.random.default_rng([seed, 1])
    conf = np.array([math.exp(s.token_logprobs[0]) for s in dataset])
    lps = _token_logprobs(rng, conf, tokens)
    n_lines = rng.integers(9, 16, size=records)
    n_branch = rng.integers(0, 9, size=records)
    with open(path, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(dataset):
            obj = {
                "problem_id": f"lt-p{i // SAMPLES_PER_PROBLEM:06d}",
                "sample_id": f"lt-s{i:07d}",
                "language": sample.language,
                "token_logprobs": lps[i].tolist(),
                "label": sample.label,
                "code_span": [tokens // 10, tokens - tokens // 10],
                "difficulty": sample.difficulty,
                "code_text": _code_text(rng, int(n_lines[i]), int(n_branch[i])),
            }
            fh.write(json.dumps(obj))
            fh.write("\n")
    return {"records": records, "tokens": records * tokens, "conf": conf}


def write_many_patch(path: str, seed: int, records: int, tokens: int) -> dict:
    """Many short records with miscalibration planted per (language, difficulty, length band).

    Ten languages, eight difficulty labels and two length bands give,
    with the ALL group and the unknown-length group, 24 groups.
    """
    spec = SynthSpec(blocks=_many_patch_blocks(10, 8), n_samples=records, seed=seed)
    dataset, _ = generate(spec)
    rng = np.random.default_rng([seed, 2])
    conf = np.array([math.exp(s.token_logprobs[0]) for s in dataset])
    lps = _token_logprobs(rng, conf, tokens)
    with open(path, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(dataset):
            lang, diff, band = sample.difficulty.split("|")
            n_lines = int(rng.integers(2, 5) if band == "short" else rng.integers(10, 16))
            obj = {
                "problem_id": f"mp-p{i // SAMPLES_PER_PROBLEM:06d}",
                "sample_id": f"mp-s{i:07d}",
                "language": lang,
                "token_logprobs": lps[i].tolist(),
                "label": sample.label,
                "difficulty": diff,
                "code_text": _code_text(rng, n_lines, 0),
            }
            fh.write(json.dumps(obj))
            fh.write("\n")
    return {"records": records, "tokens": records * tokens, "conf": conf}


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    write = {"long-tokens": write_long_tokens, "many-patch": write_many_patch}[args["workload"]]
    info = write(args["path"], args["seed"], args["records"], args["tokens"])
    np.save(args["path"] + ".conf.npy", info.pop("conf"))
    print(json.dumps({**info, "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
