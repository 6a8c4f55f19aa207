"""Raw confidence scores from token log probabilities.

The score for a sample is the geometric mean of its token
probabilities, ``exp(mean(token_logprobs))``, computed over a selectable
token window: the whole sequence, only the extracted code span, or only
the trailing tokens.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Sample, atomic_outputs, iter_records
from .errors import DataError, MissingCodeError, RecordError
from .groups import GroupColumns

__all__ = [
    "ConfidenceMethod",
    "ScoredSample",
    "ScoredSplit",
    "score_sample",
    "score_dataset",
    "score_file",
    "load_scored",
]

METHOD_NAMES = ("avg_prob", "code_prob", "tail_prob")
DEFAULT_TAIL_TOKENS = 40


@dataclass(frozen=True)
class ConfidenceMethod:
    """Which token window feeds the mean log probability."""

    name: str
    tail_tokens: int = DEFAULT_TAIL_TOKENS

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise DataError(f"unknown confidence method {self.name!r}, expected one of {METHOD_NAMES}")
        if self.name == "tail_prob" and self.tail_tokens < 1:
            raise DataError(f"tail_tokens must be >= 1, got {self.tail_tokens}")


@dataclass
class ScoredSample:
    """A sample paired with its raw confidence score in (0, 1]."""

    sample: Sample
    p_hat: float
    method: str


@dataclass
class ScoredSplit:
    """One scored split as columns: what calibration reads of each record.

    ``methods`` lists the distinct scoring methods of the records,
    sorted; a file written by :func:`score_file` has exactly one.
    """

    p_hat: np.ndarray
    labels: np.ndarray
    methods: tuple[str, ...]
    columns: GroupColumns


def score_sample(sample: Sample, method: ConfidenceMethod) -> float:
    """Raw confidence for one sample under the given method."""
    lps = sample.token_logprobs
    if not lps:
        raise DataError(f"sample {sample.sample_id!r} has no tokens to score")
    if method.name == "avg_prob":
        window = lps
    elif method.name == "code_prob":
        if sample.code_span is None:
            raise MissingCodeError(
                f"sample {sample.sample_id!r} has no code_span for code_prob scoring"
            )
        start, end = sample.code_span
        window = lps[start:end]
        if not window:
            raise MissingCodeError(f"sample {sample.sample_id!r} has an empty code span")
    else:
        window = lps[-min(method.tail_tokens, len(lps)):]
    return math.exp(sum(window) / len(window))


def score_dataset(
    dataset: Dataset, method: ConfidenceMethod, skip_missing: bool = False
) -> tuple[list[ScoredSample], int]:
    """Score every sample; returns the scored list and a skip tally.

    With ``skip_missing`` samples that cannot be scored under the method
    (no usable code span, empty token list) are dropped and counted
    instead of raising.
    """
    scored: list[ScoredSample] = []
    skipped = 0
    for sample in dataset:
        try:
            p_hat = score_sample(sample, method)
        except DataError:
            if skip_missing:
                skipped += 1
                continue
            raise
        scored.append(ScoredSample(sample, p_hat, method.name))
    return scored, skipped


def score_file(
    input_path: str, output_path: str, method: ConfidenceMethod, skip_missing: bool = False
) -> tuple[int, int]:
    """Score a record JSONL file line by line; returns the scored and skipped counts.

    Each output line is its input line with ``"method"`` and ``"p_hat"``
    appended, so unknown keys, key order and the token array's text
    pass through untouched.  A line that already carries either key is
    re-encoded with both replaced.  Skipping works as in
    :func:`score_dataset`.  The output is written to a temporary file
    beside ``output_path`` and moved into place only when every line
    succeeded, so a failed run leaves ``output_path`` as it was.
    """
    name_json = json.dumps(method.name)
    scored = skipped = 0
    with atomic_outputs(output_path) as (out,):
        for _, raw, obj, sample in iter_records(input_path):
            try:
                p_hat = score_sample(sample, method)
            except DataError:
                if not skip_missing:
                    raise
                skipped += 1
                continue
            if "p_hat" in obj or "method" in obj:
                obj.update(p_hat=p_hat, method=method.name)
                line = json.dumps(obj, sort_keys=True)
            else:
                line = f'{raw.rstrip()[:-1]}, "method": {name_json}, "p_hat": {p_hat!r}}}'
            out.write(line + "\n")
            scored += 1
    return scored, skipped


def load_scored(path: str) -> ScoredSplit:
    """Load a file written by :func:`score_file` as columns.

    Every line is validated as in :func:`~codecal.data.iter_records`,
    but only ``p_hat``, the label and the grouping fields outlive it, so
    memory does not grow with the number of tokens per record.
    """
    p_hats: list[float] = []
    labels: list[int] = []
    methods: set[str] = set()
    ids: list[str] = []
    languages: list[str] = []
    difficulties: list[str | None] = []
    code_texts: list[str | None] = []
    for lineno, _, obj, sample in iter_records(path):
        p_hat = obj.get("p_hat")
        if not isinstance(p_hat, (int, float)) or isinstance(p_hat, bool):
            raise RecordError("missing or non-numeric p_hat", line=lineno, sample_id=sample.sample_id)
        p_hat = float(p_hat)
        if not 0.0 <= p_hat <= 1.0 or not math.isfinite(p_hat):
            raise RecordError(f"p_hat {p_hat!r} outside [0, 1]", line=lineno, sample_id=sample.sample_id)
        method = obj.get("method")
        if not isinstance(method, str):
            raise RecordError("missing method", line=lineno, sample_id=sample.sample_id)
        p_hats.append(p_hat)
        labels.append(sample.label)
        methods.add(method)
        ids.append(sample.sample_id)
        languages.append(sample.language)
        difficulties.append(sample.difficulty)
        code_texts.append(sample.code_text)
    return ScoredSplit(
        p_hat=np.array(p_hats, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        methods=tuple(sorted(methods)),
        columns=GroupColumns(ids, languages, difficulties, code_texts),
    )
