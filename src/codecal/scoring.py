"""Raw confidence scores from token log probabilities.

The score for a sample is the geometric mean of its token
probabilities, ``exp(mean(token_logprobs))``, computed over a selectable
token window: the whole sequence, only the extracted code span, or only
the trailing tokens.
"""

import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

from .data import (
    Sample,
    atomic_outputs,
    line_ranges,
    loads_floats_as_bytes,
    read_columns,
    read_ranges,
)
from .errors import DataError, MissingCodeError, RecordError

__all__ = [
    "ConfidenceMethod",
    "ScoredSplit",
    "score_sample",
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
class ScoredSplit:
    """One scored split as columns: what calibration reads of each record.

    ``methods`` lists the distinct scoring methods of the records,
    sorted; a file written by :func:`score_file` has exactly one.
    """

    p_hat: "np.ndarray"
    labels: "np.ndarray"
    methods: tuple[str, ...]
    columns: "GroupColumns"


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


def _score_lines(records, out, method: ConfidenceMethod, skip_missing: bool) -> tuple[int, int]:
    """Write the scored line of each record to ``out``; returns the scored and skipped counts.

    ``records`` yields ``(lineno, raw, obj, sample)`` as
    :func:`~codecal.data.read_ranges` does with ``records``.  ``out`` is
    flushed at the end, so its bytes can be copied from its binary buffer.
    """
    name_json = json.dumps(method.name)
    scored = skipped = 0
    for _, raw, obj, sample in records:
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
    out.flush()
    return scored, skipped


def score_file(
    input_path: str, output_path: str, method: ConfidenceMethod, skip_missing: bool = False
) -> tuple[int, int]:
    """Score a record JSONL file on every CPU; returns the scored and skipped counts.

    Each output line is its input line with ``"method"`` and ``"p_hat"``
    appended, so unknown keys, key order and the token array's text
    pass through untouched.  A line that already carries either key is
    re-encoded with both replaced.  A record :func:`score_sample`
    refuses (no usable code span, no tokens) fails the run, or with
    ``skip_missing`` is left out and counted.  The output is written to
    a temporary file beside ``output_path`` and moved into place only
    when every line succeeded, so a failed run leaves ``output_path``
    as it was.

    The input is read by :func:`~codecal.data.read_ranges`, so the
    output, the counts and the first error in line order do not depend
    on the number of CPUs.  Each range read in a child is written to
    its own unnamed temporary file beside ``output_path`` and appended
    to the output in line order, so memory does not grow with the file.
    """
    with atomic_outputs(output_path) as (out,), contextlib.ExitStack() as stack:
        bounds = line_ranges(input_path)
        folder = os.path.dirname(output_path) or "."
        outs = [out]
        for _ in bounds[1:]:
            part = tempfile.TemporaryFile("w+", encoding="utf-8", dir=folder)
            outs.append(stack.enter_context(part))

        def read(k, records):
            return _score_lines(records, outs[k], method, skip_missing)

        counts = read_ranges(input_path, bounds, read, records=True)
        # _score_lines flushed range 0 into ``out``, so each part follows it.
        for part in outs[1:]:
            part.seek(0)
            shutil.copyfileobj(part.buffer, out.buffer)
    return sum(scored for scored, _ in counts), sum(skipped for _, skipped in counts)


def _intern(value: str | None) -> str | None:
    return value if value is None else sys.intern(value)


def _scored_row(lineno: int, obj: dict, sample: Sample) -> tuple:
    """p_hat, label, method, sample id, language and difficulty of one scored record.

    Method, language and difficulty are interned, so rows share one
    object per distinct value.
    """
    p_hat = obj.get("p_hat")
    if type(p_hat) is bytes:
        p_hat = float(p_hat)
    if not isinstance(p_hat, (int, float)) or isinstance(p_hat, bool):
        raise RecordError("missing or non-numeric p_hat", line=lineno, sample_id=sample.sample_id)
    p_hat = float(p_hat)
    if not 0.0 <= p_hat <= 1.0 or not math.isfinite(p_hat):
        raise RecordError(f"p_hat {p_hat!r} outside [0, 1]", line=lineno, sample_id=sample.sample_id)
    method = obj.get("method")
    if not isinstance(method, str):
        raise RecordError("missing method", line=lineno, sample_id=sample.sample_id)
    language, difficulty = sys.intern(sample.language), _intern(sample.difficulty)
    return (p_hat, sample.label, sys.intern(method), sample.sample_id, language, difficulty)


def load_scored(path: str, grouping: "GroupingConfig | None" = None) -> ScoredSplit:
    """Load a file written by :func:`score_file` as columns.

    Every line is validated as a record and read by
    :func:`~codecal.data.read_columns` on every CPU, but only
    ``p_hat``, the label, the grouping fields and the
    :data:`~codecal.groups.TEXT_FEATURES` that ``grouping`` reads
    (every one for None) outlive it.  Token arrays and code texts are
    dropped as each line is read, so memory grows with neither the
    number of tokens nor the length of the code.  No token value is
    read, so floats stay undecoded
    (:func:`~codecal.data.loads_floats_as_bytes`) and token arrays are
    checked as text, with the same results.
    numpy and grouping load here, so ``score`` starts without them.
    """
    import numpy as np

    from .groups import TEXT_FEATURES, GroupColumns, text_features

    names = tuple(TEXT_FEATURES) if grouping is None else grouping.text_features
    measures = [TEXT_FEATURES[name] for name in names]

    def row(lineno, obj, sample):
        return _scored_row(lineno, obj, sample) + text_features(sample.code_text, measures)

    p_hats, labels, methods, ids, languages, difficulties, known, *values = read_columns(
        path, row, 7 + len(names), records=True, loads=loads_floats_as_bytes
    )
    # Ranges read in other processes bring their own copy of each value.
    shared = [_intern(v) for v in languages], [_intern(v) for v in difficulties]
    return ScoredSplit(
        p_hat=np.array(p_hats, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        methods=tuple(sorted(set(methods))),
        columns=GroupColumns(ids, *shared, known, dict(zip(names, values))),
    )
