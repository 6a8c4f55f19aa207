"""Record schema, line-delimited JSON ingestion, and problem-level splits.

One record describes one generated solution attempt: which problem it
answers, the per-token log probabilities the model assigned to its own
output, and whether the attempt passed its tests.  Splitting happens at
the problem level so that no problem contributes samples to more than
one of train/val/test.
"""

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .errors import AlignmentError, RecordError, SplitError

__all__ = [
    "Sample",
    "Dataset",
    "SplitSpec",
    "iter_json_lines",
    "iter_records",
    "load_records",
    "save_records",
    "atomic_outputs",
    "extract_code_span",
    "assign_problem_splits",
    "split_by_problem",
]

_REQUIRED_KEYS = ("problem_id", "sample_id", "language", "token_logprobs", "label")
_FLOAT = frozenset({float})
_FLOAT_OR_INT = frozenset({float, int})


@dataclass
class Sample:
    """One generation attempt with its token log probabilities and outcome."""

    problem_id: str
    sample_id: str
    language: str
    token_logprobs: list[float]
    label: int
    code_span: tuple[int, int] | None = None
    difficulty: str | None = None
    code_text: str | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "problem_id": self.problem_id,
            "sample_id": self.sample_id,
            "language": self.language,
            "token_logprobs": self.token_logprobs,
            "label": self.label,
        }
        if self.code_span is not None:
            out["code_span"] = list(self.code_span)
        if self.difficulty is not None:
            out["difficulty"] = self.difficulty
        if self.code_text is not None:
            out["code_text"] = self.code_text
        return out


@dataclass
class Dataset:
    """A list of samples plus a free-form provenance note."""

    samples: list[Sample]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


@dataclass(frozen=True)
class SplitSpec:
    """Problem-level split fractions and the hash seed that fixes the split."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        for name, frac in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not frac > 0.0:
                raise SplitError(f"{name} fraction must be positive, got {frac}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise SplitError(
                f"split fractions must sum to 1, got {self.train + self.val + self.test}"
            )


def _token_logprobs(lps, line: int | None, sid: str) -> list[float]:
    """Validated float copy of a record's ``token_logprobs`` value.

    Plain float/int lists are checked in bulk: a list whose maximum is
    <= 0 and whose sum is finite holds no NaN, infinity or positive
    value.  Any other list goes through the per-value checks, which
    pick the error message.
    """
    kinds = set(map(type, lps)) if isinstance(lps, list) else None
    if kinds is None or not (
        kinds <= _FLOAT_OR_INT
        or all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in lps)
    ):
        raise RecordError("token_logprobs must be a list of numbers", line=line, sample_id=sid)
    if kinds <= _FLOAT:
        lps = lps[:]
    else:
        try:
            lps = [float(v) for v in lps]
        except OverflowError:
            raise RecordError(
                "token logprob integer is too large for a float", line=line, sample_id=sid
            ) from None
    if lps and (max(lps) > 0.0 or not math.isfinite(sum(lps))):
        for v in lps:
            if not math.isfinite(v) or v > 0.0:
                raise RecordError(
                    f"token logprob {v!r} must be finite and <= 0", line=line, sample_id=sid
                )
    return lps


def parse_record(obj: dict, line: int | None = None) -> Sample:
    """Validate one decoded JSON object and build a Sample.

    Unknown keys are ignored so augmented records (for example scored
    ones) can pass through.
    """
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object", line=line)
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise RecordError(f"missing required key {key!r}", line=line)
    sid = obj["sample_id"]
    if not isinstance(sid, str) or not sid:
        raise RecordError("sample_id must be a non-empty string", line=line)
    pid = obj["problem_id"]
    if not isinstance(pid, str) or not pid:
        raise RecordError("problem_id must be a non-empty string", line=line, sample_id=sid)
    lang = obj["language"]
    if not isinstance(lang, str) or not lang:
        raise RecordError("language must be a non-empty string", line=line, sample_id=sid)

    lps = _token_logprobs(obj["token_logprobs"], line, sid)

    label = obj["label"]
    if isinstance(label, bool) or label not in (0, 1):
        raise RecordError(f"label must be 0 or 1, got {label!r}", line=line, sample_id=sid)

    span = None
    if obj.get("code_span") is not None:
        raw = obj["code_span"]
        ok = (
            isinstance(raw, (list, tuple))
            and len(raw) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
        )
        if not ok:
            raise RecordError("code_span must be a pair of integers", line=line, sample_id=sid)
        start, end = raw
        if not (0 <= start < end <= len(lps)):
            raise RecordError(
                f"code_span [{start}, {end}) outside 0..{len(lps)}", line=line, sample_id=sid
            )
        span = (start, end)

    difficulty = obj.get("difficulty")
    if difficulty is not None and not isinstance(difficulty, str):
        raise RecordError("difficulty must be a string", line=line, sample_id=sid)
    code_text = obj.get("code_text")
    if code_text is not None and not isinstance(code_text, str):
        raise RecordError("code_text must be a string", line=line, sample_id=sid)

    return Sample(
        problem_id=pid,
        sample_id=sid,
        language=lang,
        token_logprobs=lps,
        label=int(label),
        code_span=span,
        difficulty=difficulty,
        code_text=code_text,
    )


def iter_json_lines(path: str):
    """Yield ``(lineno, raw_line, obj)`` for each non-blank line of a JSONL file.

    Malformed JSON raises :class:`RecordError` naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise RecordError(f"malformed JSON: {exc.msg}", line=lineno) from exc
            yield lineno, raw, obj


def iter_records(path: str):
    """Yield ``(lineno, raw_line, obj, sample)`` for each record line of a JSONL file.

    Lines are read by :func:`iter_json_lines`.  Schema violations and
    duplicate sample ids raise :class:`RecordError` naming the offending
    line.  ``obj`` is the decoded JSON object, so callers can read keys
    beyond the record schema.
    """
    seen: set[str] = set()
    for lineno, raw, obj in iter_json_lines(path):
        sample = parse_record(obj, line=lineno)
        if sample.sample_id in seen:
            raise RecordError("duplicate sample_id", line=lineno, sample_id=sample.sample_id)
        seen.add(sample.sample_id)
        yield lineno, raw, obj, sample


def load_records(path: str, provenance: str | None = None) -> Dataset:
    """Load a line-delimited JSON file of samples; errors as in :func:`iter_records`."""
    samples = [sample for _, _, _, sample in iter_records(path)]
    return Dataset(samples, provenance=provenance if provenance is not None else path)


def save_records(dataset, path: str) -> None:
    """Write the samples of a Dataset or any iterable of Samples as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in dataset:
            fh.write(json.dumps(sample.to_dict(), sort_keys=True))
            fh.write("\n")


@contextlib.contextmanager
def atomic_outputs(*paths: str):
    """Yield text files for writing that replace ``paths`` only if the block succeeds.

    Each file is written beside its target under a temporary name and
    moved into place with ``os.replace`` once every file is closed; on
    any error the temporary files are deleted, so the targets keep
    their previous contents.
    """
    tmp_paths = [
        os.path.join(head, f".{tail}.{os.getpid()}.tmp") for head, tail in map(os.path.split, paths)
    ]
    try:
        with contextlib.ExitStack() as stack:
            yield tuple(stack.enter_context(open(tmp, "w", encoding="utf-8")) for tmp in tmp_paths)
        for tmp, path in zip(tmp_paths, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmp_paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def extract_code_span(text: str, token_offsets: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Token index range of the first complete fenced code block in ``text``.

    A block opens at a line starting with three backticks and closes at
    the next such line; the span covers the tokens overlapping the text
    between those two fence lines.  Returns None when no complete block
    exists or the block holds no tokens.
    """
    prev_end = 0
    for start, end in token_offsets:
        if start > end or start < prev_end:
            raise AlignmentError(
                f"token offsets must be non-overlapping and ascending, got [{start}, {end})"
            )
        if end > len(text):
            raise AlignmentError(f"token offset {end} beyond text length {len(text)}")
        prev_end = end

    fence_spans = []
    pos = 0
    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            fence_spans.append((pos, pos + len(line)))
            if len(fence_spans) == 2:
                break
        pos += len(line)
    if len(fence_spans) < 2:
        return None
    content_start = fence_spans[0][1]
    content_end = fence_spans[1][0]
    if content_start >= content_end:
        return None

    first = None
    last = None
    for t, (start, end) in enumerate(token_offsets):
        if end > content_start and start < content_end:
            if first is None:
                first = t
            last = t
    if first is None:
        return None
    return (first, last + 1)


def _hash64(seed: int, problem_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{problem_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def assign_problem_splits(problem_ids, spec: SplitSpec) -> dict[str, str]:
    """Map each unique problem id to "train", "val", or "test".

    Ids are ordered by a seeded SHA-256 hash, which keeps the split
    independent of input order and identical across platforms, then cut
    at the fraction boundaries.
    """
    unique = sorted(set(problem_ids))
    if len(unique) < 3:
        raise SplitError(f"need at least 3 unique problem ids, got {len(unique)}")
    ranked = sorted(unique, key=lambda pid: (_hash64(spec.seed, pid), pid))
    n = len(ranked)
    cut_train = int(n * spec.train)
    cut_val = int(n * (spec.train + spec.val))
    parts = {
        "train": ranked[:cut_train],
        "val": ranked[cut_train:cut_val],
        "test": ranked[cut_val:],
    }
    for name, ids in parts.items():
        if not ids:
            raise SplitError(
                f"{name} split is empty for {n} problems with fractions "
                f"({spec.train}, {spec.val}, {spec.test})"
            )
    assignment: dict[str, str] = {}
    for name, ids in parts.items():
        for pid in ids:
            assignment[pid] = name
    return assignment


def split_by_problem(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into train/val/test along problem boundaries."""
    assignment = assign_problem_splits((s.problem_id for s in dataset), spec)
    buckets: dict[str, list[Sample]] = {"train": [], "val": [], "test": []}
    for sample in dataset:
        buckets[assignment[sample.problem_id]].append(sample)
    note = dataset.provenance
    return (
        Dataset(buckets["train"], provenance=f"{note} [train]"),
        Dataset(buckets["val"], provenance=f"{note} [val]"),
        Dataset(buckets["test"], provenance=f"{note} [test]"),
    )
