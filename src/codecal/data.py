"""Record schema, line-delimited JSON ingestion, and problem-level splits.

One record describes one generated solution attempt: which problem it
answers, the per-token log probabilities the model assigned to its own
output, and whether the attempt passed its tests.  Splitting happens at
the problem level so that no problem contributes samples to more than
one of train/val/test.
"""

import contextlib
import io
import itertools
import json
import math
import os
import pickle
from dataclasses import dataclass

from .errors import DataError, RecordError, SplitError

__all__ = [
    "Sample",
    "SplitSpec",
    "iter_lines",
    "line_ranges",
    "fork_tasks",
    "read_ranges",
    "read_columns",
    "load_records",
    "save_records",
    "atomic_outputs",
    "assign_problem_splits",
]

_REQUIRED_KEYS = ("problem_id", "sample_id", "language", "token_logprobs", "label")
# line_ranges keeps smaller files in one range: forking costs more than it saves.
PARALLEL_MIN_BYTES = 1 << 20
_BLOCK_BYTES = 1 << 20
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


def _token_logprobs(lps, line: int | None, sid: str) -> list:
    """Validated copy of a record's ``token_logprobs`` value, as a list of floats.

    Float/int lists are checked in bulk: a list whose maximum is <= 0
    and whose sum is finite holds no NaN, infinity or positive value.
    Any other list goes through the per-value checks, which pick the
    error message.
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


def _open_text(path: str, start: int = 0):
    """``path`` as text from byte ``start``, a line start.

    Bytes that are not UTF-8 decode to lone surrogates, which
    :func:`_lines` reports with their line number.
    """
    fh = open(path, "rb")
    if start:
        # Only a later range seeks, so the first one can be a pipe.
        fh.seek(start)
    return io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")


def _lines(fh, lineno: int = 1, count: int | None = None):
    """Yield ``(lineno, line)`` for each non-blank line of a file from :func:`_open_text`.

    Reads the next ``count`` lines, or to the end of the file, and
    numbers them from ``lineno``.  A line that is not valid UTF-8
    raises :class:`RecordError` naming it.
    """
    for lineno, line in enumerate(itertools.islice(fh, count), start=lineno):
        if not line.strip():
            continue
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise RecordError("line is not valid UTF-8", line=lineno) from None
        yield lineno, line


def iter_lines(path: str):
    """Yield ``(lineno, line)`` for each non-blank line of a UTF-8 text file, as :func:`_lines`."""
    with _open_text(path) as fh:
        yield from _lines(fh)


def _json_lines(fh, lineno: int = 1, count: int | None = None):
    """Yield ``(lineno, line, json.loads(line))`` for each line of :func:`_lines`.

    This is the one place a JSONL line is decoded.  A line that does not
    decode raises :class:`RecordError` naming it: malformed JSON, JSON
    nested too deeply, and an integer literal too long to convert (every
    ``ValueError`` of ``json.loads``).
    """
    for lineno, line in _lines(fh, lineno, count):
        try:
            obj = json.loads(line)
        except RecursionError:
            raise RecordError("malformed JSON: nested too deeply", line=lineno) from None
        except ValueError as exc:
            reason = getattr(exc, "msg", exc)  # a JSONDecodeError's message has no position
            raise RecordError(f"malformed JSON: {reason}", line=lineno) from exc
        yield lineno, line, obj


def _records(lines, ids: dict):
    """Yield ``(lineno, raw, obj, sample)`` for each ``(lineno, raw, obj)`` of ``lines``.

    Each record's sample id goes into ``ids``, mapped to its line
    number, in line order; an id already there raises "duplicate sample_id".
    """
    for lineno, raw, obj in lines:
        sample = parse_record(obj, line=lineno)
        sid = sample.sample_id
        if sid in ids:
            raise RecordError("duplicate sample_id", line=lineno, sample_id=sid)
        ids[sid] = lineno
        yield lineno, raw, obj, sample


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or read its affinity."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _line_ends(fh, start: int, stop: int) -> int:
    """Number of text-mode line ends in bytes ``start``..``stop`` of ``fh``."""
    fh.seek(start)
    count = 0
    after_cr = False
    while start < stop:
        block = fh.read(min(_BLOCK_BYTES, stop - start))
        if not block:
            break
        start += len(block)
        count += block.count(b"\n")
        if b"\r" in block:
            count += block.count(b"\r") - block.count(b"\r\n")
        if after_cr and block.startswith(b"\n"):
            count -= 1
        after_cr = block.endswith(b"\r")
    return count


def _part_bounds(fh, size: int, parts: int) -> list[tuple[int, int, int | None]]:
    """``(start byte, first line number, line count)`` of up to ``parts`` ranges of ``fh``.

    Every range but the first starts right after a ``\\n``, which in text
    mode always ends a line; the last range runs to the end of the file
    and has no count.
    """
    starts = [0]
    for k in range(1, parts):
        pos = max(size * k // parts, starts[-1] + 1)
        fh.seek(pos - 1)
        while block := fh.read(_BLOCK_BYTES):
            at = block.find(b"\n")
            if at >= 0:
                pos += at
                break
            pos += len(block)
        if pos >= size:
            break
        starts.append(pos)
    counts = [_line_ends(fh, start, stop) for start, stop in zip(starts, starts[1:])]
    firsts = itertools.accumulate(counts, initial=1)
    return list(zip(starts, firsts, counts + [None]))


def line_ranges(path: str) -> list[tuple[int, int, int | None]]:
    """The ranges :func:`read_ranges` reads ``path`` in, as :func:`_part_bounds` gives them.

    A file of at least ``PARALLEL_MIN_BYTES`` is cut into one range per
    CPU in the affinity mask; a smaller file, or one CPU, gives one
    range, which is read in process.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        parts = _cpus()
        if parts > 1 and size >= PARALLEL_MIN_BYTES:
            return _part_bounds(fh, size, parts)
    return [(0, 1, None)]


def _fork_part(run, k: int) -> tuple[int, int]:
    """Run ``run(k)`` in a forked child; returns its pid and the pipe it answers on.

    The child pickles ``(value, None)``, or ``(None, error)`` if
    ``run(k)`` raised, into the pipe and leaves through ``os._exit``, so
    it runs no exit handlers and flushes no stdio buffer it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (run(k), None)
            except Exception as exc:  # raised by the parent, in task order
                result = (None, exc)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join_part(what: str, pid: int, read_fd: int):
    """The ``(value, error)`` a child of :func:`_fork_part` sent; reaps the child."""
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        os.waitpid(pid, 0)
    if not payload:
        raise OSError(f"a process {what} exited without a result")
    return pickle.loads(payload)


def fork_tasks(count: int, run, what: str):
    """Yield ``run(k)`` for every task ``k < count`` in task order, one process per task.

    Task 0 runs in this process once every other task has been forked
    into a child of its own.  A child sends its value back pickled over
    a pipe, so ``run`` need not be picklable but its values and
    exceptions must be.  An exception of ``run(k)`` is raised in place
    of yielding task ``k``'s value, so the first error in task order
    wins.  A child that dies without a value raises ``OSError`` naming
    ``what``.  Every child is reaped once the generator is exhausted,
    raises or is closed, so a caller that may stop early closes it
    (``contextlib.closing``), which ends the children it did not read.
    """
    children: list[tuple[int, int]] = []
    try:
        for k in range(1, count):
            children.append(_fork_part(run, k))
        yield run(0)
        while children:
            value, error = _join_part(what, *children.pop(0))
            if error is not None:
                raise error
            yield value
    finally:
        # Closing every pipe first ends each child blocked on writing its
        # result: a child holds the read ends of the pipes forked before it.
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)


def read_ranges(path: str, bounds: list, read, records: bool = False) -> list:
    """``read(k, lines)`` of every range ``k`` of a JSONL file in line order, one range per process.

    ``bounds`` comes from :func:`line_ranges`.  ``lines`` yields the
    ``(lineno, raw, obj)`` of :func:`_json_lines` for the range, or with
    ``records`` the ``(lineno, raw, obj, sample)`` of :func:`_records`,
    with line numbers counted from the start of the file and sample ids
    unique across the file.  The first error in line order is raised,
    with the same message as reading serially.

    The ranges are read by :func:`fork_tasks`, the first in this
    process and every other one in a forked child, so ``read`` need not
    be picklable but its results and errors must be.  Every range checks
    the sample ids of its own records and returns, beside the result or
    its first ``DataError`` or ``OSError``, the sample id and line number
    of each record it read.  The parent checks those against the ranges
    before, in line order, before it raises the range's own error.
    """

    def run(k):
        start, lineno, count = bounds[k]
        ids: dict[str, int] = {}
        try:
            with _open_text(path, start) as fh:
                lines = _json_lines(fh, lineno, count)
                if records:
                    lines = _records(lines, ids)
                return ids, read(k, lines), None
        except (DataError, OSError) as exc:
            return ids, None, exc

    seen: set[str] = set()
    results = []
    with contextlib.closing(fork_tasks(len(bounds), run, f"reading {path}")) as parts:
        for ids, result, error in parts:
            if not seen.isdisjoint(ids):
                sid, lineno = next((s, n) for s, n in ids.items() if s in seen)
                raise RecordError("duplicate sample_id", line=lineno, sample_id=sid)
            seen.update(ids)
            if error is not None:
                raise error
            results.append(result)
    return results


def read_columns(path: str, row, width: int, records: bool = False) -> list[list]:
    """Columns of the rows of every non-blank line of a JSONL file, decoded on every CPU.

    Without ``records`` the rows are ``row(lineno, obj)`` for the lines
    of :func:`_json_lines`; with ``records`` they are
    ``row(lineno, obj, sample)`` for the records of :func:`_records`.
    Each row is a tuple of ``width`` fields and the result holds one
    list per field.  The file is read by :func:`read_ranges`, so rows,
    line numbers and the first error in line order do not depend on the
    number of CPUs, and ``row`` need not be picklable but its fields and
    errors must be.
    """

    def read(k, lines):
        part = [[] for _ in range(width)]
        appends = [column.append for column in part]
        for lineno, _, *args in lines:
            for append, value in zip(appends, row(lineno, *args)):
                append(value)
        return part

    columns, *rest = read_ranges(path, line_ranges(path), read, records)
    for part in rest:
        for column, values in zip(columns, part):
            column.extend(values)
    return columns


def load_records(path: str) -> list[Sample]:
    """Load a line-delimited JSON file of samples through :func:`read_columns`."""
    (samples,) = read_columns(path, lambda lineno, obj, sample: (sample,), 1, records=True)
    return samples


def save_records(samples, path: str) -> None:
    """Write any iterable of Samples as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample.to_dict(), sort_keys=True))
            fh.write("\n")


@contextlib.contextmanager
def atomic_outputs(*paths: str):
    """Yield binary files for writing that replace ``paths`` only if the block succeeds.

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
            yield tuple(stack.enter_context(open(tmp, "wb")) for tmp in tmp_paths)
        for tmp, path in zip(tmp_paths, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmp_paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def assign_problem_splits(problem_ids, spec: SplitSpec) -> dict[str, str]:
    """Map each unique problem id to "train", "val", or "test".

    Ids are ordered by a seeded SHA-256 hash, which keeps the split
    independent of input order and identical across platforms, then cut
    at the fraction boundaries.
    """
    unique = sorted(set(problem_ids))
    if len(unique) < 3:
        raise SplitError(f"need at least 3 unique problem ids, got {len(unique)}")
    # Imported here: only splitting hashes, so no other command loads OpenSSL.
    from hashlib import sha256

    def rank(pid: str) -> tuple[int, str]:
        # A JSON escape can give an id a lone surrogate; ids without one hash their UTF-8.
        digest = sha256(f"{spec.seed}:{pid}".encode("utf-8", "surrogatepass")).digest()
        return int.from_bytes(digest[:8], "big"), pid

    ranked = sorted(unique, key=rank)
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

