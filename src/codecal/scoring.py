"""Raw confidence scores from token log probabilities, and scored files read as columns.

The score for a sample is the geometric mean of its token
probabilities, ``exp(mean(token_logprobs))``, computed over a selectable
token window: the whole sequence, only the extracted code span, or only
the trailing tokens.

Beside each scored JSONL file, :func:`score_file` writes a column file
that holds what :func:`load_scored` keeps of each record, so reading a
scored split needs no JSON decoding.  It starts with a one-line JSON
header: the format version, the row count, the byte size and
``zlib.crc32`` of the JSONL file it describes, and the scoring method.
Two sections follow, each in line order.  The heads section holds one
fixed-width :data:`_HEAD` per row: p_hat, label, flags for a difficulty
and a code text, the ``chars`` and ``loc`` of the code text (0 without
one), and the byte length of each of the row's five strings.  The
strings section then holds the UTF-8 bytes of each row's sample id,
problem id, language, difficulty and code text.  Strings are encoded
with ``surrogatepass``, since JSON escapes can hold lone surrogates.
A column file is read only when its header matches its JSONL file's
size and checksum, so a JSONL file edited afterwards is read as JSON.
"""

import contextlib
import itertools
import json
import math
import os
import shutil
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass

from .data import Sample, atomic_outputs, line_ranges, read_columns, read_ranges
from .errors import (
    DataError,
    MissingCodeError,
    RecordError,
    exact_keys,
    schema_fields,
    whole_number,
)
from .features import TEXT_FEATURES, text_features

__all__ = [
    "ConfidenceMethod",
    "ScoredSplit",
    "score_sample",
    "score_file",
    "load_scored",
    "COLUMNS_SUFFIX",
    "write_columns",
    "open_columns",
]

METHOD_NAMES = ("avg_prob", "code_prob", "tail_prob")
DEFAULT_TAIL_TOKENS = 40

# The column file of ``scored.jsonl`` is ``scored.jsonl.cols``.
COLUMNS_SUFFIX = ".cols"
COLUMNS_VERSION = 2
_HEADER_KEYS = ("codecal_columns", "jsonl_bytes", "jsonl_crc32", "method", "rows")
# A longer first line is not a header.
_MAX_HEADER_BYTES = 4096
# A row's head: p_hat, label, flags, the chars and loc of its code text,
# and the byte lengths of its five strings.  _HEAD_DTYPE is the same
# packed layout as a numpy structured dtype.
_HEAD = struct.Struct("<dBB7I")
# The five string lengths, the last fields of a head.
_LENGTHS = struct.Struct(f"<{_HEAD.size - 20}x5I")
_HEAD_DTYPE = [
    ("p_hat", "<f8"),
    ("label", "u1"),
    ("flags", "u1"),
    ("chars", "<u4"),
    ("loc", "<u4"),
    ("lengths", "<u4", (5,)),
]
_HAS_DIFFICULTY, _HAS_CODE = 1, 2
# The text features held in the heads; the others are measured on the code texts.
_HEAD_FEATURES = ("chars", "loc")
# Small blocks keep what reading and copying hold in memory small.
_BLOCK_BYTES = 1 << 16
_BATCH_RECORDS = 64
# Rows whose strings load_scored decodes at a time.  Larger chunks leave
# more of the heap in use: on the long-tokens benchmark (2 CPUs, Python
# 3.11, numpy 2.4), fit-eval's peak RSS was 0.3 MB higher with 256 rows
# and about 0.05 MB higher with 64.
_CHUNK_ROWS = 32


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


def _score_lines(records, files, method: ConfidenceMethod, skip_missing: bool) -> tuple:
    """Write the scored line and the column-file head and strings of each record.

    ``records`` yields ``(lineno, raw, obj, sample)`` as
    :func:`~codecal.data.read_ranges` does with ``records``.  ``files``
    are the binary files for the lines, the heads and the strings, each
    flushed at the end, so a forked child leaves their bytes in place.
    Returns the scored and skipped counts and the crc32 of the lines.
    """
    name_json = json.dumps(method.name)
    scored = skipped = crc = 0
    # Lines, heads and strings are written _BATCH_RECORDS at a time, and each
    # head is made here, not in a function: this loop runs once per record.
    batch = texts, packed, joined = [], [], []
    pack = _HEAD.pack
    chars, loc = (TEXT_FEATURES[name] for name in _HEAD_FEATURES)
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
            texts.append(json.dumps(obj, sort_keys=True))
        else:
            texts.append(f'{raw.rstrip()[:-1]}, "method": {name_json}, "p_hat": {p_hat!r}}}')
        sid, pid, language = sample.sample_id, sample.problem_id, sample.language
        difficulty, code = sample.difficulty, sample.code_text
        flags = _HAS_DIFFICULTY * (difficulty is not None) + _HAS_CODE * (code is not None)
        # A missing text measures 0, as the empty text does.
        difficulty, code = difficulty or "", code or ""
        # One encode of the joined strings; each is measured apart only when one is not ASCII.
        data = f"{sid}{pid}{language}{difficulty}{code}".encode("utf-8", "surrogatepass")
        if data.isascii():
            sizes = len(sid), len(pid), len(language), len(difficulty), len(code)
        else:
            strings = sid, pid, language, difficulty, code
            sizes = [len(text.encode("utf-8", "surrogatepass")) for text in strings]
        packed.append(pack(p_hat, sample.label, flags, chars(code), loc(code), *sizes))
        joined.append(data)
        scored += 1
        if len(texts) == _BATCH_RECORDS:
            crc = _write_batch(files, batch, crc)
    crc = _write_batch(files, batch, crc)
    for file in files:
        file.flush()
    return scored, skipped, crc


def _write_batch(files, batch, crc: int) -> int:
    """Write and clear a batch of lines, heads and strings to ``files``.

    Returns ``crc`` carried over the lines' bytes.
    """
    texts, packed, joined = batch
    if texts:
        data = "\n".join(texts).encode("utf-8") + b"\n"
        lines, heads, strings = files
        lines.write(data)
        heads.write(b"".join(packed))
        strings.write(b"".join(joined))
        crc = zlib.crc32(data, crc)
    for part in batch:
        part.clear()
    return crc


def write_columns(
    out, parts, rows: int, jsonl_bytes: int, jsonl_crc32: int, method: str | None
) -> None:
    """Write a column file to binary file ``out``: its header, then the bytes of each of ``parts``.

    ``parts`` are binary files holding the heads of ``rows`` rows in
    all, in line order, then their strings, for a JSONL file of
    ``jsonl_bytes`` bytes with crc32 ``jsonl_crc32`` whose records were
    all scored by ``method`` (None when there are none).
    """
    header = {
        "codecal_columns": COLUMNS_VERSION,
        "jsonl_bytes": jsonl_bytes,
        "jsonl_crc32": jsonl_crc32,
        "method": method,
        "rows": rows,
    }
    out.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
    for part in parts:
        part.seek(0)
        shutil.copyfileobj(part, out)


def score_file(
    input_path: str, output_path: str, method: ConfidenceMethod, skip_missing: bool = False
) -> tuple[int, int]:
    """Score a record JSONL file on every CPU; returns the scored and skipped counts.

    Each output line is its input line with ``"method"`` and ``"p_hat"``
    appended, so unknown keys, key order and the token array's text
    pass through untouched.  A line that already carries either key is
    re-encoded with both replaced.  A record :func:`score_sample`
    refuses (no usable code span, no tokens) fails the run, or with
    ``skip_missing`` is left out and counted.  Beside the output goes
    its column file, ``output_path + COLUMNS_SUFFIX``, which
    :func:`load_scored` reads in place of the JSON.  Both are written
    to temporary files beside ``output_path`` and moved into place only
    when every line succeeded, so a failed run leaves both as they were.

    The input is read by :func:`~codecal.data.read_ranges`, so the
    output, the counts and the first error in line order do not depend
    on the number of CPUs.  The first range writes its lines straight
    to the output; the other ranges' lines, and every range's heads and
    strings, go to unnamed temporary files beside ``output_path``, which
    are appended to the outputs in line order, so memory does not grow
    with the file.
    """
    targets = output_path, output_path + COLUMNS_SUFFIX
    with atomic_outputs(*targets) as (out, column_file), contextlib.ExitStack() as stack:
        bounds = line_ranges(input_path)
        folder = os.path.dirname(output_path) or "."

        def part():
            return stack.enter_context(tempfile.TemporaryFile(dir=folder))

        lines = [out, *(part() for _ in bounds[1:])]
        heads = [part() for _ in bounds]
        strings = [part() for _ in bounds]

        def read(k, records):
            return _score_lines(records, (lines[k], heads[k], strings[k]), method, skip_missing)

        counts = read_ranges(input_path, bounds, read, records=True)
        # Range 0 wrote its lines to ``out``; every other range's lines follow them.
        crc = counts[0][2]
        for part_lines in lines[1:]:
            part_lines.seek(0)
            while block := part_lines.read(_BLOCK_BYTES):
                crc = zlib.crc32(block, crc)
                out.write(block)
        scored = sum(count[0] for count in counts)
        name = method.name if scored else None
        write_columns(column_file, [*heads, *strings], scored, out.tell(), crc, name)
    return scored, sum(count[1] for count in counts)


def _intern(value: str | None) -> str | None:
    return value if value is None else sys.intern(value)


def _scored_row(lineno: int, obj: dict, sample: Sample) -> tuple:
    """p_hat, label, method, sample id, language and difficulty of one scored record.

    Method, language and difficulty are interned, so rows share one
    object per distinct value.
    """
    p_hat = obj.get("p_hat")
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


def _jsonl_crc32(path: str) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            crc = zlib.crc32(block, crc)
    return crc


def _pieces(chunk: bytes, text: str, bounds: list, field: int) -> list[str]:
    """String ``field`` of each row of a strings chunk: 0 for the sample id, ... 4 for the code text.

    ``text`` is ``chunk`` decoded, and ``bounds`` the offsets in
    ``chunk`` where each string starts, then where the last one ends.
    """
    starts, ends = bounds[field::5], bounds[field + 1 :: 5]
    if len(text) == len(chunk):  # ASCII: each character is one byte
        return [text[a:b] for a, b in zip(starts, ends)]
    return [chunk[a:b].decode("utf-8", "surrogatepass") for a, b in zip(starts, ends)]


class ScoredColumns:
    """An open column file whose header matches its JSONL file; see :func:`open_columns`.

    A file too short for its heads raises ``DataError`` naming it.
    """

    def __init__(self, fh, path: str, header: dict) -> None:
        self.path = path
        self.method = header["method"]
        self.count = header["rows"]
        self._fh = fh
        self._heads_at = fh.tell()
        self._strings_at = self._heads_at + self.count * _HEAD.size
        self._strings_size = os.fstat(fh.fileno()).st_size - self._strings_at
        if self._strings_size < 0:
            raise self._error(f"ends before its {self.count} rows")

    def _error(self, problem: str) -> DataError:
        return DataError(f"column file {self.path} {problem}")

    def _unsummed(self) -> DataError:
        return self._error("has string lengths that do not sum to the size of its strings section")

    def _read(self, at: int, size: int) -> bytes:
        self._fh.seek(at)
        return self._fh.read(size)

    def rows(self):
        """Yield ``(fields, head, strings)`` for each row, from the first.

        ``fields`` are its :data:`_HEAD` fields, ``head`` their bytes and
        ``strings`` the bytes of its five strings.  The heads are read at
        once, and string lengths that do not sum to the size of the
        strings section raise ``DataError`` naming the file before any
        row is yielded.  Each row's strings are then one read.
        """
        size = self._strings_at - self._heads_at
        heads = self._read(self._heads_at, size)
        sizes = list(map(sum, _LENGTHS.iter_unpack(heads)))
        if sum(sizes) != self._strings_size:
            raise self._unsummed()
        # Reading the heads leaves the file at the strings section, which follows them.
        read = self._fh.read
        for at, fields, length in zip(range(0, size, _HEAD.size), _HEAD.iter_unpack(heads), sizes):
            yield fields, heads[at : at + _HEAD.size], read(length)

    def problem_ids(self) -> list[str]:
        """The problem id of each row."""
        with schema_fields(f"column file {self.path}"):
            return [
                strings[sid : sid + pid].decode("utf-8", "surrogatepass")
                for (_, _, _, _, _, sid, pid, *_), _, strings in self.rows()
            ]

    def table(self, names) -> list:
        """p_hat, label, sample id, language, difficulty, known, then each text feature of ``names``.

        Each column holds one entry per row: p_hat, known and the
        features are numpy arrays, the others lists.  The heads are
        read at once and checked in bulk, then the strings of
        ``_CHUNK_ROWS`` rows at a time.  Languages and difficulties are
        interned, so rows share one object per distinct value.  The
        ``chars`` and ``loc`` come from the heads; any other feature is
        measured on each code text, which is then dropped.
        """
        import numpy as np

        with schema_fields(f"column file {self.path}"):
            # Reading the heads leaves the file at the strings section, which follows them.
            heads = self._read(self._heads_at, self._strings_at - self._heads_at)
            heads = np.frombuffer(heads, _HEAD_DTYPE)
            p_hat, flags, lengths = heads["p_hat"], heads["flags"], heads["lengths"]
            # Each numpy loop run here for the first time in the process adds to
            # peak RSS, so this method keeps to loops that calibrating runs anyway:
            # no cast from uint8 to int64 and no integer cumsum.  Where flags are
            # at most 3, a row has a code text exactly when flags >= 2.
            known = flags >= _HAS_CODE
            ok = (p_hat >= 0) & (p_hat <= 1) & (heads["label"] <= 1)
            ok &= flags <= _HAS_DIFFICULTY | _HAS_CODE
            ok &= known | ((heads["chars"] == 0) & (heads["loc"] == 0))
            if not ok.all():
                raise self._error("holds a row no scored record gives")
            if int(lengths.sum(dtype=np.int64)) != self._strings_size:
                raise self._unsummed()
            measured = {name: [] for name in names if name not in _HEAD_FEATURES}
            ids, languages, difficulties = [], [], []
            for first in range(0, self.count, _CHUNK_ROWS):
                rows = slice(first, first + _CHUNK_ROWS)
                bounds = list(itertools.accumulate(lengths[rows].ravel().tolist(), initial=0))
                chunk = self._fh.read(bounds[-1])
                text = chunk.decode("utf-8", "surrogatepass")
                ids += _pieces(chunk, text, bounds, 0)
                languages += map(sys.intern, _pieces(chunk, text, bounds, 2))
                pieces = _pieces(chunk, text, bounds, 3)
                difficulties += [
                    sys.intern(d) if f & _HAS_DIFFICULTY else None
                    for d, f in zip(pieces, flags[rows].tolist())
                ]
                if measured:
                    codes = _pieces(chunk, text, bounds, 4)
                    for name, values in measured.items():
                        values += map(TEXT_FEATURES[name], codes)
        features = [
            heads[name] if name in _HEAD_FEATURES else np.where(known, measured[name], 0)
            for name in names
        ]
        return [p_hat, heads["label"].tolist(), ids, languages, difficulties, known, *features]


def _header(fh, path: str) -> dict:
    """The checked header of the column file ``path``, open as ``fh``."""
    what = f"column file {path}"
    with schema_fields(what):
        header = exact_keys(json.loads(fh.readline(_MAX_HEADER_BYTES)), _HEADER_KEYS, what=what)
    if header["codecal_columns"] != COLUMNS_VERSION:
        raise DataError(f"{what} has unsupported version {header['codecal_columns']!r}")
    rows = whole_number(header["rows"], f"{what} row count", range(2**63))
    whole_number(header["jsonl_bytes"], f"{what} JSONL size", range(2**63))
    whole_number(header["jsonl_crc32"], f"{what} JSONL crc32", range(2**32))
    method = header["method"]
    if not (isinstance(method, str) if rows else method is None):
        raise DataError(f"{what} must name its scoring method exactly when it has rows")
    return header


@contextlib.contextmanager
def open_columns(path: str):
    """Yield the column file beside scored JSONL ``path`` as :class:`ScoredColumns`, or None.

    None stands for no column file, or one whose header does not match
    ``path``'s byte size and crc32.  A column file whose header is
    malformed raises ``DataError`` naming it.
    """
    columns_path = path + COLUMNS_SUFFIX
    try:
        fh = open(columns_path, "rb")
    except FileNotFoundError:
        yield None
        return
    with fh:
        header = _header(fh, columns_path)
        matches = header["jsonl_bytes"] == os.stat(path).st_size and (
            header["jsonl_crc32"] == _jsonl_crc32(path)
        )
        yield ScoredColumns(fh, columns_path, header) if matches else None


def load_scored(path: str, grouping: "GroupingConfig | None" = None) -> ScoredSplit:
    """Load a file written by :func:`score_file` as columns.

    Only ``p_hat``, the label, the grouping fields and the
    :data:`~codecal.features.TEXT_FEATURES` that ``grouping`` reads
    (every one for None) are kept.  Token arrays and code texts are
    dropped as each record is read, so memory grows with neither the
    number of tokens nor the length of the code.

    Where a column file beside ``path`` matches it (:func:`open_columns`),
    the records are read from there, with the same result.  Otherwise
    every line is decoded and validated as a record by
    :func:`~codecal.data.read_columns` on every CPU.
    numpy and grouping load here, so ``score`` starts without them.
    """
    import numpy as np

    from .groups import GroupColumns

    names = tuple(TEXT_FEATURES) if grouping is None else grouping.text_features
    measures = [TEXT_FEATURES[name] for name in names]

    def row(lineno, obj, sample):
        return _scored_row(lineno, obj, sample) + text_features(sample.code_text, measures)

    with open_columns(path) as columns:
        if columns is not None:
            methods = [] if columns.method is None else [columns.method]
            p_hats, labels, ids, languages, difficulties, known, *values = columns.table(names)
    if columns is None:
        p_hats, labels, methods, ids, languages, difficulties, known, *values = read_columns(
            path, row, 7 + len(names), records=True
        )
        # Ranges read in other processes bring their own copy of each value.
        languages = [_intern(v) for v in languages]
        difficulties = [_intern(v) for v in difficulties]
    return ScoredSplit(
        p_hat=np.array(p_hats, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        methods=tuple(sorted(set(methods))),
        columns=GroupColumns(ids, languages, difficulties, known, dict(zip(names, values))),
    )
