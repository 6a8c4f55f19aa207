"""Raw confidence scores from token log probabilities, and scored files read as columns.

The score for a sample is the geometric mean of its token
probabilities, ``exp(mean(token_logprobs))``, computed over a selectable
token window: the whole sequence, only the extracted code span, or only
the trailing tokens.

Beside each scored JSONL file, :func:`score_file` writes a column file
that holds what :func:`load_scored` keeps of each record, so reading a
scored split needs no JSON decoding.  It starts with a one-line JSON
header: the format version, the row count, the byte size and
``zlib.crc32`` of the JSONL file it describes, the scoring method, and
``body_crc32``, the crc32 of the two sections that follow, each in line
order.  The heads section holds one fixed-width :data:`_HEAD` per row:
p_hat, label, flags for a difficulty and a code text, each
:data:`~codecal.features.TEXT_FEATURES` entry of the code text (0
without one), and the byte length of each of the row's four strings.
The strings section holds each row's sample id, problem id, language
and difficulty in UTF-8, with ``surrogatepass`` for the lone
surrogates JSON escapes can hold.  A column file is read only when its
header matches its JSONL file's size and checksum; any other scored
JSONL file, such as one edited afterwards, is indexed into an unnamed
temporary column file instead.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass

from .data import Sample, atomic_outputs, line_ranges, read_ranges
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
COLUMNS_VERSION = 3
_HEADER_KEYS = ("body_crc32", "codecal_columns", "jsonl_bytes", "jsonl_crc32", "method", "rows")
# A longer first line is not a header.
_MAX_HEADER_BYTES = 4096
# A row's head: p_hat, label, flags, the three TEXT_FEATURES of its code
# text, and the byte lengths of its four strings.  _HEAD_DTYPE is the
# same packed layout as a numpy structured dtype.
_HEAD = struct.Struct("<dBB7I")
# The four string lengths, the last fields of a head.
_LENGTHS = struct.Struct(f"<{_HEAD.size - 16}x4I")
_HEAD_DTYPE = [
    ("p_hat", "<f8"),
    ("label", "u1"),
    ("flags", "u1"),
    *((name, "<u4") for name in TEXT_FEATURES),
    ("lengths", "<u4", (4,)),
]
_HAS_DIFFICULTY, _HAS_CODE = 1, 2
# Small blocks keep what reading and copying hold in memory small.
_BLOCK_BYTES = 1 << 16
_BATCH_RECORDS = 64
# The first UTF-8 byte of each character that str.strip() removes, but for
# the line ends \n and \r: a line that starts with none of them is not blank.
_SPACE_LEADS = b" \t\x0b\x0c\x1c\x1d\x1e\x1f\xc2\xe1\xe2\xe3"
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


def _score_lines(records, files, method: ConfidenceMethod | None, skip_missing: bool) -> tuple:
    """Write the scored line and the column-file head and strings of each record.

    ``records`` yields ``(lineno, raw, obj, sample)`` as
    :func:`~codecal.data.read_ranges` does with ``records``.  ``files``
    are the binary files for the lines, the heads and the strings, each
    flushed at the end, so a forked child leaves their bytes in place.
    With ``method`` None each record keeps its own p_hat and method,
    checked here, and no line is written.  Returns the scored and
    skipped counts, the crc32 of the lines and the set of methods.
    """
    name = method and method.name
    name_json = json.dumps(name)
    scored = skipped = crc = 0
    methods = set()
    # Lines, heads and strings are written _BATCH_RECORDS at a time, and each
    # head is made here, not in a function: this loop runs once per record.
    batch = texts, packed, joined = [], [], []
    pack = _HEAD.pack
    measures = tuple(TEXT_FEATURES.values())
    for lineno, raw, obj, sample in records:
        if method is None:
            p_hat, name, problem = obj.get("p_hat"), obj.get("method"), None
            if not isinstance(p_hat, (int, float)) or isinstance(p_hat, bool):
                problem = "missing or non-numeric p_hat"
            elif not 0 <= p_hat <= 1:  # NaN fails too; an int is compared before float() overflows
                problem = f"p_hat {p_hat!r} outside [0, 1]"
            elif not isinstance(name, str):
                problem = "missing method"
            if problem:
                raise RecordError(problem, line=lineno, sample_id=sample.sample_id)
            p_hat = float(p_hat)
        else:
            try:
                p_hat = score_sample(sample, method)
            except DataError:
                if not skip_missing:
                    raise
                skipped += 1
                continue
            if "p_hat" in obj or "method" in obj:
                obj.update(p_hat=p_hat, method=name)
                texts.append(json.dumps(obj, sort_keys=True))
            else:
                texts.append(f'{raw.rstrip()[:-1]}, "method": {name_json}, "p_hat": {p_hat!r}}}')
        methods.add(name)
        strings = sample.sample_id, sample.problem_id, sample.language, sample.difficulty or ""
        known, *features = text_features(sample.code_text, measures)
        flags = _HAS_DIFFICULTY * (sample.difficulty is not None) + _HAS_CODE * known
        # One encode of the joined strings; each is measured apart only when one is not ASCII.
        data = "".join(strings).encode("utf-8", "surrogatepass")
        if data.isascii():
            sizes = map(len, strings)
        else:
            sizes = [len(text.encode("utf-8", "surrogatepass")) for text in strings]
        packed.append(pack(p_hat, sample.label, flags, *features, *sizes))
        joined.append(data)
        scored += 1
        if len(packed) == _BATCH_RECORDS:
            crc = _write_batch(files, batch, crc)
    crc = _write_batch(files, batch, crc)
    for file in filter(None, files):
        file.flush()
    return scored, skipped, crc, methods


def _write_batch(files, batch, crc: int) -> int:
    """Write and clear a batch of lines, heads and strings to ``files``.

    Returns ``crc`` carried over the lines' bytes.
    """
    texts, packed, joined = batch
    lines, heads, strings = files
    if texts:
        data = "\n".join(texts).encode("utf-8") + b"\n"
        lines.write(data)
        crc = zlib.crc32(data, crc)
    heads.write(b"".join(packed))
    strings.write(b"".join(joined))
    for part in batch:
        part.clear()
    return crc


def write_columns(
    out, body, rows: int, jsonl_bytes: int, jsonl_crc32: int, method: str | None
) -> None:
    """Write a column file to binary file ``out``: its header, then its body.

    ``body()`` yields the bytes of the heads of ``rows`` rows in all, in
    line order, then their strings; it is called once for the header's
    ``body_crc32`` and once more to write them.  The file describes a
    JSONL file of ``jsonl_bytes`` bytes with crc32 ``jsonl_crc32`` whose
    records were all scored by ``method`` (None when there are none).
    """
    header = {
        "body_crc32": _crc32(body()),
        "codecal_columns": COLUMNS_VERSION,
        "jsonl_bytes": jsonl_bytes,
        "jsonl_crc32": jsonl_crc32,
        "method": method,
        "rows": rows,
    }
    out.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
    for block in body():
        out.write(block)


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
    """
    targets = output_path, output_path + COLUMNS_SUFFIX
    with atomic_outputs(*targets) as (out, column_file):
        return _index(input_path, column_file, method, skip_missing, out)[:2]


def _index(input_path: str, column_file, method, skip_missing=False, out=None) -> tuple:
    """Write the column file of records JSONL ``input_path`` to binary file ``column_file``.

    Each record is scored by ``method`` and its line written to binary
    file ``out``, as in :func:`score_file`; with both None, each keeps
    its own p_hat and method and the header describes no JSONL bytes.
    Returns the scored and skipped counts and the sorted methods.  The
    input is read by :func:`~codecal.data.read_ranges`, so nothing here
    depends on the number of CPUs.  Range 0 writes its lines straight to
    ``out``; the other ranges' lines, and every range's heads and
    strings, go to unnamed temporary files beside ``out`` (or in the
    system's temporary folder).  These are read back in line order, in
    blocks, once for the column file's ``body_crc32`` and once to copy
    them, so memory does not grow with the file.
    """
    folder = out and (os.path.dirname(out.name) or ".")
    with contextlib.ExitStack() as stack:
        bounds = line_ranges(input_path)

        def part():
            return stack.enter_context(tempfile.TemporaryFile(dir=folder))

        lines = [out, *(out and part() for _ in bounds[1:])]
        heads = [part() for _ in bounds]
        strings = [part() for _ in bounds]

        def read(k, records):
            return _score_lines(records, (lines[k], heads[k], strings[k]), method, skip_missing)

        counts = read_ranges(input_path, bounds, read, records=True)
        # Range 0 wrote its lines to ``out``; every other range's lines follow them.
        crc = counts[0][2]
        for block in _blocks(*filter(None, lines[1:])):
            crc = zlib.crc32(block, crc)
            out.write(block)
        scored = sum(count[0] for count in counts)
        methods = sorted(set().union(*(count[3] for count in counts)))
        size = out.tell() if out else 0
        body = functools.partial(_blocks, *heads, *strings)
        write_columns(column_file, body, scored, size, crc, min(methods, default=None))
    return scored, sum(count[1] for count in counts), methods


def _put_lines(out, data: bytes, crc: int, done: int) -> int:
    """Write whole lines ``data``, from row ``done`` on, to ``out``; returns ``crc`` carried on.

    A line that is not UTF-8 raises ``RecordError`` naming it.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = done + 1 + data.count(b"\n", 0, exc.start)
            raise RecordError("line is not valid UTF-8", line=line) from None
    out.write(data)
    return zlib.crc32(data, crc)


def _blocks(*files):
    """The bytes of each binary file of ``files`` from its start, in blocks of ``_BLOCK_BYTES``."""
    for fh in files:
        fh.seek(0)
        while block := fh.read(_BLOCK_BYTES):
            yield block


def _crc32(blocks, crc: int = 0) -> int:
    for block in blocks:
        crc = zlib.crc32(block, crc)
    return crc


def _jsonl_crc32(path: str) -> int:
    with open(path, "rb") as fh:
        return _crc32(_blocks(fh))


def _pieces(chunk: bytes, text: str, bounds: list, field: int) -> list[str]:
    """String ``field`` of each row of a strings chunk: 0 is the sample id, 3 the difficulty.

    ``text`` is ``chunk`` decoded, and ``bounds`` the offsets in
    ``chunk`` where each string starts, then where the last one ends.
    """
    starts, ends = bounds[field::4], bounds[field + 1 :: 4]
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
        self._body_crc32 = header["body_crc32"]
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

    def _check_body(self, crc: int) -> None:
        if crc != self._body_crc32:
            raise self._error("has heads or strings that do not match its body_crc32")

    def _read(self, at: int, size: int) -> bytes:
        self._fh.seek(at)
        return self._fh.read(size)

    @functools.cached_property
    def _rows(self) -> tuple[bytes, bytes, list[int]]:
        """The heads and strings sections, and where each row's strings start in the strings.

        The starts end with where the last row's strings end.  Sections
        that do not match ``body_crc32``, or string lengths that do not
        sum to the size of the strings section, raise ``DataError``
        naming the file.
        """
        heads = self._read(self._heads_at, self._strings_at - self._heads_at)
        strings = self._fh.read()
        self._check_body(zlib.crc32(strings, zlib.crc32(heads)))
        starts = list(itertools.accumulate(map(sum, _LENGTHS.iter_unpack(heads)), initial=0))
        if starts[-1] != len(strings):
            raise self._unsummed()
        return heads, strings, starts

    def problem_ids(self) -> list[str]:
        """The problem id of each row, sliced out of the strings section."""
        heads, strings, starts = self._rows
        with schema_fields(f"column file {self.path}"):
            return [
                strings[start + sid : start + sid + pid].decode("utf-8", "surrogatepass")
                for start, (sid, pid, _, _) in zip(starts, _LENGTHS.iter_unpack(heads))
            ]

    def route(self, jsonl_path: str, dests: list, lines: dict, column_files: dict) -> dict:
        """Copy row k's line of ``jsonl_path`` to ``lines[dests[k]]``; returns each file's rows.

        ``jsonl_path`` is the JSONL file this column file matches.  Each
        file of ``lines`` gets its column file written to the binary
        file of ``column_files`` under the same key.  Each run of
        consecutive rows bound for one file is copied as one block each
        of lines, read in blocks of ``_BLOCK_BYTES``, and of heads and
        strings, sliced out of the sections held in memory.
        A JSONL file that does not hold one line per row, each ending
        in ``\\n``, none blank and no ``\\r``, raises ``DataError`` naming
        this file; a line that is not UTF-8 raises ``RecordError`` naming it.
        """
        heads, strings, starts = self._rows
        heads, strings = memoryview(heads), memoryview(strings)  # slices without copies
        runs, first = [], 0
        for dest, group in itertools.groupby(dests):
            stop = first + len(list(group))
            runs.append((dest, first, stop))
            first = stop
        counts, crcs = dict.fromkeys(lines, 0), dict.fromkeys(lines, 0)
        unlike = self._error(f"does not describe {jsonl_path} line for line")
        with open(jsonl_path, "rb") as fh:
            # buf[start:pos] holds the whole lines not yet written, from row ``done`` on.
            buf, start, pos, done = b"", 0, 0, 0
            for dest, first, stop in runs:
                out = lines[dest]
                for row in range(first, stop):
                    while (end := buf.find(b"\n", pos)) < 0:
                        crcs[dest] = _put_lines(out, buf[start:pos], crcs[dest], done)
                        # A line longer than a block doubles the read, so it is scanned once.
                        block = fh.read(max(_BLOCK_BYTES, len(buf) - pos))
                        if not block or b"\r" in block:
                            raise unlike
                        buf, start, pos, done = buf[pos:] + block, 0, 0, row
                    if end == pos or (
                        buf[pos] in _SPACE_LEADS
                        and not buf[pos:end].decode("utf-8", "surrogateescape").strip()
                    ):
                        raise unlike
                    pos = end + 1
                crcs[dest] = _put_lines(out, buf[start:pos], crcs[dest], done)
                start, done = pos, stop
                counts[dest] += stop - first
            if pos < len(buf) or fh.read(1):
                raise unlike
        for dest, out in column_files.items():
            mine = [(first, stop) for key, first, stop in runs if key == dest]
            body = [heads[first * _HEAD.size : stop * _HEAD.size] for first, stop in mine]
            body += [strings[starts[first] : starts[stop]] for first, stop in mine]
            method = self.method if counts[dest] else None
            write_columns(out, lambda: body, counts[dest], lines[dest].tell(), crcs[dest], method)
        return counts

    def table(self, names) -> list:
        """p_hat, label, sample id, language, difficulty, known, then each text feature of ``names``.

        Each column holds one entry per row: p_hat, known and the
        features are numpy arrays, the others lists.  The heads are
        read at once and checked in bulk, then the strings of
        ``_CHUNK_ROWS`` rows at a time, and ``body_crc32`` is carried
        over both.  Languages and difficulties are interned, so rows
        share one object per distinct value.  Every text feature comes
        from the heads, where ``score`` measured it.
        """
        import numpy as np

        with schema_fields(f"column file {self.path}"):
            # Reading the heads leaves the file at the strings section, which follows them.
            heads = self._read(self._heads_at, self._strings_at - self._heads_at)
            crc = zlib.crc32(heads)
            heads = np.frombuffer(heads, _HEAD_DTYPE)
            p_hat, flags, lengths = heads["p_hat"], heads["flags"], heads["lengths"]
            # Each numpy loop run here for the first time in the process adds to
            # peak RSS, so this method keeps to loops that calibrating runs anyway:
            # no cast from uint8 to int64 and no integer cumsum.  Where flags are
            # at most 3, a row has a code text exactly when flags >= 2.
            known = flags >= _HAS_CODE
            ok = (p_hat >= 0) & (p_hat <= 1) & (heads["label"] <= 1)
            ok &= flags <= _HAS_DIFFICULTY | _HAS_CODE
            for name in TEXT_FEATURES:  # a row without a code text measures 0
                ok &= known | (heads[name] == 0)
            if not ok.all():
                raise self._error("holds a row no scored record gives")
            if int(lengths.sum(dtype=np.int64)) != self._strings_size:
                raise self._unsummed()
            ids, languages, difficulties = [], [], []
            for first in range(0, self.count, _CHUNK_ROWS):
                rows = slice(first, first + _CHUNK_ROWS)
                bounds = list(itertools.accumulate(lengths[rows].ravel().tolist(), initial=0))
                chunk = self._fh.read(bounds[-1])
                crc = zlib.crc32(chunk, crc)
                text = chunk.decode("utf-8", "surrogatepass")
                ids += _pieces(chunk, text, bounds, 0)
                languages += map(sys.intern, _pieces(chunk, text, bounds, 2))
                pieces = _pieces(chunk, text, bounds, 3)
                difficulties += [
                    sys.intern(d) if f & _HAS_DIFFICULTY else None
                    for d, f in zip(pieces, flags[rows].tolist())
                ]
        self._check_body(crc)
        features = [heads[name] for name in names]
        return [p_hat, heads["label"].tolist(), ids, languages, difficulties, known, *features]


def _header(fh, path: str) -> dict:
    """The checked header of the column file ``path``, open as ``fh``."""
    what = f"column file {path}"
    with schema_fields(what):
        header = exact_keys(json.loads(fh.readline(_MAX_HEADER_BYTES)), _HEADER_KEYS, what=what)
    if header["codecal_columns"] != COLUMNS_VERSION:
        raise DataError(f"{what} has unsupported version {header['codecal_columns']!r}")
    rows = whole_number(header["rows"], f"{what} row count", range(2**63))
    whole_number(header["body_crc32"], f"{what} body crc32", range(2**32))
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
    """Load a file written by :func:`score_file` as columns, through :meth:`ScoredColumns.table`.

    Only ``p_hat``, the label, the grouping fields and the
    :data:`~codecal.features.TEXT_FEATURES` that ``grouping`` reads
    (every one for None) are kept, so memory grows with neither the
    number of tokens nor the length of the code.

    Where a column file beside ``path`` matches it (:func:`open_columns`),
    that file is read.  Otherwise every line is decoded and validated as
    a scored record on every CPU, and what a column file would hold of
    it is written to an unnamed temporary file, which is read instead.
    numpy and grouping load here, so ``score`` starts without them.
    """
    import numpy as np

    from .groups import GroupColumns

    names = tuple(TEXT_FEATURES) if grouping is None else grouping.text_features
    with contextlib.ExitStack() as stack:
        columns = stack.enter_context(open_columns(path))
        if columns is None:
            index = stack.enter_context(tempfile.TemporaryFile())
            methods = _index(path, index, None)[2]
            index.seek(0)
            columns = ScoredColumns(index, path, _header(index, path))
        else:
            methods = [] if columns.method is None else [columns.method]
        p_hats, labels, ids, languages, difficulties, known, *values = columns.table(names)
    return ScoredSplit(
        p_hat=np.array(p_hats, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        methods=tuple(methods),
        columns=GroupColumns(ids, languages, difficulties, known, dict(zip(names, values))),
    )
