"""Exception hierarchy shared across the package.

Grouping errors under two roots keeps the CLI exit-status mapping simple:
``DataError`` covers everything wrong with record content or model inputs,
while IO problems surface as the usual ``OSError`` family.
"""

from contextlib import contextmanager


class CodecalError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CodecalError):
    """Invalid record content, schema violations, or bad model inputs."""


class RecordError(DataError):
    """A line-delimited JSON record failed validation.

    ``reason`` is the message without the line and sample id.
    """

    def __init__(self, message: str, line: int | None = None, sample_id: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if sample_id is not None:
            loc.append(f"sample_id={sample_id!r}")
        super().__init__(f"{message} [{', '.join(loc)}]" if loc else message)
        self.reason = message
        self.line = line
        self.sample_id = sample_id


class AlignmentError(DataError):
    """Token character offsets are overlapping, descending, or out of range."""


class MissingCodeError(DataError):
    """An operation needed a code span or code text that is absent."""


class SplitError(DataError):
    """A dataset split could not be formed."""


class DegenerateGroupError(DataError):
    """A group with zero mass was used where members are required."""


class FitError(DataError):
    """A calibrator could not be fitted on the given data."""


class ConvertError(DataError):
    """A source dataset layout could not be mapped to the record schema."""


@contextmanager
def schema_fields(what: str):
    """Raise ``DataError`` for invalid JSON or a missing or mistyped field of a ``what``.

    JSON nested too deeply to decode is invalid too.
    """
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{what} is missing field {exc}") from exc
    except RecursionError:
        raise DataError(f"malformed {what}: JSON nested too deeply") from None
    except (TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
