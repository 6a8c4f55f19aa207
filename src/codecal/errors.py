"""Exception hierarchy shared across the package.

Grouping errors under two roots keeps the CLI exit-status mapping simple:
``DataError`` covers everything wrong with record content or model inputs,
while IO problems surface as the usual ``OSError`` family.
"""

import math
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


class MissingCodeError(DataError):
    """An operation needed a code span or code text that is absent."""


class SplitError(DataError):
    """A dataset split could not be formed."""


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


def finite_numbers(values, what: str, size: int | None = None, unit: bool = False) -> list:
    """``values``, checked to be a list of ``size`` (or any number of) finite JSON numbers.

    Booleans and integers too large for a float are refused; with
    ``unit`` every value must lie in [0, 1].  Raises ``DataError``
    naming ``what`` otherwise.
    """
    try:
        ok = isinstance(values, list) and size in (None, len(values)) and all(
            type(v) in (int, float) and math.isfinite(v) and (not unit or 0 <= v <= 1)
            for v in values
        )
    except OverflowError:
        ok = False
    if not ok:
        count = "a list of" if size is None else size
        raise DataError(f"{what} must be {count} finite numbers{' in [0, 1]' if unit else ''}")
    return values


def exact_keys(obj, required, optional=(), what: str = "document") -> dict:
    """``obj``, checked to be an object holding every key of ``required`` and no other
    key outside ``optional``; raises ``DataError`` naming ``what`` otherwise."""
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise DataError(f"{what} is missing field {missing[0]!r}")
    unknown = sorted(set(obj).difference(required, optional))
    if unknown:
        raise DataError(f"{what} has unknown field {unknown[0]!r}")
    return obj


def strings(values, what: str) -> list[str]:
    """``values``, checked to be a list of strings; raises ``DataError`` naming ``what``."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DataError(f"{what} must be a list of strings")
    return values


def whole_number(value, what: str, allowed: range) -> int:
    """``value``, checked to be an integer in ``allowed``; booleans are refused."""
    if type(value) is not int or value not in allowed:
        raise DataError(f"{what} {value!r} is not an integer in {allowed}")
    return value
