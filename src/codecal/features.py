"""What grouping measures of a code text, without numpy.

:data:`TEXT_FEATURES` names each number grouping reads of a sample's
code text.  ``score`` measures every one once, into the column file,
and grouping reads them from there, so this module loads nothing but
the standard library; :mod:`codecal.groups` re-exports its names.
"""

import re

__all__ = ["branch_count", "TEXT_FEATURES", "text_features"]

# Language-generic branching tokens counted by the complexity heuristic.
_BRANCH_WORDS = ("if", "for", "while", "case", "catch")
_BRANCH_SYMBOLS = ("&&", "||", "?")
# Each word, not preceded or followed by a word character: what
# ``\b(?:if|...)\b`` matches.  A pattern that does not start with ``\b``
# lets ``re`` skip ahead to the words' first characters.
_BRANCH_WORD_RE = re.compile(
    "(?:" + "|".join(rf"{word}(?<!\w{word})" for word in _BRANCH_WORDS) + r")(?!\w)"
)


def branch_count(code_text: str) -> int:
    """Count of branching constructs in a code snippet."""
    count = len(_BRANCH_WORD_RE.findall(code_text))
    for sym in _BRANCH_SYMBOLS:
        count += code_text.count(sym)
    return count


# What grouping measures of a code text, by feature name.
TEXT_FEATURES = {"chars": len, "loc": lambda text: len(text.splitlines()), "branches": branch_count}


def text_features(code_text: str | None, measures) -> tuple:
    """``(known, *values)`` of one code text: whether there is one, then each measure of it.

    ``measures`` are functions of the text, such as the values of
    :data:`TEXT_FEATURES`; each value is 0 where ``code_text`` is None.
    """
    if code_text is None:
        return (False,) + (0,) * len(measures)
    return (True, *[measure(code_text) for measure in measures])
