"""Hypothesis strategies and helpers for building malformed JSON documents."""

import json
from functools import reduce
from operator import getitem

from hypothesis import strategies as st

# Any JSON document, NaN and infinities included (Python's json reads them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def json_prefixes(document):
    """Proper prefixes of ``document``'s JSON text: never valid JSON for an object."""
    text = json.dumps(document)
    return st.integers(0, len(text) - 1).map(lambda cut: text[:cut])


def non_objects():
    """JSON texts of documents that are not objects."""
    return json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps)


def json_paths(document, prefix=()):
    """Key and index paths to every value inside ``document``, the root excluded."""
    if isinstance(document, dict):
        children = document.items()
    elif isinstance(document, list):
        children = enumerate(document)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def edited(document, path, value=None, drop=False) -> str:
    """JSON text of a copy of ``document`` with the value at ``path`` replaced or dropped."""
    copy = json.loads(json.dumps(document))
    parent = reduce(getitem, path[:-1], copy)
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(copy)
