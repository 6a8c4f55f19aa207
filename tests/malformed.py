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


def invalid_utf8(document):
    """``document``'s JSON text as bytes with one byte that is not UTF-8 spliced in.

    The text is ASCII, so a stray continuation byte, a lead byte with
    no continuation and 0xff are each invalid wherever they land.
    """
    data = json.dumps(document).encode("ascii")
    return st.tuples(st.integers(0, len(data)), st.sampled_from([b"\x80", b"\xc3", b"\xff"])).map(
        lambda cut: data[: cut[0]] + cut[1] + data[cut[0] :]
    )


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


def with_an_extra_key(document):
    """JSON texts of ``document`` with a new key, holding any JSON value, in one of its objects."""

    def value_at(path):
        return reduce(getitem, path, document)

    objects = [path for path in [(), *json_paths(document)] if isinstance(value_at(path), dict)]
    return st.sampled_from(objects).flatmap(
        lambda path: st.tuples(
            st.text(max_size=6).filter(lambda key: key not in value_at(path)), json_values
        ).map(lambda added: edited(document, (*path, added[0]), added[1]))
    )
