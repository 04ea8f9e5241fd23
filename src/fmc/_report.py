"""The JSON text of a report, as ``json.dumps(report, indent=2)`` writes it.

``json.dumps`` with an indent takes the pure-Python encoder. Here the
shapes a report is made of, dicts with str keys, lists, str, bool, int and
None, are joined directly, with each string quoted by the C-level
``encode_basestring_ascii``; a list of strings only, such as a violation's
features, is quoted in one ``map``. Any other value is left to
``json.dumps``, so the text is the same for every value.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote


def dumps(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for a value whose lines are
    indented by ``newline`` less its line break."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        if set(map(type, value)) == {str}:
            items = map(_quote, value)
        else:
            items = map(dumps, value, repeat(inner))
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        items = ",".join([f"{inner}{_quote(key)}: {dumps(item, inner)}"
                          for key, item in value.items()])
        return f"{{{items}{newline}}}"
    # any other value, such as a float, a tuple or a key of another type:
    # with ensure_ascii every line break in json's text is one between lines
    return json.dumps(value, indent=2).replace("\n", newline)
