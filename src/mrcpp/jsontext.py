"""The package's JSON text: ``json.dumps(value, indent=2, sort_keys=True)``.

CPython runs ``json.dumps`` in its pure-Python encoder whenever ``indent``
is set, and a plan document of a large field holds hundreds of thousands of
``[x, y]`` cells.  ``dumps`` writes exactly the same text (ASCII, two-space
indent, sorted keys, ``NaN``/``Infinity`` for non-finite floats, no trailing
newline) and renders a list made only of two-int cells with one ``%``
format call.
"""
from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii

_INDENT = "  "


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte."""
    parts: list[str] = []
    _encode(value, "\n", parts.append)
    return "".join(parts)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    # json.dumps turns these key types into strings, in this order of tests
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _cells(items) -> bool:
    """True when every item is a list or tuple of exactly two plain ints."""
    return (set(map(type, items)) <= {list, tuple}
            and set(map(len, items)) == {2}
            and set(map(type, chain.from_iterable(items))) == {int})


def _encode(value, newline: str, emit) -> None:
    """Emit ``value`` whose opening line is indented as ``newline`` says."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        emit(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + _INDENT
        if _cells(value):
            cell = f"{inner}[{inner}{_INDENT}%d,{inner}{_INDENT}%d{inner}]"
            emit("[")
            emit(",".join([cell] * len(value)) % tuple(chain.from_iterable(value)))
            emit(newline + "]")
            return
        sep = "[" + inner
        for item in value:
            emit(sep)
            sep = "," + inner
            _encode(item, inner, emit)
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + _INDENT
        sep = "{" + inner
        for key, item in sorted(value.items()):
            emit(sep + encode_basestring_ascii(_key(key)) + ": ")
            sep = "," + inner
            _encode(item, inner, emit)
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")
