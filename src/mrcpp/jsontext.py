"""The package's JSON text: ``json.dumps(value, indent=2, sort_keys=True,
allow_nan=False)``, RFC 8259 JSON, for values whose dict keys are strings.

CPython runs ``json.dumps`` in its pure-Python encoder whenever ``indent``
is set, and a plan document of a large field holds hundreds of thousands of
``[x, y]`` cells.  ``dumps`` writes exactly the same text (ASCII, two-space
indent, sorted keys, no trailing newline); ``dump`` writes it to a file in
chunks of about ``CHUNK`` characters, so no whole-document string is built.
A non-finite float raises ``ValueError``, as ``allow_nan=False`` does, and
a dict key that is not a ``str`` raises ``TypeError``.

A list made only of two-int cells is rendered from two tables of pieces
per indent, one for x (``"<nl>[<nl>  x,"``) and one for y
(``"<nl>  y<nl>],"``), filled on first use and shared by every cell list at
that indent within one encoding call.

An integer ndarray of shape (n, 2), such as a plan's refill leg, is
written as that same cell list, the text ``default=np.ndarray.tolist``
gives; any other ndarray raises ``TypeError``, as any other unsupported
type does.
"""
from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

_INDENT = "  "
CHUNK = 1 << 20   # characters buffered before ``dump`` writes


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``, byte
    for byte; (n, 2) int arrays as ``default=np.ndarray.tolist`` writes them."""
    parts: list[str] = []
    _encode(value, "\n", parts.append, {})
    return "".join(parts)


def dump(value, fh) -> None:
    """Write ``dumps(value)`` and a newline to the text file ``fh``.

    Parts are joined into writes of about ``CHUNK`` characters; a document
    smaller than that takes a single ``fh.write``.
    """
    parts: list[str] = []
    size = 0

    def emit(text: str) -> None:
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= CHUNK:
            fh.write("".join(parts))
            parts.clear()
            size = 0

    _encode(value, "\n", emit, {})
    parts.append("\n")
    fh.write("".join(parts))


class _Pieces(dict):
    """Rendered text of each coordinate value, made on first use."""

    def __init__(self, template: str):
        self.template = template

    def __missing__(self, value: int) -> str:
        piece = self[value] = self.template % value
        return piece


def _cells(flat, newline: str, emit, tables: dict) -> None:
    """Emit the cells ``[flat[0], flat[1]], [flat[2], flat[3]], ...``, at least
    one, from the piece tables of their indent."""
    inner = newline + _INDENT
    if inner not in tables:
        tables[inner] = (_Pieces(f"{inner}[{inner}{_INDENT}%d,"),
                         _Pieces(f"{inner}{_INDENT}%d{inner}],"))
    xs, ys = tables[inner]
    pieces = [""] * len(flat)
    pieces[0::2] = map(xs.__getitem__, flat[0::2])
    pieces[1::2] = map(ys.__getitem__, flat[1::2])
    pieces[-1] = pieces[-1][:-1]   # no comma after the last cell
    emit("[")
    emit("".join(pieces))
    emit(newline + "]")


def _encode(value, newline: str, emit, tables: dict) -> None:
    """Emit ``value`` whose opening line is indented as ``newline`` says.

    ``tables`` maps an item indent to its pair of cell piece tables.
    """
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
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        emit(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + _INDENT
        # a cell list: every item a list or tuple of exactly two plain ints
        if set(map(type, value)) <= {list, tuple} and set(map(len, value)) == {2}:
            flat = tuple(chain.from_iterable(value))
            if set(map(type, flat)) == {int}:
                _cells(flat, newline, emit, tables)
                return
        sep = "[" + inner
        for item in value:
            emit(sep)
            sep = "," + inner
            _encode(item, inner, emit, tables)
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + _INDENT
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            emit(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _encode(item, inner, emit, tables)
        emit(newline + "}")
    elif (isinstance(value, np.ndarray) and value.dtype.kind in "iu"
          and value.ndim == 2 and value.shape[1] == 2):
        if value.size:
            _cells(value.reshape(-1).tolist(), newline, emit, tables)
        else:
            emit("[]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")
