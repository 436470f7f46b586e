"""Deterministic CSV/JSON output and flat config files.

CSV: RFC-4180-style, header row, '.' decimal point, 17 significant digits
(so doubles round-trip byte-identically), CRLF line ends.  The writer is
columnar and works a block of rows at a time: in each block an array
column is formatted once per distinct value and the strings are indexed
back into the rows.  The bytes are those of csv.writer with minimal quoting
over format_number's cells, row by row.
JSON: ASCII with sorted keys and a two-space indent, the bytes of json.dump
with indent=2 and sort_keys=True, built in one pass and written at once; a
list of floats is joined from float.__repr__ in one go.  Config files: flat
"key = value" lines with '#' comments.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = ["format_number", "write_csv", "write_json", "read_config", "write_gnuplot_stub"]


def format_number(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


_BLOCK = 1024  # rows formatted and written at a time, which bounds the text held
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quote(text):
    """A cell or header as csv.writer's minimal quoting writes it."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _column_cells(col):
    """A column's cell strings.  A float64, int, bool or str array is
    formatted once per distinct value and the strings indexed back; float64
    values are told apart by bit pattern (so -0 and 0 stay apart) and take
    '%.17g' directly.  Anything else goes through format_number per value."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = ["%.17g" % x for x in bits.view(np.float64).tolist()]
    elif isinstance(col, np.ndarray) and col.dtype.kind in "biuU":
        distinct, inverse = np.unique(col, return_inverse=True)
        text = [_quote(format_number(v)) for v in distinct.tolist()]
    else:
        values = col.tolist() if isinstance(col, np.ndarray) else col
        return [_quote(format_number(v)) for v in values]
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(path, columns):
    """Write {header: column} as CSV, deterministically; returns the path.

    Columns are 1-D arrays or lists of one length, formatted and written a
    block of rows at a time.  A one-column row whose only cell is empty is
    written as "" so that it is not a blank line.
    """
    header = [_quote(name) for name in columns]
    cols = list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    if any(len(col) != n_rows for col in cols):
        raise ValueError("CSV columns differ in length")
    if len(cols) == 1:
        header = [h or '""' for h in header]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _BLOCK):
            cells = [_column_cells(col[start:start + _BLOCK]) for col in cols]
            if len(cells) == 1:
                cells = [[c or '""' for c in cells[0]]]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))
    return path


def _json_default(obj):
    """json.dump's hook for what it cannot encode itself: arrays become
    lists, numpy scalars Python ones, complex numbers {"re", "im"}."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x):
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _floats_text(values, sep):
    """values joined by sep as json writes floats, from float.__repr__ in one
    pass, or None when one of them is not a float."""
    try:
        text = sep.join(map(float.__repr__, values))
    except TypeError:
        return None
    if "n" in text:  # a nan or inf repr, which json writes NaN, Infinity
        text = sep.join(map(_float_text, values))
    return text


def _key_text(key):
    """A dict key as json writes it, quoted."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return '"' + _float_text(key) + '"'
    if key is True or key is False or key is None:
        return '"' + json.dumps(key) + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(obj, newline, parts):
    """Append obj's JSON text to parts; newline is a line break and the
    indent of the line obj starts on.  What json cannot encode itself goes
    through _json_default."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        parts.append("[" + inner)
        text = _floats_text(obj, sep)
        if text is not None:
            parts.append(text)
        else:
            for i, value in enumerate(obj):
                if i:
                    parts.append(sep)
                _encode(value, inner, parts)
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        sep = inner
        for key, value in sorted(obj.items()):
            parts.append(sep + _key_text(key) + ": ")
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        _encode(_json_default(obj), newline, parts)


def write_json(path, payload):
    """Write payload as json.dump(payload, fh, indent=2, sort_keys=True,
    default=_json_default) and a newline would, in one write; returns the
    path."""
    parts = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
    return path


def read_config(path):
    """Flat key = value file; '#' starts a comment; values stay strings.
    An unreadable file or a line without '=' is a ValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {str(path)!r}: {exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def write_gnuplot_stub(path, csv_name, title, x_column, y_columns):
    """Minimal gnuplot script for a CSV written by write_csv; rendering is
    delegated to the user's gnuplot installation."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    plots = ", \\\n    ".join(
        f"'{csv_name}' using {x_column}:{col} with lines title '{name}'"
        for col, name in y_columns
    )
    text = (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set key outside\n"
        f"plot {plots}\n"
    )
    path.write_text(text, encoding="utf-8")
    return path
