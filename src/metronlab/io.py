"""Deterministic CSV/JSON output and flat config files.

CSV: RFC-4180-style, header row, '.' decimal point, 17 significant digits
(so doubles round-trip byte-identically), CRLF line ends.  The writer is
columnar and works a block of rows at a time: in each block an array
column is formatted once per distinct value and the strings are indexed
back into the rows.  The bytes are those of csv.writer with minimal quoting
over format_number's cells, row by row.
JSON: UTF-8 with sorted keys.  Config files: flat "key = value" lines with
'#' comments.
"""

from __future__ import annotations

import json
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


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
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
