"""Deterministic CSV/JSON output and flat config files.

CSV: RFC-4180-style, header row, '.' decimal point, 17 significant digits
(so doubles round-trip byte-identically).  JSON: UTF-8 with sorted keys.
Config files: flat "key = value" lines with '#' comments.
"""

from __future__ import annotations

import csv
import json
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


def write_csv(path, header, rows):
    """Write rows (iterables of scalars) under a header, deterministically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(v) for v in row])
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
