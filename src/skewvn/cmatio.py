"""CMAT v1 matrix files.

Line 1 is ``CMAT v1 <rows> <cols>``; each following line holds one row as
whitespace-separated ``re,im`` tokens.  Floats are written with Python's
shortest round-trip repr, so write-then-read is bit exact.  ASCII, LF line
endings.  Every entry must be finite.
"""

import cmath
import re

import numpy as np

from .errors import ParseError
from .matcore import as_matrix

_TWO_COMMAS = re.compile(r",\S*,")  # in one token


def format_cmat(m):
    m = as_matrix(m)
    rows, cols = m.shape
    lines = [f"CMAT v1 {rows} {cols}"] + [
        " ".join(f"{x!r},{y!r}" for x, y in zip(re_row, im_row))
        for re_row, im_row in zip(m.real.tolist(), m.imag.tolist())
    ]
    return "\n".join(lines) + "\n"


def _parse_rows(body, rows, cols):
    """The entries of the data lines in one conversion, or None for a
    malformed line, whose line and column the entry-by-entry parse names.
    A line of cols tokens and cols commas, none two in one token, holds cols
    tokens a,b: 2 cols numbers unless some a or b is empty."""
    malformed = any(len(line.split()) != cols or line.count(",") != cols for line in body)
    if malformed or _TWO_COMMAS.search("\n".join(body)):
        return None
    try:
        vals = np.array([line.replace(",", " ").split() for line in body], dtype=float)
    except ValueError:
        return None
    if vals.shape != (rows, 2 * cols) or not np.all(np.isfinite(vals)):
        return None
    out = np.empty((rows, cols), dtype=complex)
    out.real, out.imag = vals[:, 0::2], vals[:, 1::2]
    return out


def parse_cmat(text):
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "CMAT":
        raise ParseError("malformed CMAT header", line=1)
    if header[1] != "v1":
        raise ParseError(f"unknown CMAT version {header[1]!r}", line=1)
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError:
        raise ParseError("non-integer dimensions in header", line=1)
    if rows <= 0 or cols <= 0:
        raise ParseError("dimensions must be positive", line=1)
    if len(lines) < rows + 1:
        raise ParseError(f"expected {rows} data lines", line=len(lines))
    out = _parse_rows(lines[1 : rows + 1], rows, cols)
    if out is not None:
        return out
    out = np.zeros((rows, cols), dtype=complex)
    for i, line in enumerate(lines[1 : rows + 1], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}", line=i)
        for j, tok in enumerate(tokens, start=1):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ParseError(f"entry {tok!r} is not of the form re,im", line=i, column=j)
            try:
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(f"could not parse {tok!r}", line=i, column=j)
            if not cmath.isfinite(value):
                raise ParseError(f"non-finite entry {tok!r}", line=i, column=j)
            out[i - 2, j - 1] = value
    return out


def read_cmat(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte {exc.object[exc.start]:#04x}", line=line)
    return parse_cmat(text)


def write_cmat(path, m):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_cmat(m))
