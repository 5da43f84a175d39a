"""CMAT v1 matrix files.

Line 1 is ``CMAT v1 <rows> <cols>``; each following line holds one row as
whitespace-separated ``re,im`` tokens.  Floats are written with Python's
shortest round-trip repr, so write-then-read is bit exact.  ASCII, LF line
endings.  Every entry must be finite.
"""

import cmath

import numpy as np

from .errors import ParseError
from .matcore import as_matrix


def format_cmat(m):
    m = as_matrix(m)
    rows, cols = m.shape
    lines = [f"CMAT v1 {rows} {cols}"]
    for i in range(rows):
        lines.append(
            " ".join(
                f"{float(m[i, j].real)!r},{float(m[i, j].imag)!r}"
                for j in range(cols)
            )
        )
    return "\n".join(lines) + "\n"


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
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        lineno = i + 2
        tokens = lines[i + 1].split()
        if len(tokens) != cols:
            raise ParseError(
                f"expected {cols} entries, found {len(tokens)}", line=lineno
            )
        for j, tok in enumerate(tokens):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ParseError(
                    f"entry {tok!r} is not of the form re,im",
                    line=lineno,
                    column=j + 1,
                )
            try:
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(
                    f"could not parse {tok!r}", line=lineno, column=j + 1
                )
            if not cmath.isfinite(value):
                raise ParseError(f"non-finite entry {tok!r}", line=lineno, column=j + 1)
            out[i, j] = value
    return out


def read_cmat(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_cmat(text)


def write_cmat(path, m):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_cmat(m))
