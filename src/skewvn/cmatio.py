"""CMAT v1 matrix files.

Line 1 is ``CMAT v1 <rows> <cols>``; the next <rows> lines hold one row each
as whitespace-separated ``re,im`` tokens, and any further line is empty.
Floats are written with Python's shortest round-trip repr, so write-then-read
is bit exact.  ASCII, LF line endings.  Every entry must be finite.

``parse_cmat`` reads the data lines in one loop: a line of ``re,im`` tokens
converts in one numpy assignment, and any other line, or one with a
non-finite value, entry by entry, naming the line and column of the first
bad entry.  Both ways accept exactly the numbers that ``float`` accepts.
"""

import math
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


def _parse_entries(tokens, line):
    """The 2 len(tokens) numbers of one data line, entry by entry; raises
    with the line and column of the first malformed or non-finite entry."""
    vals = []
    for j, tok in enumerate(tokens, start=1):
        parts = tok.split(",")
        if len(parts) != 2:
            raise ParseError(f"entry {tok!r} is not of the form re,im", line=line, column=j)
        try:
            pair = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ParseError(f"could not parse {tok!r}", line=line, column=j)
        if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
            raise ParseError(f"non-finite entry {tok!r}", line=line, column=j)
        vals += pair
    return vals


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
    out = np.empty((rows, cols), dtype=complex)
    vals = out.view(float)
    for i, line in enumerate(lines[1 : rows + 1]):
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}", line=i + 2)
        # cols tokens, cols commas, none two in one token: cols tokens a,b,
        # which convert at once unless some a or b is empty or malformed
        if line.count(",") == cols and not _TWO_COMMAS.search(line):
            try:
                vals[i] = line.replace(",", " ").split()
                if np.all(np.isfinite(vals[i])):
                    continue
            except ValueError:
                pass
        vals[i] = _parse_entries(tokens, i + 2)
    for i, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line:
            raise ParseError(f"data line past the {rows} rows of the header", line=i)
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
