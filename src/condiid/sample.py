"""The check of a sample leaving the program, and its CSV round-trip.

A sample is an n x d float array whose rows are iid replications of a
d-variate law.
"""

from __future__ import annotations

import io
import itertools
import os

import numpy as np


def checked_sample(data) -> np.ndarray:
    """``data`` as a float array, refused unless it is n x d with n, d >= 1 and no NaN.

    Infinities are allowed (killed models place mass at +inf).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError(f"sample matrix must be n x d with n,d >= 1, got shape {data.shape}")
    if np.isnan(data.min()):  # min propagates NaN; no n x d mask
        raise ValueError("sample matrix contains NaN entries")
    return data


# Rows formatted per ``write`` call: large enough to amortize the call, small
# enough that the text held at once stays a few hundred kB at any n.
_WRITE_CHUNK_ROWS = 4096


def _is_path(path_or_buf) -> bool:
    return isinstance(path_or_buf, (str, bytes, os.PathLike))


def write_csv(data, path_or_buf) -> None:
    """Write samples as CSV with header ``x1,...,xd``, LF line endings.

    ``path_or_buf`` is a path (``str``, ``bytes`` or ``os.PathLike``) or an
    open text stream.  Each value is written as ``repr`` of its float, so
    +inf is the literal ``inf``, no field is quoted and identical data yields
    identical bytes.  A chunk of rows is formatted by one ``%`` operation:
    one ``%r`` per field, the row's template repeated once per row.
    :func:`checked_sample` refuses the data before any file is opened.
    """
    data = checked_sample(data)
    own = _is_path(path_or_buf)
    f = open(path_or_buf, "w", newline="\n") if own else path_or_buf
    try:
        f.write(",".join(f"x{k + 1}" for k in range(data.shape[1])) + "\n")
        line = ",".join(["%r"] * data.shape[1]) + "\n"
        for start in range(0, data.shape[0], _WRITE_CHUNK_ROWS):
            chunk = data[start:start + _WRITE_CHUNK_ROWS]
            f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    finally:
        if own:
            f.close()


def read_csv(path_or_buf) -> np.ndarray:
    """Read a sample CSV written by :func:`write_csv` back into an array.

    Lines end with LF, CRLF or CR, and the last one may have no line end.
    Empty lines are skipped wherever they are; a line of spaces is a row.
    The first line is the header, and its fields only give the width d.
    The rows go through numpy's C text reader (``np.loadtxt``), which takes
    ASCII decimals, the ``inf`` and ``nan`` literals in any case and spaces
    around a field, so ``inf`` and ``-0.0`` read back exactly.  It refuses
    what ``float`` would take beyond that: underscores between digits and
    non-ASCII digits.  A quoted field is not unquoted but refused.  A path
    is read as a stream of lines, without holding the file's text.  Raises
    ``ValueError`` when the file has no line, when a row's width differs
    from the header's, when a field is not a number, or when no data row
    follows the header.
    """
    if _is_path(path_or_buf):
        with open(path_or_buf, "r") as f:  # universal newlines: CR and CRLF arrive as LF
            return _read_rows(f)
    text = path_or_buf.read()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _read_rows(io.StringIO(text))


def _next_line(f) -> str:
    """The next non-empty line of ``f`` with its LF, or ``""`` at the end."""
    line = f.readline()
    while line == "\n":
        line = f.readline()
    return line


def _read_rows(f) -> np.ndarray:
    """Header width check and C parse of the rows of ``f``, whose lines end in LF."""
    header = _next_line(f)
    if not header:
        raise ValueError("CSV is empty: no header row")
    d = header.count(",") + 1
    first = _next_line(f)
    if not first:
        raise ValueError("CSV contains a header but no data rows")
    try:
        data = np.loadtxt(itertools.chain((first,), f), delimiter=",", comments=None,
                          dtype=float, ndmin=2)
    except ValueError:
        f.seek(0)
        _name_refusal(f.read(), d)
        raise
    if data.shape[1] != d:
        raise ValueError(f"row width {data.shape[1]} does not match header width {d}")
    return data


def _name_refusal(text: str, d: int) -> None:
    """Raise the error that names the first row of bad width or the first bad field.

    Runs only after ``np.loadtxt`` refused ``text``, to word the refusal as
    this module does.  Returns when ``float`` takes every field (an
    underscore or a non-ASCII digit), and the caller re-raises the refusal
    of ``np.loadtxt``.
    """
    rows = list(filter(None, text.split("\n")))[1:]
    for row in rows:
        if row.count(",") != d - 1:
            raise ValueError(f"row width {row.count(',') + 1} does not match header width {d}")
    np.array(",".join(rows).split(","), dtype=float)
