"""Sample containers and their CSV round-trip."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleMatrix:
    """n x d matrix of real samples; rows are iid replications of a d-variate law.

    Infinities are allowed (killed models place mass at +inf), NaNs are not.
    ``meta`` is a free-form model descriptor.
    """

    data: np.ndarray
    meta: str = ""

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"sample matrix must be n x d with n,d >= 1, got shape {data.shape}")
        if np.isnan(data.min()):  # min propagates NaN; no n x d mask
            raise ValueError("sample matrix contains NaN entries")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


# Rows formatted per ``write`` call: large enough to amortize the call, small
# enough that the text held at once stays a few hundred kB at any n.
_WRITE_CHUNK_ROWS = 4096


def _is_path(path_or_buf) -> bool:
    return isinstance(path_or_buf, (str, bytes, os.PathLike))


def write_csv(matrix: SampleMatrix | np.ndarray, path_or_buf) -> None:
    """Write samples as CSV with header ``x1,...,xd``, LF line endings.

    ``path_or_buf`` is a path (``str``, ``bytes`` or ``os.PathLike``) or an
    open text stream.  Each value is written as ``repr`` of its float, so
    +inf is the literal ``inf``, no field is quoted and identical data yields
    identical bytes.  A chunk of rows is formatted by one ``%`` operation:
    one ``%r`` per field, the row's template repeated once per row.
    """
    data = matrix.data if isinstance(matrix, SampleMatrix) else np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"sample matrix must be 2-dimensional, got shape {data.shape}")
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
    Every field is the text between two commas and goes through ``float``,
    so surrounding spaces are allowed, ``inf`` and ``-0.0`` read back
    exactly, and a quoted field is not unquoted but refused.  Raises
    ``ValueError`` when the file has no line, when a row's width differs
    from the header's, when a field is not a number, or when no data row
    follows the header.
    """
    if _is_path(path_or_buf):
        with open(path_or_buf, "r", newline="") as f:
            text = f.read()
    else:
        text = path_or_buf.read()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = list(filter(None, text.split("\n")))
    if not lines:
        raise ValueError("CSV is empty: no header row")
    d = lines[0].count(",") + 1
    rows = lines[1:]
    if not rows:
        raise ValueError("CSV contains a header but no data rows")
    for row in rows:
        if row.count(",") != d - 1:
            raise ValueError(f"row width {row.count(',') + 1} does not match header width {d}")
    return np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), d)
