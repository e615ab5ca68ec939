"""The check of a sample leaving the program, the block rule it is drawn by,
and its CSV round-trip.

A sample is an n x d float array whose rows are iid replications of a
d-variate law.  ``verify`` and ``sample`` never hold all n rows: they draw
them in blocks of at most ``BLOCK_BYTES`` of sample, one sampler call per
block from the stream's one Generator, and count or write each block as it
comes (:func:`sample_blocks`).  A sample of at most ``BLOCK_BYTES`` is one
call, exactly as drawing it at once; a larger one has other rows than one
call for all n, as every block but the first starts where the Generator was
left.
"""

from __future__ import annotations

import io
import itertools
import os
from collections.abc import Iterator

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


# Bytes of sample in one block: above the 1.6 MB of the largest pinned draw
# (40 000 x 5), so that every pinned draw stays one call.
BLOCK_BYTES = 2 << 20


def sample_blocks(sampler, n: int, d: int, rng):
    """The n rows of a d-column ``sampler`` in order, as checked blocks of
    max(1, BLOCK_BYTES // (8 d)) rows.

    Each block is one ``sampler(rows, rng)`` call on ``rng``, which no block
    re-seeds; the last block holds the rows left over.  A block of other
    than the rows asked for is refused.  A d below 1 counts as 1, and the
    sampler refuses it by its own message.
    """
    rows = max(1, BLOCK_BYTES // (8 * max(1, d)))
    for start in range(0, n, rows):
        asked = min(rows, n - start)
        block = checked_sample(sampler(asked, rng))
        if block.shape[0] != asked:
            raise ValueError(f"sampler returned {block.shape[0]} rows where {asked} were asked for")
        yield block
        del block  # not held while the next block is drawn


# Values formatted per ``write`` call, in max(1, _WRITE_CHUNK_VALUES // d) rows:
# large enough to amortize the call, small enough that the float objects and
# text held at once stay a few hundred kB at any n, and at any d up to it.
_WRITE_CHUNK_VALUES = 1 << 13


def _is_path(path_or_buf) -> bool:
    return isinstance(path_or_buf, (str, bytes, os.PathLike))


def write_csv(data, path_or_buf) -> None:
    """Write samples as CSV with header ``x1,...,xd``, LF line endings.

    ``data`` is an n x d array, or an iterator of such blocks of one width,
    as :func:`sample_blocks` yields them, written one after another: only
    one block is held at a time.  ``path_or_buf`` is a path (``str``,
    ``bytes`` or ``os.PathLike``) or an open text stream.  Each value is
    written as ``repr`` of its float, so +inf is the literal ``inf``, no
    field is quoted and identical data yields identical bytes.  A chunk of
    rows is formatted by one ``%`` operation: one ``%r`` per field, the
    row's template repeated once per row, and holds about
    ``_WRITE_CHUNK_VALUES`` values.  :func:`checked_sample` refuses
    the first block before any file is opened, and each later block before
    it is written.  A refusal or error after the first block leaves the
    header and the blocks before it in the file or stream, as written.
    """
    blocks = map(checked_sample, data if isinstance(data, Iterator) else iter((data,)))
    block = next(blocks, None)
    if block is None:
        raise ValueError("no sample block to write")
    d = block.shape[1]
    own = _is_path(path_or_buf)
    f = open(path_or_buf, "w", newline="\n") if own else path_or_buf
    try:
        f.write(",".join(f"x{k + 1}" for k in range(d)) + "\n")
        line = ",".join(["%r"] * d) + "\n"
        rows = max(1, _WRITE_CHUNK_VALUES // d)
        while block is not None:
            if block.shape[1] != d:
                raise ValueError(f"block width {block.shape[1]} does not match "
                                 f"the first block's width {d}")
            for start in range(0, block.shape[0], rows):
                chunk = block[start:start + rows]
                f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            block = chunk = None  # the written block is freed before the next is drawn
            block = next(blocks, None)
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
