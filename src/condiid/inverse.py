"""Generalized inverses of monotone predicates, exact to the double.

Every quantile in the package without a closed form is ``inf{x > 0 :
pred(x)}`` for a predicate that is false and then true, such as ``phi(x) <=
u`` for a non-increasing ``phi``.  Non-negative doubles sort as their int64
bit patterns do, so both forms bisect the bits from those of 0.0 to those of
+inf until the ends are neighbours and return the upper one, in at most 63
calls, never at 0 or +inf: a crossing, where the predicate holds and fails at
the double below.  Where the predicate is monotone on the doubles, that is the
least double where it holds.  The result is ``inf`` when the predicate fails
at each double visited, so it must be right on every double.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["monotone_inverse", "monotone_inverse_rows"]

_INF_BITS = 0x7FF0000000000000  # the bits of +inf, above those of every finite double


def monotone_inverse(pred) -> float:
    """A crossing: a positive double x where ``pred`` holds and fails at the
    double below, the least such where ``pred`` is monotone (false, then
    true); ``inf`` when it fails at each double visited.  Plain Python, thirty
    times cheaper than numpy on 0-d arrays."""
    double = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
    lo, hi = 0, _INF_BITS
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        lo, hi = (lo, mid) if pred(double(mid)) else (mid, hi)
    return double(hi)


def monotone_inverse_rows(pred, n: int) -> np.ndarray:
    """:func:`monotone_inverse` of ``n`` rows at once, the same double for each:
    ``pred`` maps ``n`` doubles to ``n`` booleans and is evaluated on every row
    at each step, a solved row at its lower end and left unchanged."""
    lo, hi = np.zeros(n, dtype=np.int64), np.full(n, _INF_BITS, dtype=np.int64)
    while (gap := hi - lo).max(initial=0) > 1:
        mid = lo + gap // 2  # (lo + hi) // 2 would overflow near the largest double
        holds = pred(mid.view(np.float64)) & (gap > 1)
        lo, hi = np.where(holds, lo, mid), np.where(holds, mid, hi)
    return hi.view(np.float64)
