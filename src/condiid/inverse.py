"""Generalized inverses of monotone functions by bracket-and-bisect.

Every quantile in the package without a closed form is
``inf{x >= lo : pred(x)}`` for a predicate that is false and then true, such
as ``phi(x) <= u`` for a non-increasing ``phi``.  Both forms below share one
rule: start the bracket at ``hi = max(1, 2 lo)``, double it until the
predicate holds (``inf`` after ``MAX_DOUBLINGS`` tries), then bisect while
``hi - lo > TOL * max(1, hi)`` and return ``hi``, a point where the predicate
holds.

The scalar form is plain Python: over 0-d numpy arrays one inversion costs
about thirty times as much.  The row form applies the same rule to every row
of an array at once and freezes each row when its own bracket is narrow
enough, so each row ends where the scalar form would.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["monotone_inverse", "monotone_inverse_rows"]

MAX_DOUBLINGS = 300
TOL = 1e-12


def monotone_inverse(pred, lo: float = 0.0) -> float:
    """Smallest x >= lo with ``pred(x)`` true, within ``TOL * max(1, x)``.

    ``pred`` must be false at ``lo`` and monotone (false, then true).  Returns
    ``inf`` when ``pred`` fails at every bracket end tried.
    """
    hi = max(1.0, 2.0 * lo)
    for _ in range(MAX_DOUBLINGS):
        if pred(hi):
            break
        hi *= 2.0
    else:
        return math.inf
    while hi - lo > TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def monotone_inverse_rows(pred, lo) -> np.ndarray:
    """Row-wise :func:`monotone_inverse`.

    ``pred`` maps an array shaped like ``lo`` to a boolean array of that shape
    and is evaluated on every row at each step; rows already solved are
    evaluated at their answer and left unchanged.  Rows whose predicate never
    holds are ``inf``.
    """
    lo = np.array(lo, dtype=float)
    hi = np.maximum(1.0, 2.0 * lo)
    for _ in range(MAX_DOUBLINGS):
        done = pred(hi)
        if done.all():
            break
        hi = np.where(done, hi, 2.0 * hi)
    hi = np.where(done, hi, np.inf)
    while True:
        active = hi - lo > TOL * np.maximum(1.0, hi)
        if not active.any():
            return hi
        mid = np.where(active, 0.5 * (lo + hi), hi)
        holds = pred(mid)
        hi = np.where(active & holds, mid, hi)
        lo = np.where(active & ~holds, mid, lo)
