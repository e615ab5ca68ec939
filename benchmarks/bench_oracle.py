"""Exact oracles for the ``check_extendible`` workload.

A sequence (b_0..b_d) with b_0 = 1 is the moment sequence of a law on [0, 1]
(Hausdorff) iff, for every order n <= d, two Hankel matrices are positive
semidefinite:

    n = 2l:    (b_{i+j})_{i,j<=l}        and (b_{i+j+1} - b_{i+j+2})_{i,j<l}
    n = 2l+1:  (b_{i+j+1})_{i,j<=l}      and (b_{i+j} - b_{i+j+1})_{i,j<=l}

The determinants are computed exactly, with Bareiss fraction-free
elimination over the integers, from rational inputs.  A negative determinant
rules extendibility out; all determinants positive puts the sequence in the
interior of the moment space, hence extendible.  Zero determinants mark the
boundary, where the determinants alone do not decide, and the oracle answers
``None``.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bareiss_det(matrix) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions.

    The matrix is scaled to integers by the common denominator L, reduced by
    Bareiss elimination with row swaps on zero pivots, and the result is
    divided by L**n.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(v) for v in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    scale = 1
    for row in rows:
        for v in row:
            scale = math.lcm(scale, v.denominator)
    a = [[int(v * scale) for v in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale**n)


def hankel_matrices(b) -> list[list[list[Fraction]]]:
    """The lower and upper Hankel matrix of every order 1..d, in order."""
    b = [Fraction(v) for v in b]
    d = len(b) - 1
    out = []
    for n in range(1, d + 1):
        l, odd = divmod(n, 2)
        if odd:
            lower = [[b[i + j + 1] for j in range(l + 1)] for i in range(l + 1)]
            upper = [[b[i + j] - b[i + j + 1] for j in range(l + 1)] for i in range(l + 1)]
        else:
            lower = [[b[i + j] for j in range(l + 1)] for i in range(l + 1)]
            upper = [[b[i + j + 1] - b[i + j + 2] for j in range(l)] for i in range(l)]
        out += [lower, upper]
    return out


def hankel_determinants(b) -> list[Fraction]:
    """Exact determinants of :func:`hankel_matrices`, two per order.  The first
    2k entries are those of the prefix (b_0..b_k)."""
    return [bareiss_det(m) for m in hankel_matrices(b)]


def verdict(dets) -> bool | None:
    """True if extendible, False if not, None on the boundary (a zero determinant)."""
    if any(v < 0 for v in dets):
        return False
    if all(v > 0 for v in dets):
        return True
    return None


def beta_moments(a: Fraction, b: Fraction, d: int) -> list[Fraction]:
    """Exact moments E[M^k], k = 0..d, of M ~ Beta(a, b)."""
    out = [Fraction(1)]
    for k in range(d):
        out.append(out[-1] * (a + k) / (a + b + k))
    return out


def half_ones_moments(d: int) -> list[Fraction]:
    """b_k = P(the first k coordinates are 1) under the exchangeable law on
    {0,1}^d with exactly d/2 ones; not extendible for even d >= 2."""
    h = d // 2
    return [Fraction(math.comb(d - k, h - k), math.comb(d, h)) if k <= h else Fraction(0)
            for k in range(d + 1)]


def bernstein(drift: float, kill: float, jumps, x: float) -> float:
    """Laplace exponent of a killed compound Poisson subordinator with drift:
    kill*1{x>0} + drift*x + sum rate*(1 - exp(-size*x))."""
    out = drift * x + (kill if x > 0 else 0.0)
    for size, rate in jumps:
        out += rate * -math.expm1(-size * x)
    return out
