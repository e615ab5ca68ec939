"""The stable tail dependence function of a unit-mean G, written from its
definition: the reference the closed forms of every G kind are tested against.

    l_G(x) = int_0^inf 1 - prod_k G(u/x_k) du

Each G kind of ``condiid.extreme_value`` gets its distribution function here,
and the step kinds the upper end of their support and their jump points, as
plain functions of the G object.
"""

import math

import numpy as np
from scipy import integrate

from condiid.errors import UnsupportedLawError
from condiid.mixing import PointMass


def mo_atom_q(g) -> float:
    """q of an MO atom with a point-mass M.  For an M with more atoms l averages
    l_{G_q} over q, which is the l of no single G, so there is no G to integrate."""
    if not isinstance(g.m, PointMass):
        raise UnsupportedLawError(f"the quadrature reference needs a point-mass M, got {g.m!r}")
    return math.exp(-g.m.m)


def frechet_log_cdf(g, y):
    with np.errstate(divide="ignore"):
        return np.where(y > 0, -np.maximum(g.scale * y, 1e-300) ** (-1.0 / g.theta), -np.inf)


def weibull_log_cdf(g, y):
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(-np.maximum(g.scale * y, 0.0) ** (1.0 / g.theta)))


def mo_atom_log_cdf(g, y):
    q = mo_atom_q(g)  # log q is -M
    return np.where(y >= (np.inf if q >= 1.0 else 1.0 / (1.0 - q)), 0.0, -g.m.m)


def step_log_cdf(g, y):
    with np.errstate(divide="ignore"):
        return np.log(g.cdf(y))


LOG_CDFS = {"frechet": frechet_log_cdf, "weibull": weibull_log_cdf, "mo_atom": mo_atom_log_cdf,
            "step": step_log_cdf}


def log_cdf(g, y):
    """log G(y), as an array of y's shape."""
    return LOG_CDFS[g.kind](g, np.asarray(y, dtype=float))


def jump_points(g) -> np.ndarray:
    """The points where G jumps; the last is where G reaches 1."""
    if g.kind == "mo_atom":
        q = mo_atom_q(g)
        return np.array([1.0 / (1.0 - q)] if q < 1.0 else [])
    return g.points.copy() if g.kind == "step" else np.empty(0)


def support_upper(g) -> float:
    """Smallest point beyond which G equals 1 (inf for unbounded support)."""
    if g.kind in ("frechet", "weibull"):
        return math.inf
    jumps = jump_points(g)
    return float(jumps[-1]) if jumps.size else 0.0


def stdf_numeric_lf(g, x) -> float:
    """l_G(x) by adaptive quadrature of 1 - prod_k G(u/x_k) = -expm1(sum_k log G(u/x_k)),
    which keeps the heavy Frechet tail, where each G rounds to 1, from cancelling.
    A step G is integrated on its bounded support with its jumps as break points."""
    x = np.asarray(x, dtype=float)
    x = x[x > 0]
    if x.size == 0:
        return 0.0

    def integrand(u):
        return -math.expm1(sum(float(log_cdf(g, u / xk)) for xk in x))

    upper = support_upper(g) * float(x.max())
    points = None
    if math.isfinite(upper):
        points = sorted({float(xk * p) for xk in x for p in jump_points(g) if xk * p < upper})
    val, _ = integrate.quad(integrand, 0.0, upper, points=points, epsabs=1e-10, epsrel=1e-10,
                            limit=400)
    return float(val)
