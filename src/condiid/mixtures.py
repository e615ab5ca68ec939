"""Static one-factor families: normal, spherical, l1- and linf-norm symmetric.

Each sampler draws one mixing variable M per row, then the row iid given M, to
be checked by Monte Carlo against the family's closed form where it has one.
Williamson's and Gnedin's transforms describe l1- and linf-norm symmetric laws.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import SpecValidationError, UnsupportedLawError
from .inverse import monotone_inverse
from .mixing import Gamma, MixingLaw, PositiveStable

__all__ = [
    "sample_exch_normal",
    "exch_normal_cdf",
    "sample_spherical_ciid",
    "williamson_transform",
    "sample_l1_ciid",
    "l1_ciid_survival",
    "laplace_inverse",
    "archimedean_generator",
    "archimedean_copula_eval",
    "gnedin_g",
    "sample_linf_ciid",
    "linf_ciid_survival",
    "pareto_uniform_copula",
    "pareto_uniform_marginal_cdf",
]


# -- compound-symmetric normal ------------------------------------------------

def sample_exch_normal(mu, sigma, rho, d, n, rng) -> np.ndarray:
    """X_k = mu + sigma*(sqrt(rho)*M + sqrt(1-rho)*M_k) with iid standard
    normal M, M_1..M_d.

    rho is the common pairwise correlation and must lie in [0, 1]; negative
    equicorrelation admits no such one-factor representation.
    """
    if not 0.0 <= rho <= 1.0:
        raise SpecValidationError(f"correlation must lie in [0,1], got {rho}")
    if sigma <= 0:
        raise SpecValidationError("sigma must be positive")
    shared = rng.standard_normal(n)
    data = rng.standard_normal((n, d))
    data *= math.sqrt(1.0 - rho)
    data += math.sqrt(rho) * shared[:, None]
    data *= sigma
    data += mu
    return data


@functools.cache
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 80-node Gauss-Hermite rule (weight exp(-t^2/2)),
    built on first use: ``numpy.polynomial`` and its eigenproblem load only
    in a process that evaluates an exch_normal cdf."""
    return np.polynomial.hermite_e.hermegauss(80)


def exch_normal_cdf(mu, sigma, rho, x):
    """Joint cdf of the equicorrelated normal law over the last axis of ``x``,
    by mixing over the shared factor: one Gauss-Hermite rule for every point."""
    from scipy.special import ndtr

    if not 0.0 <= rho <= 1.0:
        raise SpecValidationError(f"correlation must lie in [0,1], got {rho}")
    x = np.asarray(x, dtype=float)
    if rho == 1.0:
        out = ndtr((x.min(axis=-1) - mu) / sigma)
    else:
        nodes, weights = _gh_rule()
        with np.errstate(over="ignore"):  # z beyond the doubles is +-inf, where ndtr is exact
            z = (x[..., None, :] - mu - sigma * math.sqrt(rho) * nodes[:, None]) / (
                sigma * math.sqrt(1.0 - rho)
            )
        vals = ndtr(z).prod(axis=-1)
        out = np.sum(weights * vals, axis=-1) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else float(out)


# -- spherical ----------------------------------------------------------------

def sample_spherical_ciid(law: MixingLaw, d, n, rng) -> np.ndarray:
    """Scale mixture of iid standard normals: one M per row times a normal row."""
    m = law.sample(n, rng)
    data = m[:, None] * rng.standard_normal((n, d))
    return data


# -- l1-norm symmetric --------------------------------------------------------

def williamson_transform(law: MixingLaw, d: int, x) -> float:
    """The d-times monotone function E[max(1 - x/R, 0)**(d-1)] of a positive
    radial variable R, by ``law.expect`` over R > x.

    Williamson's theorem: the survival function of an l1-norm symmetric law
    R * S on R_+^d, S uniform on the unit simplex, is this transform of R
    (McNeil & Neslehova 2009).  It equals 1 at x = 0 and is non-increasing.
    """
    if d < 1:
        raise SpecValidationError("dimension must be at least 1")
    x = float(x)
    if x < 0:
        raise SpecValidationError("argument must be non-negative")
    if x == 0.0:
        return 1.0
    return float(law.expect(lambda r: (1.0 - x / r) ** (d - 1), lower=x))


def sample_l1_ciid(law: MixingLaw, d, n, rng) -> np.ndarray:
    """X = E / M; the joint survival function is phi(||x||_1) with phi the
    Laplace transform of M.  A draw M = 0, or one so small that E / M
    overflows, gives X = inf, the correctly rounded value: phi(inf) = P(M = 0).

    E is drawn column by column, n values for X_1, then n for X_2, ..., into
    a column-major sample, so the division by M runs along contiguous columns.
    """
    m = law.sample(n, rng)
    data = rng.standard_exponential((d, n)).T
    with np.errstate(divide="ignore", over="ignore"):  # M = 0, or below E / max double: X = inf
        data /= m[:, None]
    return data


def l1_ciid_survival(law: MixingLaw, x):
    """phi(||x||_1) over the last axis of ``x``, points of [0, inf]^d.  Each
    point sums left to right, as numpy does below 8 terms and Python's ``sum``
    from 3.12 does not, and phi takes each norm on its own: the vector pow of
    a Gamma law's phi rounds some values otherwise than the scalar one.  A sum
    beyond the doubles is inf, where phi is P(M = 0)."""
    x = np.asarray(x, dtype=float)
    out = np.array([law.laplace(functools.reduce(operator.add, p, 0.0))
                    for p in x.reshape(-1, x.shape[-1]).tolist()]).reshape(x.shape[:-1])
    return out if out.ndim else float(out)


# -- Archimedean copulas ------------------------------------------------------

def laplace_inverse(law: MixingLaw, u: float) -> float:
    """Generalized inverse phi^{-1}(u) = inf{x : phi(x) <= u} of the Laplace
    transform phi of ``law``: in closed form for a Gamma or positive stable
    law, else the crossing of :func:`monotone_inverse` for phi(x) <= u (inf if
    none), refusing a NaN: the least such double where phi is monotone on the
    doubles, as scipy's ``hyp1f1`` for a Beta law need not be."""
    if not 0.0 <= u <= 1.0:
        raise SpecValidationError(f"generator inverse needs u in [0,1], got {u}")
    if u >= 1.0:
        return 0.0
    if isinstance(law, Gamma):  # phi(x) = (1 + x)**-theta: x = u**(-1/theta) - 1
        try:
            return u ** (-1.0 / law.shape) - 1.0
        except (ZeroDivisionError, OverflowError):  # u = 0, or an x beyond the doubles
            return math.inf
    if isinstance(law, PositiveStable):  # phi(x) = exp(-x**theta): x = (-log u)**(1/theta)
        try:
            return (-math.log(u)) ** (1.0 / law.theta)
        except (ValueError, OverflowError):  # u = 0, or an x beyond the doubles
            return math.inf

    def phi(t: float) -> float:
        value = law.laplace(t)
        if math.isnan(value):  # NaN <= u is False: the bisection would climb on it
            raise UnsupportedLawError(f"{law!r}: the Laplace transform is NaN at x = {t!r}")
        return value

    x = monotone_inverse(lambda t: phi(t) <= u)
    # With mass at 0, phi levels off at P(M = 0) = phi(inf) and can round onto
    # u = P(M = 0) at a finite x; phi never drops below u there, and the inverse
    # is inf.  Only phi(inf) tells: near 0, phi(2 x) can round onto a u below 1.
    return x if phi(math.inf) < u else math.inf


def archimedean_generator(law: MixingLaw) -> MixingLaw:
    """``law``, refused unless its Laplace transform phi is an Archimedean
    generator, which needs phi(inf) = P(M = 0) = 0."""
    at_inf = law.laplace(math.inf)
    if at_inf > 0:
        raise UnsupportedLawError(f"{law!r} has P(M = 0) = phi(inf) = {at_inf!r} > 0: its "
                                  "Laplace transform is no Archimedean generator")
    return law


def archimedean_copula_eval(law: MixingLaw, u):
    """phi(phi^{-1}(u_1) + ... + phi^{-1}(u_d)) with phi the Laplace transform
    of ``law``, an :func:`archimedean_generator`, over the last axis of ``u``,
    points of [0, 1]^d: the survival copula of the l1-norm symmetric law, so
    :func:`l1_ciid_survival` at the inverses.  Each distinct coordinate value
    of a point without a zero is inverted once, by :func:`laplace_inverse`; a
    point with a zero coordinate is inf in each, where phi(inf) = 0."""
    archimedean_generator(law)
    u = np.asarray(u, dtype=float)
    points = u.reshape(-1, u.shape[-1]).tolist()
    needed = dict.fromkeys(v for p in points if 0.0 not in p for v in p)
    inverse = {v: laplace_inverse(law, v) for v in needed}
    x = [[math.inf] * len(p) if 0.0 in p else [inverse[v] for v in p] for p in points]
    return l1_ciid_survival(law, np.reshape(x, u.shape))


# -- linf-norm symmetric ------------------------------------------------------

def gnedin_g(law: MixingLaw, d: int, x) -> float:
    """g_d(x) = E[M^{-d}; M > x], the density generator of M*U laws.

    Gnedin's characterization: the linf-norm symmetric law M * U on R_+^d
    (U iid uniform on [0, 1]) has density g_d(max_k x_k), and g_d is
    non-increasing with d * int g_d(x) x^{d-1} dx = 1 (Gnedin 1995).
    """
    if d < 1:
        raise SpecValidationError("dimension must be at least 1")
    with np.errstate(over="ignore"):  # E[M^{-d}] may diverge at x = 0: it is inf
        return float(law.expect(lambda m: m ** (-d), lower=float(x)))


def sample_linf_ciid(law: MixingLaw, d, n, rng) -> np.ndarray:
    """X = M * U with U iid uniform on [0,1]; rows are conditionally iid
    uniform on [0, M], and a row of M = 0 is 0."""
    m = law.sample(n, rng)
    data = rng.random((n, d))
    data *= m[:, None]
    return data


def linf_ciid_survival(law: MixingLaw, x):
    """P(X > x) = E[prod_k max(0, 1 - x_k/M)] for X = M*U, over the last axis
    of ``x``, points of [0, inf]^d.  The integral starts at each point's
    maximum, so each point has its own rule."""
    x = np.asarray(x, dtype=float)
    out = np.array([
        float(law.expect(lambda m: np.prod(1.0 - np.divide.outer(p, m), axis=0), lower=p.max()))
        for p in x.reshape(-1, x.shape[-1])
    ]).reshape(x.shape[:-1])
    out = np.minimum(out, 1.0)  # near 0 the rule may integrate the density to 1 plus a few ulps
    return out if out.ndim else float(out)


# -- Pareto mixture of uniforms ----------------------------------------------

def pareto_uniform_marginal_cdf(alpha: float, x) -> float:
    """Marginal cdf of M*U with M ~ Pareto(alpha), the law of :func:`pareto_uniform_copula`."""
    x = float(x)
    if x <= 0:
        return 0.0
    if x < 1:
        return alpha / (1.0 + alpha) * x
    return 1.0 - x ** (-alpha) / (1.0 + alpha)


def pareto_uniform_copula(alpha: float, u1: float, u2: float) -> float:
    """Bivariate copula of the Pareto-mixed uniform model, in closed form.

    Piecewise in whether the arguments fall below or above the marginal
    break alpha/(1+alpha); exhibits upper tail dependence 2/(2+alpha).
    """
    if alpha <= 0:
        raise SpecValidationError("alpha must be positive")
    for u in (u1, u2):
        if not 0.0 <= u <= 1.0:
            raise SpecValidationError(f"copula arguments must lie in [0,1], got {u}")
    lo, hi = min(u1, u2), max(u1, u2)
    if lo == 0.0:
        return 0.0
    if hi >= 1.0:
        return lo
    split = alpha / (1.0 + alpha)
    if hi <= split:
        return (1.0 + alpha) ** 2 / (alpha * (alpha + 2.0)) * u1 * u2
    if lo <= split:
        return lo - (1.0 + alpha) ** (1.0 + 1.0 / alpha) / (2.0 + alpha) * lo * (1.0 - hi) ** (
            1.0 + 1.0 / alpha
        )
    return lo - alpha / (2.0 + alpha) * (1.0 - lo) ** (-1.0 / alpha) * (1.0 - hi) ** (
        1.0 + 1.0 / alpha
    )
