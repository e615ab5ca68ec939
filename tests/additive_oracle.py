"""Survival functions of additive first-passage laws, written from their
definitions: the oracle the library's closed forms are tested against.

A non-decreasing process Z with independent increments has Laplace exponents
psi_t(x) = -log E[exp(-x*Z_t)].  Its first passages X_k = inf{t : Z_t > E_k}
across iid unit-exponential barriers E_k have the survival function

    P(X > x) = prod_k exp(-[psi_{x_[d-k+1]}(k) - psi_{x_[d-k+1]}(k-1)]),

x_[1] <= ... <= x_[d] the order statistics.  Each psi below is a plain
function of (t, x).
"""

import math

import numpy as np
from scipy import integrate


def additive_survival(psi, x) -> float:
    """P(X > x) at one point x of [0, inf)^d for the exponents psi(t, x)."""
    s = np.sort(np.asarray(x, dtype=float))
    d = s.size
    return math.exp(-sum(psi(s[d - k], k) - psi(s[d - k], k - 1) for k in range(1, d + 1)))


def levy(sub):
    """psi_t = t*psi for the Levy subordinator with exponent sub.laplace_exponent."""
    return lambda t, x: t * float(sub.laplace_exponent(x))


def sato(alpha: float):
    """psi_t(x) = psi(x*t) for the Gamma(alpha) exponent psi(x) = alpha*log(1 + x)."""
    return lambda t, x: alpha * math.log1p(x * t)


def dirichlet_prior(c: float, base):
    """psi_t(x) = -log E[(1 - F(t))^x] for a Dirichlet prior F with concentration
    c and base G: 1 - F(t) is Beta(gbar, c - gbar) with gbar = c*(1 - G(t))."""

    def psi(t, x):
        gbar = c * (1.0 - float(base.cdf(t)))
        if x == 0:
            return 0.0
        if gbar <= 0:
            return math.inf
        return math.lgamma(gbar) + math.lgamma(x + c) - math.lgamma(x + gbar) - math.lgamma(c)

    return psi


def dirichlet_prior_quad(c: float, base):
    """The exponent of :func:`dirichlet_prior` by quadrature of its jump measure
    (exp(-u*gbar) - exp(-u*c)) / (u*(1 - exp(-u))) du."""

    def psi(t, x):
        gbar = c * (1.0 - float(base.cdf(t)))
        if gbar <= 0:
            return math.inf if x > 0 else 0.0

        def integrand(u):
            return (1.0 - math.exp(-x * u)) * (math.exp(-u * gbar) - math.exp(-u * c)) / (
                u * -math.expm1(-u)
            )

        val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-10, limit=400)
        return val

    return psi
