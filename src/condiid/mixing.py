"""Mixing laws for one-factor models.

Each law describes a positive (or unit-interval) random variable M used as a
latent factor.  Laws carry a sampler, a Laplace transform, moments when
supported on [0, 1], and expectations: sums over atoms, or ``integrate``, the
one quadrature rule of the package, against a density.  A law is read from the
model JSON ``{"family": ..., <constructor arguments>}``.

The Laplace transform phi(x) = E[exp(-x M)] keeps one contract on every
double x >= 0, +inf included: phi(0) = 1, every value lies in [0, 1], and a
float and an array give each x the same bits.  A NaN x gives NaN, which
``laplace_inverse`` refuses; x < 0 lies outside the domain.  A law without a
closed form takes it by its own ``expect``, which a sum of weights or a
quadrature of the density may round above 1; ``MixingLaw.laplace`` holds it
to the contract.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import SpecValidationError, UnsupportedLawError, _parameters, json_kind, json_kwargs

__all__ = [
    "MixingLaw",
    "PointMass",
    "FiniteDiscrete",
    "Gamma",
    "Beta",
    "Pareto",
    "PositiveStable",
    "LogSeries",
    "mixing_law_from_json",
    "sample_positive_stable",
    "integrate",
]

# One fixed double-exponential rule of step DE_STEP: exp-sinh x = exp(pi/2 sinh t)
# on (0, inf) for |t| <= EXP_SINH_T, and tanh-sinh x = 1/(1 + exp(-pi sinh t)) on
# (0, 1) for |t| <= TANH_SINH_T, with 1 - x = 1/(1 + exp(pi sinh t)) exact too.
# The exp-sinh nodes run from 1e-227 to 1e227, the tanh-sinh nodes to 1e-275 of
# either end, normal doubles all: the rule keeps the end mass of a density like
# m**-0.9 at 0 and, to 2e-23, the tail of one like m**-1.1.
DE_STEP = 1.0 / 16.0
EXP_SINH_T = 6.5
TANH_SINH_T = 6.0
_T = np.arange(-EXP_SINH_T, EXP_SINH_T + DE_STEP / 2, DE_STEP)
_EXP_X = np.exp(np.pi / 2 * np.sinh(_T))
_EXP_W = DE_STEP * np.pi / 2 * np.cosh(_T) * _EXP_X
_TANH_T = np.arange(-TANH_SINH_T, TANH_SINH_T + DE_STEP / 2, DE_STEP)
_TANH_X = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TANH_T)))
_TANH_REST = 1.0 / (1.0 + np.exp(np.pi * np.sinh(_TANH_T)))
_TANH_W = DE_STEP * np.pi * np.cosh(_TANH_T) * _TANH_X * _TANH_REST


def integrate(fn, lo: float, hi: float):
    """int_lo^hi fn(x, hi - x) dx: exp-sinh if hi is inf, else tanh-sinh.  ``fn``
    gets the nodes and their distances to hi, exact near hi (inf for exp-sinh),
    and may return a leading axis of integrands; the rule sums the last axis."""
    if math.isinf(hi):  # nodes lo + s X at the scale s of lo: lo + X would round to lo
        scale = max(1.0, lo)
        with np.errstate(over="ignore"):  # nodes beyond the doubles are inf
            x = lo + scale * _EXP_X
        return scale * np.sum(fn(x, math.inf) * _EXP_W, axis=-1)
    width = hi - lo
    x = np.where(_TANH_T < 0, lo + width * _TANH_X, hi - width * _TANH_REST)
    return width * np.sum(fn(x, width * _TANH_REST) * _TANH_W, axis=-1)


def scalar_pow(base, exponent: float) -> np.ndarray:
    """base**exponent for each value of ``base`` by the C library's pow.

    numpy's vector pow rounds some values otherwise than the scalar pow.  A
    closed form evaluated over many points at once takes its powers from here,
    so that each point keeps the bits it has when evaluated alone."""
    base = np.asarray(base, dtype=float)
    if exponent == 1.0:  # x**1 is x; the Sato law of a Gamma(1) exponent takes it
        return base.copy()
    values = base.ravel().tolist()
    try:
        out = np.fromiter(map(math.pow, values, itertools.repeat(exponent)), float, len(values))
    except OverflowError:  # math.pow refuses a result beyond the doubles, which is inf
        with np.errstate(over="ignore"):
            out = np.array([np.float64(v) ** exponent for v in values])
    return out.reshape(base.shape)


# Bytes of one temporary where a Laplace transform takes an axis of nodes or
# atoms for each of its arguments: the arguments go through in blocks of
# _LAPLACE_BLOCK_BYTES // (8 * axis length) entries, so no temporary spans all
# of a large argument, such as the n x d sample of a copula sampler.
_LAPLACE_BLOCK_BYTES = 1 << 18


def _by_entry_blocks(fn, x: np.ndarray, axis_len: int) -> np.ndarray:
    """``fn`` of the flattened ``x`` in blocks, shaped as ``x``.  ``fn`` maps
    a 1-d block to one value per entry, each from the entry alone (a sum over
    its own axis of ``axis_len`` terms), so the blocks leave the bits as they are."""
    flat = x.ravel()
    step = max(1, _LAPLACE_BLOCK_BYTES // (8 * axis_len))
    out = np.empty(flat.size)
    for start in range(0, flat.size, step):
        out[start:start + step] = fn(flat[start:start + step])
    return out.reshape(x.shape)


def _discount(x, m) -> np.ndarray:
    """exp(-x m), broadcast, where x m is 0 if either factor is 0, also against
    +inf; a NaN x stays NaN."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf is exact; 0 * inf is replaced by 0
        return np.exp(-np.where((x == 0.0) | (m == 0.0), 0.0, x * m))


def _series(step, t):
    """1 + the terms that ``step(term, s)`` makes from 1 for s = 0, 1, ...,
    summed in order up to the first below 2^-53 of the sum: in plain Python
    for a float ``t``, else up to the last entry of the array ``t``."""
    term = total = 1.0
    s = 0
    while (np.any if isinstance(t, np.ndarray) else bool)(abs(term) > 2.0**-53 * abs(total)):
        term = step(term, s)
        total, s = total + term, s + 1
    return total


def _categorical(p: np.ndarray, size, rng: np.random.Generator) -> np.ndarray:
    """Indices drawn with probabilities ``p``: what ``rng.choice(p.size, size, p=p)``
    returns, draw for draw, without its validation of ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def sample_positive_stable(theta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the one-sided stable law with Laplace transform exp(-x**theta).

    Kanter's polar method; exact for theta in (0, 1).
    """
    if not 0.0 < theta < 1.0:
        raise SpecValidationError(f"stable index must lie in (0,1), got {theta}")
    u = rng.uniform(0.0, np.pi, size=n)
    e = rng.standard_exponential(n)
    return (
        np.sin(theta * u)
        * np.sin((1.0 - theta) * u) ** ((1.0 - theta) / theta)
        / np.sin(u) ** (1.0 / theta)
        * e ** (-(1.0 - theta) / theta)
    )


class MixingLaw:
    """Base class; subclasses are light parameter records with methods.

    Laws are read from model JSON by :func:`mixing_law_from_json` and not
    written back: a law keeps each constructor argument as the attribute of
    the same name, which its ``repr`` shows."""

    family = "abstract"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def laplace(self, x):
        """E[exp(-x M)] for x >= 0, vectorized in x, by ``expect``, where x M
        counts as 0 if either factor is 0, also against +inf: exactly 1 at
        x = 0, and never above 1, where a sum of weights or a quadrature
        rounds beyond it."""
        x = np.asarray(x, dtype=float)
        values = _by_entry_blocks(lambda t: self.expect(lambda m: _discount(t[:, None], m)), x, self._nodes())
        out = np.where(x == 0.0, 1.0, np.minimum(values, 1.0))
        return out if out.ndim else float(out)

    def _nodes(self) -> int:
        """Values of M that ``expect`` sums over: the exp-sinh rule of
        ``integrate``, the longer of its two rules."""
        return _EXP_X.size

    def moment(self, k: int) -> float:
        """E[M**k]; only for laws supported in [0, 1]."""
        raise UnsupportedLawError(f"{self.family}: moments not implementable")

    def density(self, m, rest=None):
        """Density at m; ``rest`` is the distance from m to the top of the
        support, exact where ``integrate`` gives it (top - m when None)."""
        raise UnsupportedLawError(f"{self.family}: no density available")

    def expect(self, fn, lower: float = -math.inf):
        """E[fn(M); M > lower] for ``fn`` vectorized over values of M (leading
        axes allowed), by ``integrate`` against the density."""
        lo, hi = self.support()
        a = max(lo, lower)
        if not a < hi:
            return 0.0

        def weighted(m, gap):
            density = self.density(m, gap)
            with np.errstate(invalid="ignore"):  # where the density underflows, fn may be inf
                return np.where(density > 0, fn(m) * density, 0.0)

        return integrate(weighted, a, hi)

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def unit_interval(self) -> bool:
        lo, hi = self.support()
        return lo >= 0.0 and hi <= 1.0

    def __repr__(self):
        """``Name(arg=value, ...)`` over the constructor's arguments, arrays as lists."""
        values = ((k, getattr(self, k)) for k in _parameters(type(self)))
        inner = ", ".join(f"{k}={v.tolist() if isinstance(v, np.ndarray) else v}" for k, v in values)
        return f"{type(self).__name__}({inner})"


class FiniteDiscrete(MixingLaw):
    """Finite discrete law sum_i w_i * delta_{m_i}; weights must sum to 1."""

    family = "finite_discrete"

    def __init__(self, atoms: tuple, weights: tuple):
        atoms = np.asarray(atoms, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if atoms.shape != weights.shape or atoms.ndim != 1 or atoms.size == 0:
            raise SpecValidationError("atoms and weights must be 1-d arrays of equal length")
        if (atoms < 0).any():
            raise SpecValidationError("atoms must be non-negative")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-12:
            raise SpecValidationError("weights must be non-negative and sum to 1 within 1e-12")
        self.atoms = atoms
        self.weights = weights

    def sample(self, n, rng):
        return self.atoms[_categorical(self.weights, n, rng)]

    def _nodes(self):
        return self.atoms.size

    def moment(self, k):
        return float(np.sum(self.weights * self.atoms**k))

    def expect(self, fn, lower=-math.inf):
        inside = self.atoms > lower
        return np.sum(fn(self.atoms[inside]) * self.weights[inside], axis=-1)

    def support(self):
        return (float(self.atoms.min()), float(self.atoms.max()))


class PointMass(FiniteDiscrete):
    """The law of the constant m > 0 (m = inf allowed): one atom of weight 1."""

    family = "point_mass"

    def __init__(self, m: float):
        if not m > 0.0:
            raise SpecValidationError(f"point mass location must be positive, got {m}")
        self.m = float(m)
        self.atoms, self.weights = np.array([self.m]), np.ones(1)

    def sample(self, n, rng):
        return np.full(n, self.m)


class Gamma(MixingLaw):
    """Gamma law with shape theta and unit scale; E[exp(-xM)] = (1+x)**-theta."""

    family = "gamma"

    def __init__(self, shape: float):
        if not shape > 0:
            raise SpecValidationError(f"gamma shape must be positive, got {shape}")
        self.shape = float(shape)

    def sample(self, n, rng):
        return rng.standard_gamma(self.shape, n)

    def laplace(self, x):
        x = np.asarray(x, dtype=float)
        out = (1.0 + x) ** (-self.shape)
        return out if out.ndim else float(out)

    def density(self, m, rest=None):
        from scipy import special

        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                m > 0,
                np.exp((self.shape - 1.0) * np.log(np.maximum(m, 1e-300)) - m - special.gammaln(self.shape)),
                0.0,
            )
        return out if out.ndim else float(out)

    def support(self):
        return (0.0, np.inf)


class Beta(MixingLaw):
    family = "beta"

    def __init__(self, p: float, q: float):
        if not (p > 0 and q > 0):
            raise SpecValidationError(f"beta parameters must be positive, got ({p}, {q})")
        self.p = float(p)
        self.q = float(q)

    def sample(self, n, rng):
        return rng.beta(self.p, self.q, size=n)

    def laplace(self, x):
        """1F1(p; p+q; -x).  Below x = 1 its Maclaurin series sum_s (p)_s /
        ((p+q)_s s!) (-x)^s, within 5.5e-16 of 50-digit mpmath in at most 19
        terms, where scipy's ``hyp1f1`` is inf or NaN near 0 for some p, q and
        above 1 by up to 1.3e-14.  From 1 to x0 = 50 + 10 (p + q + p q),
        ``hyp1f1`` (for Beta(0.05, 1) it is slow from about 1e6 and NaN from
        1e11).  From x0 on Kummer's series Gamma(p+q)/Gamma(q) x^-p sum_s
        (p)_s (1-q)_s / (s! x^s) (DLMF 13.7.2), whose terms from x0 fall by a
        tenth or more while s < q - 1, so it does not cancel.  Against 50-digit
        mpmath up to the largest double, for p, q in [0.01, 1000], it takes at
        most 18 terms and is within 6e-15 for q <= 20; beyond, the error is
        scipy's poch(q, p) (7e-13 at q = 1000), or 1e-13 from the logs where
        poch overflows."""
        from scipy import special

        p, q = self.p, self.q
        switch = 50.0 + 10.0 * (p + q + p * q)
        if isinstance(x, (int, float)):  # plain Python: the inversion kernel asks 63 of them
            x = float(x)
            if x < 1.0:
                return self._maclaurin(x)
            return float(self._kummer(x) if x >= switch else special.hyp1f1(p, p + q, -x))
        x = np.asarray(x, dtype=float)
        small, large = x < 1.0, x >= switch
        out = np.asarray(special.hyp1f1(p, p + q, -np.where(small | large, 0.0, x)))
        out[small] = self._maclaurin(x[small])
        out[large] = self._kummer(x[large])
        return out if out.ndim else float(out)

    def _maclaurin(self, x):
        p, q = self.p, self.q
        return _series(lambda term, s: term * ((p + s) / ((p + q + s) * (s + 1))) * -x, x)

    def _kummer(self, t):
        from scipy import special

        p, q, vector = self.p, self.q, isinstance(t, np.ndarray)
        total = _series(lambda term, s: term * ((p + s) * (1.0 - q + s) / (s + 1)) / t, t)
        scale = special.poch(q, p)  # Gamma(p+q)/Gamma(q); t^-p is smaller still where it is inf
        if math.isinf(scale):
            return np.exp(special.gammaln(p + q) - special.gammaln(q) - p * np.log(t)) * total
        half = (scalar_pow if vector else math.pow)(t, -p / 2)  # t^-p may be subnormal alone
        return scale * half * half * total

    def moment(self, k):
        from scipy import special

        # Gamma(p+k) Gamma(p+q) / (Gamma(p) Gamma(p+q+k))
        return float(
            np.exp(
                special.gammaln(self.p + k)
                + special.gammaln(self.p + self.q)
                - special.gammaln(self.p)
                - special.gammaln(self.p + self.q + k)
            )
        )

    def density(self, m, rest=None):
        from scipy import special

        m = np.asarray(m, dtype=float)
        rest = 1.0 - m if rest is None else rest  # (1 - m)**(q - 1) is singular at 1 for q < 1
        inside = (m > 0) & (rest > 0)
        logpdf = (
            (self.p - 1.0) * np.log(np.where(inside, m, 0.5))
            + (self.q - 1.0) * np.log(np.where(inside, rest, 0.5))
            - special.betaln(self.p, self.q)
        )
        out = np.where(inside, np.exp(logpdf), 0.0)
        return out if out.ndim else float(out)

    def support(self):
        return (0.0, 1.0)


class Pareto(MixingLaw):
    """Pareto law with tail index alpha and scale 1: P(M > x) = min(1, x**-alpha)."""

    family = "pareto"

    def __init__(self, alpha: float):
        if not alpha > 0:
            raise SpecValidationError(f"pareto tail index must be positive, got {alpha}")
        self.alpha = float(alpha)

    def sample(self, n, rng):
        return rng.random(n) ** (-1.0 / self.alpha)

    def density(self, m, rest=None):
        m = np.asarray(m, dtype=float)
        out = np.where(m >= 1, self.alpha * m ** (-self.alpha - 1.0), 0.0)
        return out if out.ndim else float(out)

    def support(self):
        return (1.0, np.inf)


class PositiveStable(MixingLaw):
    """One-sided stable law with E[exp(-xM)] = exp(-x**theta), theta in (0,1)."""

    family = "positive_stable"

    def __init__(self, theta: float):
        if not 0.0 < theta < 1.0:
            raise SpecValidationError(f"stable index must lie in (0,1), got {theta}")
        self.theta = float(theta)

    def sample(self, n, rng):
        return sample_positive_stable(self.theta, n, rng)

    def laplace(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-(x**self.theta))
        return out if out.ndim else float(out)

    def support(self):
        return (0.0, np.inf)


class LogSeries(MixingLaw):
    """Logarithmic law on {1,2,...}: P(M=m) = q**m / (m*(-log(1-q))), q = 1-exp(-theta)."""

    family = "log_series"

    def __init__(self, theta: float):
        if not theta > 0:
            raise SpecValidationError(f"log-series parameter must be positive, got {theta}")
        self.theta = float(theta)
        self.q = -math.expm1(-theta)
        if self.q >= 1.0:
            raise SpecValidationError(
                f"log-series parameter {theta} is too large: q = 1 - exp(-theta) rounds to 1"
            )

    def pmf(self, m: int) -> float:
        # normalized by -log(1 - q) of the rounded q, the law sampled, as in laplace
        return self.q**m / (m * -math.log1p(-self.q))

    def sample(self, n, rng):
        return rng.logseries(self.q, size=n).astype(float)

    def laplace(self, x):
        x = np.asarray(x, dtype=float)
        # normalized by log(1 - q), not by -theta, which the rounding of q
        # puts off by up to 1e-9 relative: phi(0) is exactly 1
        out = np.log1p(-self.q * np.exp(-x)) / np.log1p(-self.q)
        return out if out.ndim else float(out)

    def support(self):
        return (1.0, np.inf)


_FAMILIES = {
    cls.family: cls
    for cls in (PointMass, FiniteDiscrete, Gamma, Beta, Pareto, PositiveStable, LogSeries)
}


def mixing_law_from_json(obj: dict, path: str = "m") -> MixingLaw:
    """The mixing law of the model-JSON object at ``path``."""
    cls = json_kind(obj, "family", path, _FAMILIES, "mixing law family")
    return cls(**json_kwargs(cls, obj, path, "family"))
