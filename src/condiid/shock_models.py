"""Exogenous shock models, Dirichlet-prior sampling, and Sato frailty.

A system of d components is hit by independent shocks, one per non-empty
subset, with the shock law depending only on the subset's cardinality.  The
survival copula of such a model is an ordered product

    chat(u) = u_[1] * prod_{k=2}^d g_k(u_[k]).

Its conditionally iid members are the first passages X_k = inf{t : Z_t > E_k}
of a non-decreasing process Z with independent increments across iid
unit-exponential barriers E_k.  Two such processes get exact samplers and
closed forms here:

- the Dirichlet prior, 1 - F(t) = exp(-Z_t) for a random distribution
  function F with concentration c and base G (``sample_dp``, ``dp_survival``);
- the Sato frailty, the self-similar process with Laplace exponents
  psi_t(x) = psi(x*t) of the self-decomposable Gamma(alpha) exponent
  psi(x) = alpha*log(1 + x) (``sample_sato``, ``sato_survival``).

Self-decomposability is known, not probed.  A law on [0, inf) is
self-decomposable if and only if its Levy measure is k(u)/u du with k
non-increasing (Sato 1999, Thm 15.10).  The Gamma exponent is, with
k(u) = alpha*exp(-u).  A compound Poisson subordinator is self-decomposable
only without jumps and without killing, that is as a pure drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionCapError,
    SpecValidationError,
    json_kind,
    json_kwargs,
)
from .inverse import monotone_inverse
from .lack_of_memory import _death_chain
from .mixing import scalar_pow

__all__ = [
    "ShockSurvival",
    "ExponentialShock",
    "WeibullShock",
    "ParetoShock",
    "StepShock",
    "ShockSurvivalSpec",
    "exshock_sample",
    "exshock_survival",
    "exshock_marginal_survival",
    "exshock_marginal_inverse",
    "exshock_copula_eval",
    "BaseDistribution",
    "UniformBase",
    "ExponentialBase",
    "NormalBase",
    "sample_dp",
    "dp_copula_eval",
    "dp_survival",
    "sato_survival",
    "sample_sato",
    "shock_from_json",
    "base_distribution_from_json",
]


# -- one-dimensional shock laws -------------------------------------------------

class ShockSurvival:
    """Parametric survival function on [0, inf) for a single shock arrival."""

    kind = "abstract"

    def survival(self, x):
        raise NotImplementedError

    def sample(self, n, rng):
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialShock(ShockSurvival):
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if self.rate < 0:
            raise SpecValidationError("rate must be non-negative")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        # rate 0: the shock never arrives, survival 1 also at x = inf
        out = np.exp(-self.rate * x) if self.rate else np.ones_like(x)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        if self.rate == 0:
            return np.full(n, np.inf)
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class WeibullShock(ShockSurvival):
    shape: float
    scale: float = 1.0
    kind = "weibull"

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise SpecValidationError("shape and scale must be positive")

    def survival(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        with np.errstate(over="ignore"):  # x / s is inf beyond s times the largest double,
            ratio = x / self.scale  # where (x / s)^k is x^k s^-k, finite for a small k
            power = scalar_pow(ratio, self.shape)
            far = np.isinf(ratio) & (x < math.inf)
            power[far] = scalar_pow(x[far], self.shape) * scalar_pow(self.scale, -self.shape)
        out = np.exp(-power)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return self.scale * rng.weibull(self.shape, size=n)


@dataclass(frozen=True)
class ParetoShock(ShockSurvival):
    """Lomax survival (1 + x/scale)**-alpha, support [0, inf)."""

    alpha: float
    scale: float = 1.0
    kind = "pareto"

    def __post_init__(self):
        if self.alpha <= 0 or self.scale <= 0:
            raise SpecValidationError("alpha and scale must be positive")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        # s / (s + x), not 1 + x / s: x / s overflows beyond s times the largest double
        out = scalar_pow(self.scale / (self.scale + np.maximum(x, 0.0)), self.alpha)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return self.scale * (rng.random(n) ** (-1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class StepShock(ShockSurvival):
    """Piecewise-constant survival: value ``values[i]`` from ``points[i]`` on.

    Residual mass ``values[-1]`` sits at +inf (the shock may never arrive).
    """

    points: tuple
    values: tuple
    kind = "step"

    def __post_init__(self):
        points = tuple(float(p) for p in self.points)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if len(points) != len(values) or not points:
            raise SpecValidationError("points and values must match and be non-empty")
        if any(p < 0 for p in points) or list(points) != sorted(set(points)):
            raise SpecValidationError("points must be non-negative and increasing")
        if any(not 0 <= v <= 1 for v in values) or list(values) != sorted(values, reverse=True):
            raise SpecValidationError("values must be non-increasing in [0,1]")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.concatenate([[1.0], self.values])
        out = vals[np.searchsorted(self.points, x, side="right")]
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        u = rng.random(n)
        # P(E = points[i]) = values[i-1] - values[i]; P(E = inf) = values[-1]
        vals = np.asarray(self.values)
        cum = 1.0 - vals  # df just after each point
        idx = np.searchsorted(cum, u, side="left")
        pts = np.asarray(self.points + (np.inf,))
        return pts[np.minimum(idx, len(self.points))]


_SHOCK_KINDS = {cls.kind: cls for cls in (ExponentialShock, WeibullShock, ParetoShock, StepShock)}


def shock_from_json(obj: dict, path: str = "shock") -> ShockSurvival:
    """The shock law of the model-JSON object at ``path``."""
    cls = json_kind(obj, "kind", path, _SHOCK_KINDS, "shock kind")
    return cls(**json_kwargs(cls, obj, path, "kind"))


@dataclass(frozen=True)
class ShockSurvivalSpec:
    """Per-cardinality shock laws hbar_1..hbar_d of an exchangeable shock model."""

    shocks: tuple

    def __post_init__(self):
        shocks = tuple(self.shocks)
        if not shocks or not all(isinstance(s, ShockSurvival) for s in shocks):
            raise SpecValidationError("need one ShockSurvival per cardinality 1..d")
        object.__setattr__(self, "shocks", shocks)

    @property
    def d(self) -> int:
        return len(self.shocks)


MAX_SHOCK_DIM = 20


def exshock_sample(spec: ShockSurvivalSpec, d: int, n: int, rng) -> np.ndarray:
    """X_k = min{E_I : k in I} over all 2^d - 1 independent subset shocks,
    E_I drawn from hbar_|I|.

    The shocks are drawn by subset size, then members in lexicographic order.
    Components that no shock reaches stay +inf.  Every subset is drawn, so d
    is capped at ``MAX_SHOCK_DIM``.
    """
    if d != spec.d:
        raise SpecValidationError(f"spec dimension {spec.d} != requested {d}")
    if d > MAX_SHOCK_DIM:
        raise DimensionCapError(f"shock construction caps d at {MAX_SHOCK_DIM}")
    data = np.full((n, d), np.inf, order="F")  # filled by column
    for size in range(1, d + 1):
        for members in combinations(range(d), size):
            e = spec.shocks[size - 1].sample(n, rng)
            for k in members:
                np.minimum(data[:, k], e, out=data[:, k])
    return data


def _log_g(spec: ShockSurvivalSpec, k: int, t):
    """log g_k(t) = sum_m C(d-k, m-1) log hbar_m(t), m = 1..d-k+1: g_k(t) is
    the probability that no shock on a subset that holds one fixed component
    and none of k - 1 other fixed ones has come by t."""
    d = spec.d
    with np.errstate(divide="ignore"):  # a shock that surely came gives log 0 = -inf
        return sum(math.comb(d - k, m - 1) * np.log(spec.shocks[m - 1].survival(t))
                   for m in range(1, d - k + 2))


def exshock_survival(spec: ShockSurvivalSpec, x) -> float | np.ndarray:
    """Joint survival prod_k g_k(x_{[d-k+1]}) of :func:`_log_g` over the last
    axis of ``x``, points of [0, inf]^d."""
    s = np.sort(np.asarray(x, dtype=float), axis=-1)
    d = spec.d
    out = np.exp(sum(_log_g(spec, k, s[..., d - k]) for k in range(1, d + 1)))
    return out if out.ndim else float(out)


def exshock_marginal_survival(spec: ShockSurvivalSpec, x) -> float | np.ndarray:
    """P(X_1 > x) = g_1(x) = prod_m hbar_m(x)**C(d-1, m-1)."""
    out = np.exp(_log_g(spec, 1, np.asarray(x, dtype=float)))
    return out if out.ndim else float(out)


def exshock_marginal_inverse(spec: ShockSurvivalSpec, u: float) -> float:
    """Generalized inverse inf{x : P(X_1 > x) <= u} of the marginal survival."""
    if u >= 1.0:
        return 0.0
    return monotone_inverse(lambda x: exshock_marginal_survival(spec, x) <= u)


def exshock_copula_eval(spec: ShockSurvivalSpec, u):
    """Survival copula chat(u) = u_[1] * prod_{k>=2} g_k(sfinv_1(u_[k])), with
    g_k of :func:`_log_g` and sfinv_1 the marginal inverse, over the last axis
    of ``u``, points of [0, 1]^d.  Each distinct value among the u_[k], k >= 2,
    of the points with u_[1] > 0 is inverted once, by a bisection."""
    u = np.asarray(u, dtype=float)
    points = np.sort(u.reshape(-1, u.shape[-1]), axis=-1).tolist()
    needed = dict.fromkeys(v for s in points if s[0] != 0.0 for v in s[1:spec.d])
    inverse = {v: exshock_marginal_inverse(spec, v) for v in needed}
    out = np.array([_exshock_copula_at(spec, s, inverse) for s in points])
    out = out.reshape(u.shape[:-1])
    return out if out.ndim else float(out)


def _exshock_copula_at(spec: ShockSurvivalSpec, s: list, inverse: dict) -> float:
    if s[0] == 0.0:
        return 0.0
    value = s[0]
    for k in range(2, spec.d + 1):
        value *= float(np.exp(_log_g(spec, k, inverse[s[k - 1]])))
    return value


# -- base distributions for the Dirichlet prior ---------------------------------

class BaseDistribution:
    """Continuous strictly increasing distribution function used as DP base."""

    family = "abstract"

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def sample(self, n, rng):
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBase(BaseDistribution):
    a: float = 0.0
    b: float = 1.0
    family = "uniform"

    def __post_init__(self):
        if not self.b > self.a:
            raise SpecValidationError("need b > a")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return out if out.ndim else float(out)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        out = self.a + (self.b - self.a) * u
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return rng.uniform(self.a, self.b, size=n)


@dataclass(frozen=True)
class ExponentialBase(BaseDistribution):
    rate: float = 1.0
    family = "exponential"

    def __post_init__(self):
        if self.rate <= 0:
            raise SpecValidationError("rate must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(x, 0.0))
        return out if out.ndim else float(out)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        out = -np.log1p(-u) / self.rate
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class NormalBase(BaseDistribution):
    mu: float = 0.0
    sigma: float = 1.0
    family = "normal"

    def __post_init__(self):
        if self.sigma <= 0:
            raise SpecValidationError("sigma must be positive")

    def cdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        out = special.ndtr((x - self.mu) / self.sigma)
        return out if out.ndim else float(out)

    def ppf(self, u):
        from scipy import special

        u = np.asarray(u, dtype=float)
        out = self.mu + self.sigma * special.ndtri(u)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return self.mu + self.sigma * rng.standard_normal(n)


_BASES = {cls.family: cls for cls in (UniformBase, ExponentialBase, NormalBase)}


def base_distribution_from_json(obj: dict, path: str = "base") -> BaseDistribution:
    """The base distribution of the model-JSON object at ``path``."""
    cls = json_kind(obj, "family", path, _BASES, "base distribution")
    return cls(**json_kwargs(cls, obj, path, "family"))


# -- Dirichlet prior sampling and copula ------------------------------------------

def sample_dp(c: float, base: BaseDistribution, d: int, n: int, rng) -> np.ndarray:
    """Predictive (urn) sampler: a fresh base draw with probability c/(c+k),
    otherwise a uniformly chosen previous value."""
    if c <= 0:
        raise SpecValidationError("concentration must be positive")
    data = np.empty((n, d))
    data[:, 0] = base.sample(n, rng)
    rows = np.arange(n)
    for k in range(1, d):
        fresh = rng.random(n) < c / (c + k)
        pick = rng.integers(0, k, size=n)
        new = base.sample(n, rng)
        data[:, k] = np.where(fresh, new, data[rows, pick])
    return data


def dp_copula_eval(c: float, u):
    """chat_c(u) = u_[1] * prod_{k=2}^d (c*u_[k] + k - 1)/(c + k - 1) over the
    last axis of ``u``, points of [0, 1]^d."""
    if c <= 0:
        raise SpecValidationError("concentration must be positive")
    s = np.sort(np.asarray(u, dtype=float), axis=-1)
    k = np.arange(2, s.shape[-1] + 1)
    out = s[..., 0] * np.prod((c * s[..., 1:] + k - 1) / (c + k - 1), axis=-1)
    return out if out.ndim else float(out)


def dp_survival(c: float, base: BaseDistribution, x):
    """P(X > x) for DP samples over the last axis of ``x``: the copula applied
    to marginal survivals."""
    x = np.asarray(x, dtype=float)
    return dp_copula_eval(c, 1.0 - np.asarray(base.cdf(x), dtype=float))


# -- Sato frailty -------------------------------------------------------------------

def sato_survival(alpha: float, x) -> float | np.ndarray:
    """P(X > x) = (prod_k ((m-1)*x_[k] + 1)/(m*x_[k] + 1))**alpha, m = d-k+1,
    over the last axis of ``x``, points of [0, inf]^d.

    Each factor is written with numerator and denominator divided by
    max(x_[k], 1), so that it cannot overflow; a +inf coordinate gives the
    last factor, and the survival, 0.
    """
    if alpha <= 0:
        raise SpecValidationError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    s = np.sort(x, axis=-1)
    m = np.arange(d, 0, -1, dtype=float)
    u, v = np.minimum(s, 1.0), 1.0 / np.maximum(s, 1.0)
    out = scalar_pow(np.prod(((m - 1.0) * u + v) / (m * u + v), axis=-1), alpha)
    return out if out.ndim else float(out)


def sample_sato(alpha: float, d: int, n: int, rng) -> np.ndarray:
    """First passage X_k = inf{t : Z_t > E_k} of the Sato process Z of the
    Gamma(alpha) law across iid unit-exponential barriers E_k, sampled by its
    number of deaths.

    Z jumps by t*Exp(1) at the times t of a Poisson process of intensity
    alpha/t.  By lack of memory the k barriers above the level are iid Exp(1)
    excesses, so from t0 no one dies before t with probability
    ((1 + k*t0)/(1 + k*t))**alpha: the next death is at
    t1 = t0*e**(E/alpha) + expm1(E/alpha)/k, by a jump t1*Y, Y = E' + E''/(1 + k*t1)
    (Exp(1) tilted by 1 - exp(-k*t1*Y)), that kills Binomial(k, 1 - exp(-t1*Y))
    given at least one: a truncated geometric first index i, then
    j = 1 + Binomial(k - i, p).  A t1 of 0 (E = 0) becomes the least normal
    double; an overflow or underflow gives its limit, inf or 0.
    """
    if alpha <= 0:
        raise SpecValidationError("alpha must be positive")
    tiny = np.finfo(float).tiny

    def next_event(k, t0):
        g = rng.standard_exponential(k.size) / alpha
        t1 = np.multiply(t0, np.exp(g), out=np.zeros_like(t0), where=t0 > 0)  # no 0*inf at t0 = 0
        t1 = np.maximum(t1 + np.expm1(g) / k, tiny)
        x = t1 * (rng.standard_exponential(k.size) + rng.standard_exponential(k.size) / (1.0 + k * t1))
        # P(i' <= i) = (1 - q**i)/(1 - q**k) with q = exp(-x); log q = -x needs no log(0)
        first = np.ceil(np.log1p(rng.random(k.size) * np.expm1(-k * x)) / -x)
        first = np.clip(first, 1, k).astype(np.intp)
        return t1, 1 + rng.binomial(k - first, -np.expm1(-x))

    with np.errstate(over="ignore", under="ignore"):
        return _death_chain(next_event, d, n, rng)[0]
