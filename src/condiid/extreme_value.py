"""Min-stable multivariate exponential laws and extreme-value copulas.

A law in this family is determined by a stable tail dependence function l
(homogeneous of degree 1, max(x) <= l(x) <= sum(x)) through
sf(x) = exp(-rate * l(x)).  Dependence structures are built from unit-mean
distribution functions G: the building block

    l_G(x) = int_0^inf 1 - prod_k G(u/x_k) du

covers the logistic and negative-logistic models and the exponential
lack-of-memory family, and general mixtures are triplets (drift weight b,
series weight c, finite mixture gamma of G atoms).  The matching sampler
realizes the latent non-decreasing process

    Z_t = b*t + c * sum_n -log G^(n)((eta_1+...+eta_n)/t -)

driven by a unit-rate Poisson process and iid G draws, and computes exact
first-passage times across unit-exponential barriers by bisection on the
frozen realization.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations

import numpy as np
from scipy import integrate, special

from .errors import SpecValidationError, TruncationHorizonError, UnsupportedLawError
from .inverse import monotone_inverse
from .mixing import FiniteDiscrete, MixingLaw, PointMass, sample_positive_stable
from .sample import SampleMatrix

__all__ = [
    "GSpec",
    "Frechet",
    "Weibull",
    "MOAtom",
    "StepFunction",
    "StdfSpec",
    "Independence",
    "Logistic",
    "NegativeLogistic",
    "LF",
    "Triplet",
    "stdf_eval",
    "stdf_numeric_lf",
    "minstable_survival",
    "extreme_value_copula_eval",
    "sample_minstable",
    "sample_logistic_direct",
    "g_spec_from_json",
    "stdf_from_json",
]

TERM_TOL = 1e-12


# -- unit-mean distribution functions on [0, inf] ------------------------------

class GSpec:
    """Distribution function of a non-negative variable with unit mean."""

    kind = "abstract"

    def cdf(self, y):
        raise NotImplementedError

    def cdf_left(self, y):
        """Left-continuous version G(y-), equal to cdf for continuous G."""
        return self.cdf(y)

    def ell(self, x: np.ndarray) -> float:
        """l_G in closed form; None signals no closed form is known."""
        return None

    def support_upper(self) -> float:
        """Smallest point beyond which G equals 1 (inf for unbounded support)."""
        return math.inf

    def jump_points(self) -> np.ndarray:
        return np.empty(0)

    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params()}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


class Frechet(GSpec):
    """G(y) = exp(-(Gamma(1-theta)*y)**(-1/theta)); induces the logistic model."""

    kind = "frechet"

    def __init__(self, theta: float):
        if not 0.0 < theta < 1.0:
            raise SpecValidationError(f"frechet index must lie in (0,1), got {theta}")
        self.theta = float(theta)
        self.scale = math.gamma(1.0 - theta)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(y > 0, np.exp(-np.maximum(self.scale * y, 1e-300) ** (-1.0 / self.theta)), 0.0)
        return out if out.ndim else float(out)

    def ell(self, x):
        return float(np.sum(x ** (1.0 / self.theta)) ** self.theta)

    def params(self):
        return {"theta": self.theta}


def _alternating_neglog_sum(x: np.ndarray, theta: float) -> float:
    """sum_j (-1)^(j+1) sum_{|S|=j} (sum_{k in S} x_k**-theta)**(-1/theta)."""
    total = 0.0
    for j in range(1, x.size + 1):
        inner = sum(
            np.sum(np.asarray(sub) ** (-theta)) ** (-1.0 / theta) for sub in combinations(x, j)
        )
        total += (-1.0) ** (j + 1) * inner
    return float(total)


class Weibull(GSpec):
    """G(y) = 1 - exp(-(Gamma(1+theta)*y)**(1/theta)); negative-logistic model."""

    kind = "weibull"

    def __init__(self, theta: float):
        if not theta > 0:
            raise SpecValidationError(f"weibull index must be positive, got {theta}")
        self.theta = float(theta)
        self.scale = math.gamma(1.0 + theta)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where(y > 0, -np.expm1(-np.maximum(self.scale * y, 0.0) ** (1.0 / self.theta)), 0.0)
        return out if out.ndim else float(out)

    def ell(self, x):
        # the pairwise tail product integrates to (sum x_k**(-1/theta))**(-theta),
        # i.e. the alternating sum at index 1/theta for this parameterization
        return _alternating_neglog_sum(x, 1.0 / self.theta)

    def params(self):
        return {"theta": self.theta}


class MOAtom(GSpec):
    """Two-point G with an atom at success probability q = exp(-M):
    G_t = q for t < 1/(1-q), then 1.  Induces the exponential lack-of-memory
    dependence; M may be random (point mass or finite discrete law)."""

    kind = "mo_atom"

    def __init__(self, m: MixingLaw | float):
        if not isinstance(m, MixingLaw):
            m = PointMass(float(m))
        self.m = m

    def _q_values(self):
        if isinstance(self.m, PointMass):
            return np.array([math.exp(-self.m.m)]), np.array([1.0])
        if isinstance(self.m, FiniteDiscrete):
            return np.exp(-self.m.atoms), self.m.weights
        raise UnsupportedLawError(
            "exact atom enumeration needs a point-mass or finite-discrete M"
        )

    def cdf(self, y):
        qs, ws = self._q_values()
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape if y.ndim else ())
        for q, w in zip(qs, ws):
            thr = np.inf if q >= 1.0 else 1.0 / (1.0 - q)
            out = out + w * np.where(y >= thr, 1.0, q)
        return out if out.ndim else float(out)

    def cdf_left(self, y):
        qs, ws = self._q_values()
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape if y.ndim else ())
        for q, w in zip(qs, ws):
            thr = np.inf if q >= 1.0 else 1.0 / (1.0 - q)
            out = out + w * np.where(y > thr, 1.0, q)
        return out if out.ndim else float(out)

    @staticmethod
    def _coeffs(q: float, d: int) -> np.ndarray:
        j = np.arange(1, d + 1)
        if q == 0.0:
            return np.ones(d)
        if q == 1.0:
            return j.astype(float)  # limit q -> 1: independence
        return (1.0 - q**j) / (1.0 - q)

    def ell(self, x):
        s = np.sort(x)[::-1]
        gaps = s - np.concatenate([s[1:], [0.0]])
        try:
            qs, ws = self._q_values()
        except UnsupportedLawError:
            from .mixtures import _expectation

            coeff = np.array(
                [
                    _expectation(self.m, lambda m, jj=jj: MOAtom._coeffs(math.exp(-m), jj)[-1])
                    for jj in range(1, s.size + 1)
                ]
            )
            return float(np.sum(coeff * gaps))
        total = 0.0
        for q, w in zip(qs, ws):
            total += w * float(np.sum(self._coeffs(float(q), s.size) * gaps))
        return total

    def support_upper(self):
        qs, _ = self._q_values()
        live = qs[qs < 1.0]
        return float(1.0 / (1.0 - live.max())) if live.size else 0.0

    def jump_points(self):
        qs, _ = self._q_values()
        return np.array([1.0 / (1.0 - q) for q in qs if q < 1.0])

    def params(self):
        return {"m": self.m.to_json()}


class StepFunction(GSpec):
    """Right-continuous step distribution function given by breakpoints and
    post-jump values; the last value must be 1 and the mean must equal 1."""

    kind = "step"

    def __init__(self, points, values):
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 1 or points.shape != values.shape or points.size == 0:
            raise SpecValidationError("points and values must be matching 1-d arrays")
        if (np.diff(points) <= 0).any() or (points < 0).any():
            raise SpecValidationError("breakpoints must be non-negative and increasing")
        if (np.diff(values) < 0).any() or (values < 0).any() or (values > 1).any():
            raise SpecValidationError("values must be non-decreasing in [0,1]")
        if values[-1] != 1.0:
            raise SpecValidationError("the final step must reach 1 (finite mean)")
        mean = float(np.sum((1.0 - np.concatenate([[0.0], values[:-1]])) * np.diff(np.concatenate([[0.0], points]))))
        if abs(mean - 1.0) > 1e-8:
            raise SpecValidationError(f"step df must have unit mean, got {mean!r}")
        self.points = points
        self.values = values

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.points, y, side="right")
        vals = np.concatenate([[0.0], self.values])
        out = vals[idx]
        return out if out.ndim else float(out)

    def cdf_left(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.points, y, side="left")
        vals = np.concatenate([[0.0], self.values])
        out = vals[idx]
        return out if out.ndim else float(out)

    def ell(self, x):
        # 1 - prod_k G(u/x_k) is piecewise constant between products of
        # breakpoints and coordinates: integrate exactly
        breaks = np.unique(np.concatenate([[0.0]] + [xk * self.points for xk in x]))
        mids = 0.5 * (breaks[1:] + breaks[:-1])
        prods = np.ones(mids.size)
        for xk in x:
            prods *= self.cdf(mids / xk)
        total = float(np.sum((1.0 - prods) * np.diff(breaks)))
        return total  # integrand vanishes beyond max(x)*points[-1]

    def support_upper(self):
        return float(self.points[-1])

    def jump_points(self):
        return self.points.copy()

    def params(self):
        return {"points": self.points.tolist(), "values": self.values.tolist()}


def stdf_numeric_lf(g: GSpec, x) -> float:
    """l_G by adaptive quadrature of int 1 - prod_k G(u/x_k) du (unit mean)."""
    x = np.asarray(x, dtype=float)
    x = x[x > 0]
    if x.size == 0:
        return 0.0

    def integrand(u):
        return 1.0 - np.prod([g.cdf(u / xk) for xk in x])

    upper = g.support_upper() * float(x.max())
    points = None
    if math.isfinite(upper):
        points = sorted({float(xk * p) for xk in x for p in g.jump_points() if xk * p < upper})
    val, _ = integrate.quad(
        integrand, 0.0, upper, points=points, epsabs=1e-10, epsrel=1e-10, limit=400
    )
    return float(val)


# -- stable tail dependence functions ------------------------------------------

class StdfSpec:
    kind = "abstract"

    def ell(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def marginal_rate(self) -> float:
        """Exponential rate of each margin in the sampler's native scale."""
        return 1.0

    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params()}


class Independence(StdfSpec):
    kind = "independence"

    def ell(self, x):
        return float(np.sum(x))


class Logistic(StdfSpec):
    """l(x) = (sum x_k**(1/theta))**theta, theta in (0,1]; theta=1 is independence."""

    kind = "logistic"

    def __init__(self, theta: float):
        if not 0.0 < theta <= 1.0:
            raise SpecValidationError(f"logistic index must lie in (0,1], got {theta}")
        self.theta = float(theta)

    def ell(self, x):
        return float(np.sum(x ** (1.0 / self.theta)) ** self.theta)

    def params(self):
        return {"theta": self.theta}


class NegativeLogistic(StdfSpec):
    """Alternating inclusion-exclusion sum with index theta > 0."""

    kind = "negative_logistic"

    def __init__(self, theta: float):
        if not theta > 0:
            raise SpecValidationError(f"negative-logistic index must be positive, got {theta}")
        self.theta = float(theta)

    def ell(self, x):
        return _alternating_neglog_sum(x, self.theta)

    def params(self):
        return {"theta": self.theta}


class LF(StdfSpec):
    """Dependence generated by a single unit-mean G; closed form when known."""

    kind = "lf"

    def __init__(self, g: GSpec):
        self.g = g

    def ell(self, x):
        closed = self.g.ell(x)
        if closed is not None:
            return closed
        return stdf_numeric_lf(self.g, x)

    def params(self):
        return {"g": self.g.to_json()}


class Triplet(StdfSpec):
    """Drift weight b >= 0, series weight c > 0 and a finite mixture of G atoms.

    l(x) = b/(b+c) ||x||_1 + c/(b+c) sum_i w_i l_{G_i}(x); margins of the
    matching sampler are exponential with rate b + c.
    """

    kind = "triplet"

    def __init__(self, b: float, c: float, atoms):
        if b < 0 or c <= 0:
            raise SpecValidationError("need b >= 0 and c > 0")
        atoms = tuple((g, float(w)) for g, w in atoms)
        if not atoms:
            raise SpecValidationError("triplet needs at least one G atom")
        if any(w < 0 for _, w in atoms) or abs(sum(w for _, w in atoms) - 1.0) > 1e-12:
            raise SpecValidationError("atom weights must be non-negative and sum to 1")
        self.b = float(b)
        self.c = float(c)
        self.atoms = atoms

    def ell(self, x):
        total_rate = self.b + self.c
        drift = self.b / total_rate * float(np.sum(x))
        series = sum(w * LF(g).ell(x) for g, w in self.atoms)
        return drift + self.c / total_rate * series

    def marginal_rate(self):
        return self.b + self.c

    def params(self):
        return {
            "b": self.b,
            "c": self.c,
            "atoms": [{"g": g.to_json(), "weight": w} for g, w in self.atoms],
        }


def stdf_eval(spec: StdfSpec, x) -> float:
    """Evaluate a stable tail dependence function; homogeneous of degree 1,
    bounded by max(x) <= l(x) <= sum(x).  Zero coordinates are immaterial."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise SpecValidationError("arguments must be non-negative")
    x = x[x > 0]
    if x.size == 0:
        return 0.0
    return spec.ell(x)


def minstable_survival(spec: StdfSpec, rate: float, x) -> float:
    """sf(x) = exp(-rate*l(x)); satisfies sf(x)**t = sf(t*x) exactly."""
    if rate <= 0:
        raise SpecValidationError("marginal rate must be positive")
    return math.exp(-rate * stdf_eval(spec, x))


def extreme_value_copula_eval(spec: StdfSpec, u) -> float:
    """C(u) = exp(-l(-log u_1, ..., -log u_d)); max-stable: C(u)**t = C(u**t)."""
    u = np.asarray(u, dtype=float)
    if ((u < 0) | (u > 1)).any():
        raise SpecValidationError("copula arguments must lie in [0,1]")
    if (u == 0).any():
        return 0.0
    return math.exp(-stdf_eval(spec, -np.log(u)))


# -- samplers -------------------------------------------------------------------

def sample_logistic_direct(theta: float, rate: float, d: int, n: int, rng) -> SampleMatrix:
    """Exact logistic-model sampler: X_k = (eps_k / S)**theta / rate with S a
    positive theta-stable variable shared by the row."""
    if not 0.0 < theta < 1.0:
        raise SpecValidationError(f"logistic index must lie in (0,1), got {theta}")
    if rate <= 0:
        raise SpecValidationError("rate must be positive")
    s = sample_positive_stable(theta, n, rng)
    eps = rng.exponential(size=(n, d))
    data = (eps / s[:, None]) ** theta / rate
    return SampleMatrix(data, meta=f"logistic theta={theta} rate={rate} d={d}")


class _AtomSampler:
    """Per-atom state of one series realization (arrival times and marks)."""

    def __init__(self, g: GSpec, term_tol: float):
        self.g = g
        self.term_tol = term_tol
        self.kind = g.kind
        if g.kind == "frechet":
            self.coeff_sum = 0.0
            self.horizon_slope = term_tol ** (-g.theta) / g.scale
            self.tail_slope = g.theta / (1.0 - g.theta)
        elif g.kind == "weibull":
            self.s = np.empty(0)
            self.horizon_slope = math.log(1.0 / term_tol) ** g.theta / g.scale
        elif g.kind == "mo_atom":
            qs, _ = g._q_values()
            self.thresholds = np.empty(0)  # t above which an arrival contributes
            self.neglogq = np.empty(0)
            live = qs[qs < 1.0]  # q == 1 atoms contribute nothing
            self.horizon_slope = float(1.0 / (1.0 - live.max())) if live.size else 0.0
        elif g.kind == "step":
            self.s = np.empty(0)
            self.horizon_slope = float(g.points[-1])
        else:
            raise UnsupportedLawError(f"no exact series sampler for G kind {g.kind!r}")

    def add(self, arrivals: np.ndarray, rng):
        g = self.g
        if self.kind == "frechet":
            self.coeff_sum += float(np.sum((g.scale * arrivals) ** (-1.0 / g.theta)))
        elif self.kind == "weibull":
            self.s = np.concatenate([self.s, arrivals])
        elif self.kind == "mo_atom":
            qs, ws = g._q_values()
            idx = rng.choice(qs.size, size=arrivals.size, p=ws)
            q = qs[idx]
            with np.errstate(divide="ignore"):
                neglogq = np.where(q > 0, -np.log(np.maximum(q, 1e-300)), np.inf)
            self.thresholds = np.concatenate([self.thresholds, arrivals * (1.0 - q)])
            self.neglogq = np.concatenate([self.neglogq, neglogq])
            order = np.argsort(self.thresholds)
            self.thresholds = self.thresholds[order]
            self.neglogq = self.neglogq[order]
            # prefix[i] = total weight of the i smallest activation thresholds
            self.prefix = np.concatenate([[0.0], np.cumsum(self.neglogq)])
            self._thr_list = self.thresholds.tolist()
            self._prefix_list = self.prefix.tolist()
        else:
            self.s = np.concatenate([self.s, arrivals])

    def value(self, t: float) -> float:
        if t <= 0:
            return 0.0
        g = self.g
        if self.kind == "frechet":
            return self.coeff_sum * t ** (1.0 / g.theta)
        if self.kind == "weibull":
            if not self.s.size:
                return 0.0
            z = (g.scale * self.s / t) ** (1.0 / g.theta)
            return float(-np.log1p(-np.exp(-z)).sum())
        if self.kind == "mo_atom":
            if not self.thresholds.size:
                return 0.0
            return self._prefix_list[bisect_right(self._thr_list, t)]
        if not self.s.size:
            return 0.0
        gl = np.asarray(g.cdf_left(self.s / t))
        with np.errstate(divide="ignore"):
            terms = np.where(gl > 0, -np.log(np.maximum(gl, 1e-300)), np.inf)
        return float(terms.sum())

    def tail_bound(self, t: float, s_end: float) -> float:
        """Upper bound on the expected omitted contribution beyond s_end."""
        g = self.g
        if self.kind == "frechet":
            return s_end * (g.scale * s_end / t) ** (-1.0 / g.theta) * self.tail_slope
        if self.kind == "weibull":
            w_star = (g.scale * s_end / t) ** (1.0 / g.theta)
            return (
                2.0 * t * g.theta / g.scale
                * float(special.gammaincc(g.theta, w_star)) * math.gamma(g.theta)
            )
        return 0.0  # mo_atom and step atoms are cut off exactly


class _SeriesRealization:
    """One frozen path of Z_t = b t + sum_n -log G^(n)(S_n/(c t) -).

    Scaling the mark's argument by 1/c realizes the series weight c: by the
    Campbell formula the joint Laplace transform then carries the factor
    c * sum_i w_i l_{G_i}(x), and margins are exponential with rate b + c.
    """

    BLOCK = 16
    MAX_ARRIVALS = 50_000_000

    def __init__(self, triplet: Triplet, rng, term_tol: float):
        self.triplet = triplet
        self.rng = rng
        self.term_tol = term_tol
        self.atoms = [_AtomSampler(g, term_tol) for g, _ in triplet.atoms]
        self.weights = np.array([w for _, w in triplet.atoms])
        self.horizon_slope = max(a.horizon_slope for a in self.atoms)
        self.s_end = 0.0
        self.n_arrivals = 0
        self.tau_top = 0.0

    def extend_to(self, t: float):
        needed = self.triplet.c * t * self.horizon_slope
        while self.s_end <= needed:
            # arrival gaps have unit mean, so size blocks to the remaining span
            block = int(min(max(self.BLOCK, 1.05 * (needed - self.s_end) + 16), 2_000_000))
            block = max(block, 1)
            gaps = self.rng.exponential(size=block)
            arrivals = self.s_end + np.cumsum(gaps)
            if len(self.atoms) == 1:
                assignment = np.zeros(block, dtype=int)
            else:
                assignment = self.rng.choice(len(self.atoms), size=block, p=self.weights)
            for i, atom in enumerate(self.atoms):
                chunk = arrivals[assignment == i]
                if chunk.size:
                    atom.add(chunk, self.rng)
            self.s_end = float(arrivals[-1])
            self.n_arrivals += block
            if self.n_arrivals > self.MAX_ARRIVALS:
                raise TruncationHorizonError(
                    f"series realization needs more than {self.MAX_ARRIVALS} arrivals "
                    f"(horizon t={t!r}); raise term_tol or reduce the query horizon"
                )

    def z(self, t: float) -> float:
        if t <= 0:
            return 0.0
        tau = self.triplet.c * t
        self.tau_top = max(self.tau_top, tau)
        total = self.triplet.b * t
        for atom in self.atoms:
            total += atom.value(tau)
            if math.isinf(total):
                return math.inf
        return total

    def first_passage(self, level: float, lo: float = 0.0) -> float:
        """inf{t > lo : Z_t > level}, extending the series to each bracket end."""

        def passed(t):
            self.extend_to(t)  # a no-op below the bracket end already reached
            return self.z(t) > level

        t = monotone_inverse(passed, lo=lo, tol=1e-10)
        if math.isinf(t):
            raise TruncationHorizonError("first-passage bracket exceeded the doubling cap")
        return t

    def tail_bound(self) -> float:
        tau = max(self.tau_top, 1e-300)
        return float(
            np.sum([w * a.tail_bound(tau, self.s_end) for (a, w) in zip(self.atoms, self.weights)])
        )


def sample_minstable(
    spec: StdfSpec,
    d: int,
    n: int,
    rng,
    rate: float | None = None,
    term_tol: float = TERM_TOL,
) -> SampleMatrix:
    """Generic min-stable sampler from the latent series construction.

    Each row realizes the marked Poisson series once and solves
    X_k = inf{t : Z_t > eps_k} by monotone bisection.  Atoms with bounded
    support are truncated exactly; heavy-tailed atoms are truncated at
    per-term size ``term_tol`` and the analytic bound on the omitted mass is
    recorded in ``meta`` (worst row).  ``rate`` rescales the margins from
    their native rate b + c.
    """
    if isinstance(spec, LF):
        spec = Triplet(0.0, 1.0, [(spec.g, 1.0)])
    if not isinstance(spec, Triplet):
        raise SpecValidationError("series sampler needs a triplet or single-G spec")
    native = spec.marginal_rate()
    scale = 1.0 if rate is None else native / rate
    data = np.empty((n, d))
    worst_tail = 0.0
    for i in range(n):
        eps = rng.exponential(size=d)
        path = _SeriesRealization(spec, rng, term_tol)
        order = np.argsort(eps)
        row = np.empty(d)
        prev = 0.0
        for k in order:  # passage times are monotone in the barrier level
            prev = path.first_passage(eps[k], lo=prev)
            row[k] = prev
        worst_tail = max(worst_tail, path.tail_bound())
        data[i] = row * scale
    return SampleMatrix(
        data,
        meta=f"minstable {spec.to_json()} d={d} tail_bound={worst_tail:.3e}",
    )


# -- JSON -----------------------------------------------------------------------

def g_spec_from_json(obj: dict) -> GSpec:
    from .mixing import mixing_law_from_json

    kind = obj.get("kind")
    if kind == "frechet":
        return Frechet(obj["theta"])
    if kind == "weibull":
        return Weibull(obj["theta"])
    if kind == "mo_atom":
        m = obj["m"]
        return MOAtom(mixing_law_from_json(m) if isinstance(m, dict) else float(m))
    if kind == "step":
        return StepFunction(obj["points"], obj["values"])
    raise SpecValidationError(f"unknown G kind {kind!r}")


def stdf_from_json(obj: dict) -> StdfSpec:
    kind = obj.get("kind")
    if kind == "independence":
        return Independence()
    if kind == "logistic":
        return Logistic(obj["theta"])
    if kind == "negative_logistic":
        return NegativeLogistic(obj["theta"])
    if kind == "lf":
        return LF(g_spec_from_json(obj["g"]))
    if kind == "triplet":
        atoms = [(g_spec_from_json(a["g"]), a["weight"]) for a in obj["atoms"]]
        return Triplet(obj.get("b", 0.0), obj["c"], atoms)
    raise SpecValidationError(f"unknown stdf kind {kind!r}")
