"""Min-stable multivariate exponential laws and extreme-value copulas.

A law in this family is determined by a stable tail dependence function l
(homogeneous of degree 1, max(x) <= l(x) <= sum(x)) through
sf(x) = exp(-rate * l(x)).  Dependence structures are built from unit-mean
distribution functions G: the building block

    l_G(x) = int_0^inf 1 - prod_k G(u/x_k) du = E[max_k x_k Y_k],  Y_k iid G,

covers the logistic and negative-logistic models and the exponential
lack-of-memory family.  Every stdf here has one representation, the triplet
(b, c, gamma) of Mai & Scherer (2014, Extremes): drift weight b, series
weight c and a finite mixture gamma of G atoms, with
l(x) = (b ||x||_1 + c sum_i w_i l_{G_i}(x)) / (b + c).  Independence, the
logistic, negative-logistic and single-G models are factories for special
triplets.

l is a weighted sum of its parts, so sf = exp(-rate l) is a product of one
min-stable survival function per part, and the sampler draws X as the
componentwise minimum of independent parts, with s = rate/(b + c):

* the drift, sf = exp(-s b ||x||_1): iid exponentials of rate s b;
* each atom (G, w), sf = exp(-s c w l_G(x)), by :meth:`GSpec.sample_minstable`:
  - Frechet(theta), the logistic model: Kanter's positive-stable mixture
    (:func:`sample_logistic_direct`);
  - an MO atom whose law of M is finite: by Abel summation,
    l_{G_q}(x) = sum_j q^(j-1) x_[j] over decreasingly sorted x, so the part is
    the exchangeable Marshall-Olkin law of a compound Poisson subordinator
    with a jump (M_i, s c w p_i/(1 - e^-M_i)) per atom M_i of mass p_i (an
    atom at 0 adds drift, one at inf kill), sampled by the death chain of
    ``lack_of_memory`` in at most d steps;
  - any other G, an MO atom with an unbounded M too: extremal functions
    (:func:`sample_extremal`).  l_G is max-stable with spectral vector Y of
    iid G entries (E[Y_k] = 1), and the extremal-functions algorithm of
    Dombry, Engelke & Oesting (2016, Biometrika) draws
    Z = max_i Y^(i)/Gamma_i exactly, with no truncation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    SpecValidationError,
    UnsupportedLawError,
    json_field,
    json_kind,
    json_known_fields,
    json_kwargs,
    json_list,
    json_number,
)
from .mixing import (FiniteDiscrete, MixingLaw, PointMass, _categorical, integrate, sample_positive_stable,
                     scalar_pow)

__all__ = [
    "GSpec",
    "Frechet",
    "Weibull",
    "MOAtom",
    "StepFunction",
    "Triplet",
    "independence",
    "logistic",
    "negative_logistic",
    "lf",
    "stdf_eval",
    "minstable_survival",
    "extreme_value_copula_eval",
    "sample_minstable",
    "sample_logistic_direct",
    "sample_extremal",
    "g_spec_from_json",
    "stdf_from_json",
]


# -- unit-mean distribution functions on [0, inf] ------------------------------

class GSpec:
    """Distribution function of a non-negative variable with unit mean."""

    kind = "abstract"

    def ell(self, x):
        """l_G(x) = E[max_k x_k Y_k] for Y_k iid G over the last axis of finite,
        non-negative ``x`` whose points each have a positive coordinate: one
        value per point, a float for a single point."""
        x = np.asarray(x, dtype=float)
        out = self._ell(x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])
        return out if out.ndim else float(out)

    def _ell(self, x: np.ndarray) -> np.ndarray:
        """:meth:`ell` at the k rows of a (k, d) array."""
        raise NotImplementedError

    def tilted_draw(self, d: int, m: int, rng) -> np.ndarray:
        """m rows of Y/Y_k for a vector Y of d iid G entries drawn under the
        law tilted by Y_k (density Y_k against the plain law).  The entries
        are exchangeable, so the draw is the same for every k but in column
        k, which the caller sets to 1."""
        raise UnsupportedLawError(f"no spectral sampler for G kind {self.kind!r}")

    def sample_minstable(self, rate: float, d: int, n: int, rng) -> np.ndarray:
        """n rows of the min-stable law sf(x) = exp(-rate l_G(x)), by
        extremal functions unless a kind has a faster exact sampler."""
        return sample_extremal(self, rate, d, n, rng)

    __repr__ = MixingLaw.__repr__


class Frechet(GSpec):
    """G(y) = exp(-(Gamma(1-theta)*y)**(-1/theta)); induces the logistic model."""

    kind = "frechet"

    def __init__(self, theta: float):
        if not 0.0 < theta < 1.0:
            raise SpecValidationError(f"frechet index must lie in (0,1), got {theta}")
        self.theta = float(theta)
        self.scale = math.gamma(1.0 - theta)

    def _ell(self, x):
        # (sum x_k**p)**theta with p = 1/theta; where the sum overflows or
        # underflows, m (sum (x_k/m)**p)**theta with m the row maximum, whose
        # top term is 1
        p = 1.0 / self.theta
        with np.errstate(over="ignore", under="ignore"):
            total = np.sum(x ** p, axis=-1)
            out = scalar_pow(total, self.theta)
            redo = (total < np.finfo(float).tiny) | (total == math.inf)
            if redo.any():
                top = x[redo].max(axis=-1)
                out[redo] = top * np.sum((x[redo] / top[:, None]) ** p, axis=-1) ** self.theta
        return out

    def tilted_draw(self, d, m, rng):
        # (scale*Y)**(-1/theta) is Exp(1), and Gamma(1-theta) under the tilt
        tilted = rng.standard_gamma(1.0 - self.theta, m)
        return (tilted[:, None] / rng.standard_exponential((m, d))) ** self.theta

    def sample_minstable(self, rate, d, n, rng):
        # l_G is the logistic stdf
        return sample_logistic_direct(self.theta, rate, d, n, rng)


class Weibull(GSpec):
    """G(y) = 1 - exp(-(Gamma(1+theta)*y)**(1/theta)); negative-logistic model."""

    kind = "weibull"

    def __init__(self, theta: float):
        if not theta > 0:
            raise SpecValidationError(f"weibull index must be positive, got {theta}")
        self.theta = float(theta)
        try:
            self.scale = math.gamma(1.0 + theta)
        except OverflowError:
            raise SpecValidationError(f"weibull index {theta} overflows Gamma(1 + theta)") from None

    def _ell(self, x):
        # With w = (scale u / max x)**(1/theta), G(u/x_k) = 1 - exp(-w r_k) for
        # r_k = (max x/x_k)**(1/theta).  The top coordinate alone gives l_G = max x; the
        # others Q add max x/scale * int (1 - exp(-w)) (1 - Q(w)) d(w**theta), 0 at w = 0
        # for every theta; w = c v**(1/kappa) widens its peak near w = theta for the rule.
        # One rule serves every row: the integrand has a (k, nodes) shape.
        rows, i = np.arange(len(x)), np.argmax(x, axis=-1)
        top, theta = x[rows, i], self.theta
        c, kappa = max(1.0, theta), max(1.0, math.sqrt(theta))
        with np.errstate(divide="ignore", over="ignore"):  # r = inf is an exact limit
            r = (top[:, None] / x) ** (1.0 / theta)
        r[rows, i] = math.inf  # the top factor is not in Q

        def fn(v, _):
            w = c * v ** (1.0 / kappa)
            with np.errstate(divide="ignore", over="ignore"):  # log(0) is an exact limit
                logq = np.log1p(-np.exp(-(w[:, None] * r[:, None, :]))).sum(axis=-1)
                return np.exp(np.log(-np.expm1(-w)) + np.log(-np.expm1(logq)) + theta * np.log(w) - np.log(v))

        return top * (1.0 + theta / kappa / self.scale * integrate(fn, 0.0, math.inf))

    def tilted_draw(self, d, m, rng):
        # (scale*Y)**(1/theta) is Exp(1), and Gamma(1+theta) under the tilt
        tilted = rng.standard_gamma(1.0 + self.theta, m)
        return (rng.standard_exponential((m, d)) / tilted[:, None]) ** self.theta


class MOAtom(GSpec):
    """Two-point G with an atom at success probability q = exp(-M):
    G_q(t) = q for t < 1/(1-q), then 1.  Induces the exponential
    lack-of-memory dependence.  M may be any mixing law; l averages l_{G_q}
    over it, so its series coefficients E[(1 - q^j)/(1 - q)] =
    phi(0) + ... + phi(j-1) are sums of values of M's Laplace transform phi."""

    kind = "mo_atom"

    def __init__(self, m: MixingLaw | float):
        if not isinstance(m, MixingLaw):
            m = PointMass(float(m))
        self.m = m

    def _ell(self, x):
        # l_{G_q}(x) = sum_j (1 + q + ... + q^(j-1)) * gap_j over the gaps of
        # the decreasingly sorted x, and E[q^i] = phi(i).  One dot product per
        # row: a matrix product rounds the sums otherwise
        s = np.sort(x, axis=-1)[:, ::-1]
        gaps = s - np.concatenate([s[:, 1:], np.zeros((len(x), 1))], axis=1)
        coeff = np.cumsum(self.m.laplace(np.arange(x.shape[-1])))
        return np.array([coeff @ g for g in gaps])

    def tilted_draw(self, d, m, rng):
        # Given q, Y_j = 1{U_j < 1-q}/(1-q); the tilt fixes Y_k = 1/(1-q) and
        # keeps the law of q.  One q serves the whole vector, because ell
        # averages l_{G_q} over M; q = 1 (M = 0) gives the limit e_k.
        q = np.exp(-self.m.sample(m, rng))[:, None]
        return (rng.random((m, d)) < 1.0 - q).astype(float)

    def sample_minstable(self, rate, d, n, rng):
        # exponents rate E[q^(k-1)]: the subordinator of the module docstring.
        # An unbounded M would need a quadrature for its subset rates
        if not isinstance(self.m, FiniteDiscrete):
            return super().sample_minstable(rate, d, n, rng)
        from . import lack_of_memory as lom

        drift = kill = 0.0
        jumps = []
        for m, p in zip(self.m.atoms.tolist(), self.m.weights.tolist()):
            if p == 0.0:
                continue
            jump = rate * p / -math.expm1(-m) if m > 0.0 else math.inf
            if m == math.inf:  # q = 0: 1 for every k >= 1
                kill += rate * p
            elif jump == math.inf:  # q = 1 to the last bit: (1 - q^k)/(1 - q) = k
                drift += rate * p
            else:
                jumps.append((m, jump))
        sub = lom.CompoundPoissonSubordinatorSpec(drift, kill, tuple(jumps))
        return lom.sample_mo_ciid(sub, d, n, rng)


class StepFunction(GSpec):
    """Right-continuous step distribution function given by breakpoints and
    post-jump values; the last value must be 1 and the mean must equal 1."""

    kind = "step"

    def __init__(self, points: tuple, values: tuple):
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

    def _ell(self, x):
        # 1 - prod_k G(u/x_k) is piecewise constant between the sorted products
        # of breakpoints and coordinates: integrate exactly.  A repeated break
        # spans no width; at x_k = 0, u/x_k is inf, or NaN where u = 0, and
        # G is 1 at either.  Each row is divided by the power of two at or below
        # its maximum, which is exact, so that no break overflows near the
        # largest doubles
        k = len(x)
        scale = np.ldexp(1.0, np.frexp(x.max(axis=-1))[1] - 1)
        x = x / scale[:, None]
        breaks = np.sort(np.concatenate([np.zeros((k, 1)), (x[:, :, None] * self.points).reshape(k, -1)],
                                        axis=1), axis=1)
        mids = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            prods = np.prod(self.cdf(mids[:, :, None] / x[:, None, :]), axis=-1)
        return scale * np.sum((1.0 - prods) * np.diff(breaks, axis=1), axis=-1)  # 0 beyond points[-1]

    def tilted_draw(self, d, m, rng):
        # Y_j = points[I_j] with I_j drawn from the step masses; under the
        # tilt I_k follows the size-biased masses
        mass = np.diff(self.values, prepend=0.0)
        biased = mass * self.points
        at = self.points[_categorical(mass, (m, d), rng)]
        at_k = self.points[_categorical(biased / biased.sum(), m, rng)]
        return at / at_k[:, None]


# -- stable tail dependence functions ------------------------------------------

class Triplet:
    """Drift weight b >= 0, series weight c >= 0 and a finite mixture of G atoms.

    l(x) = b/(b+c) ||x||_1 + c/(b+c) sum_i w_i l_{G_i}(x); margins of the
    matching sampler are exponential with rate b + c.  The atoms' weights
    w_i sum to 1 when c > 0; c = 0 takes no atoms and needs b > 0, which is
    independence.  Every stdf of this package is a triplet: the named kinds
    of the model JSON are the factories :func:`independence`,
    :func:`logistic`, :func:`negative_logistic` and :func:`lf`.
    """

    kind = "triplet"

    def __init__(self, b: float = 0.0, c: float = 0.0, atoms=()):
        if not (b >= 0 and c >= 0 and b + c > 0):
            raise SpecValidationError(f"need b >= 0, c >= 0 and b + c > 0, got b={b}, c={c}")
        atoms = tuple((g, float(w)) for g, w in atoms)
        if bool(atoms) != (c > 0):
            raise SpecValidationError(f"a triplet has G atoms exactly when c > 0, got c={c}")
        if atoms and (any(w < 0 for _, w in atoms) or abs(sum(w for _, w in atoms) - 1.0) > 1e-12):
            raise SpecValidationError("atom weights must be non-negative and sum to 1")
        self.b = float(b)
        self.c = float(c)
        self.atoms = atoms

    def ell(self, x: np.ndarray) -> np.ndarray:
        """l at the k rows of a (k, d) array of finite, non-negative points, each
        with a positive coordinate."""
        total_rate = self.b + self.c
        out = self.c / total_rate * sum(w * g._ell(x) for g, w in self.atoms)
        if self.b > 0:
            out += self.b / total_rate * np.sum(x, axis=-1)
        return out

    def marginal_rate(self) -> float:
        """Exponential rate of each margin in the sampler's native scale."""
        return self.b + self.c


def independence() -> Triplet:
    """l(x) = ||x||_1."""
    return Triplet(1.0, 0.0)


def logistic(theta: float) -> Triplet:
    """l(x) = (sum x_k**(1/theta))**theta, theta in (0,1]: l_G of Frechet(theta),
    and independence at theta = 1."""
    if not 0.0 < theta <= 1.0:
        raise SpecValidationError(f"logistic index must lie in (0,1], got {theta}")
    return Triplet(0.0, 1.0, [(Frechet(theta), 1.0)]) if theta < 1.0 else independence()


def negative_logistic(theta: float) -> Triplet:
    """Alternating inclusion-exclusion sum with index theta > 0: l_G of Weibull(1/theta)."""
    if not theta > 0:
        raise SpecValidationError(f"negative-logistic index must be positive, got {theta}")
    return Triplet(0.0, 1.0, [(Weibull(1.0 / theta), 1.0)])


def lf(g: GSpec) -> Triplet:
    """Dependence generated by the single unit-mean G: l = l_G."""
    return Triplet(0.0, 1.0, [(g, 1.0)])


def stdf_eval(spec: Triplet, x):
    """Evaluate a stable tail dependence function over the last axis of ``x``,
    points of [0, inf]^d; homogeneous of degree 1, bounded by
    max(x) <= l(x) <= sum(x).  Zero coordinates are immaterial: a point of
    zeros gives 0, and one with an infinite coordinate inf."""
    x = np.asarray(x, dtype=float) + 0.0  # -0 becomes +0
    rows = x.reshape(-1, x.shape[-1])
    top = rows.max(axis=-1)
    out = np.where(top > 0, math.inf, 0.0)
    inner = (top > 0) & (top < math.inf)
    if inner.any():
        out[inner] = spec.ell(rows[inner])
    out = out.reshape(x.shape[:-1])
    return out if out.ndim else float(out)


def minstable_survival(spec: Triplet, rate: float, x):
    """sf(x) = exp(-rate*l(x)) over the last axis of ``x``; satisfies
    sf(x)**t = sf(t*x) exactly."""
    if rate <= 0:
        raise SpecValidationError("marginal rate must be positive")
    return _exp_of_negative(rate * stdf_eval(spec, x))


def extreme_value_copula_eval(spec: Triplet, u):
    """C(u) = exp(-l(-log u_1, ..., -log u_d)) over the last axis of ``u``,
    points of [0, 1]^d; max-stable: C(u)**t = C(u**t).  A zero coordinate
    gives 0."""
    with np.errstate(divide="ignore"):  # -log 0 = inf, where l is inf
        return _exp_of_negative(stdf_eval(spec, -np.log(u)))


def _exp_of_negative(values):
    """exp(-v) of each value by ``math.exp``, whose bits the numpy exp need not
    give; a float for a single value."""
    values = np.asarray(values, dtype=float)
    out = np.array([math.exp(-v) for v in values.ravel().tolist()]).reshape(values.shape)
    return out if out.ndim else float(out)


# -- samplers -------------------------------------------------------------------

def sample_logistic_direct(theta: float, rate: float, d: int, n: int, rng) -> np.ndarray:
    """Exact logistic-model sampler: X_k = (eps_k / S)**theta / rate with S a
    positive theta-stable variable shared by the row."""
    if not 0.0 < theta < 1.0:
        raise SpecValidationError(f"logistic index must lie in (0,1), got {theta}")
    if rate <= 0:
        raise SpecValidationError("rate must be positive")
    s = sample_positive_stable(theta, n, rng)
    data = rng.standard_exponential((n, d))
    data /= s[:, None]
    data **= theta
    data /= rate
    return data


def sample_minstable(spec: Triplet, d: int, n: int, rng, rate: float | None = None) -> np.ndarray:
    """Exact min-stable sampler, part by part.

    With s = rate/(b + c), X is the componentwise minimum of independent
    parts, one per term of l: iid exponentials of rate s b for the drift, and
    for each atom (G, w) with w > 0 the law of l_G at rate s c w, drawn by
    :meth:`GSpec.sample_minstable`: Kanter's :func:`sample_logistic_direct`
    for a Frechet atom, the death chain of ``lack_of_memory.sample_mo_ciid``
    for an MO atom with a finite law of M (a compound Poisson subordinator,
    by Abel summation), :func:`sample_extremal` for any other.  A one-part
    triplet returns its part as drawn.  ``rate`` rescales the margins from
    their native rate b + c.
    """
    r = spec.marginal_rate() if rate is None else float(rate)
    if not r > 0:
        raise SpecValidationError("rate must be positive")
    s = r / (spec.b + spec.c)
    out = rng.standard_exponential((n, d)) / (s * spec.b) if spec.b > 0 else None
    for g, w in spec.atoms:
        if w > 0:
            part = g.sample_minstable(s * spec.c * w, d, n, rng)
            out = part if out is None else np.minimum(out, part, out=out)
    return out


def sample_extremal(g: GSpec, rate: float, d: int, n: int, rng) -> np.ndarray:
    """n rows of sf(x) = exp(-rate l_G(x)) by extremal functions.

    Draws Z = max_i Y^(i)/Gamma_i, where Gamma_1 < Gamma_2 < ... are the
    points of a unit-rate Poisson process and Y^(i) iid vectors of d iid G
    entries, and returns X = 1/(rate * Z).  The algorithm of Dombry, Engelke
    & Oesting (2016) finds, for each coordinate k in turn, the points whose
    Y/Gamma attains Z_k, drawing Y under the law tilted by Y_k and normalized
    to Y_k = 1; it stops once 1/Gamma <= Z_k, and so takes d draws per row on
    average with no truncation.  All rows run in lockstep.
    """

    def draw(k, m):
        y = g.tilted_draw(d, m, rng)
        y[:, k] = 1.0
        return y

    z = draw(0, n) / rng.standard_exponential(n)[:, None]
    for k in range(1, d):
        gamma = rng.standard_exponential(n)
        rows = np.flatnonzero(1.0 / gamma > z[:, k])
        gamma = gamma[rows]
        while rows.size:
            y = draw(k, rows.size) / gamma[:, None]
            zr = z[rows]
            new = (y[:, :k] < zr[:, :k]).all(axis=1)
            z[rows[new]] = np.maximum(zr[new], y[new])
            gamma += rng.standard_exponential(rows.size)
            # an accepted row now has Z_k >= its old 1/Gamma, so it is done
            live = ~new & (1.0 / gamma > zr[:, k])
            rows, gamma = rows[live], gamma[live]
    return 1.0 / (rate * z)


# -- JSON -----------------------------------------------------------------------

_G_KINDS = {cls.kind: cls for cls in (Frechet, Weibull, MOAtom, StepFunction)}
_STDF_KINDS = {  # the factories are named after their kinds
    **{f.__name__: f for f in (independence, logistic, negative_logistic, lf)},
    Triplet.kind: Triplet,
}


def g_spec_from_json(obj: dict, path: str = "g") -> GSpec:
    """The G of the model-JSON object at ``path``."""
    from .mixing import mixing_law_from_json

    cls = json_kind(obj, "kind", path, _G_KINDS, "G kind")
    kwargs = json_kwargs(cls, obj, path, "kind")
    if cls is MOAtom and isinstance(kwargs["m"], dict):
        kwargs["m"] = mixing_law_from_json(kwargs["m"], f"{path}.m")
    elif cls is MOAtom:
        kwargs["m"] = json_number(obj, "m", path)
    return cls(**kwargs)


def stdf_from_json(obj: dict, path: str = "stdf") -> Triplet:
    """The stdf of the model-JSON object at ``path``: a triplet, built by the
    factory or class its ``kind`` names."""
    factory = json_kind(obj, "kind", path, _STDF_KINDS, "stdf kind")
    kwargs = json_kwargs(factory, obj, path, "kind")
    if "g" in kwargs:
        kwargs["g"] = g_spec_from_json(kwargs["g"], f"{path}.g")
    if "atoms" in kwargs:
        atoms = json_list(obj, "atoms", path)
        kwargs["atoms"] = [_atom_from_json(a, f"{path}.atoms[{i}]") for i, a in enumerate(atoms)]
    return factory(**kwargs)


def _atom_from_json(obj: dict, path: str) -> tuple[GSpec, float]:
    g = g_spec_from_json(json_field(obj, "g", path), f"{path}.g")
    weight = json_number(obj, "weight", path)
    json_known_fields(obj, path, ("g", "weight"), path)
    return g, weight
