"""Multivariate lack-of-memory laws: exponential (Marshall-Olkin type) and
wide-sense geometric.

Both families share one algebraic survival form.  Over the argument sorted in
decreasing order, x_(1) >= ... >= x_(d) and x_(d+1) := 0,

    sf(x) = prod_k b_k ** (x_(k) - x_(k+1)).

The exponential law is held by its exponents a_1..a_d: a_k is the rate of the
shocks that hit component k and none of 1..k-1, so Psi(k) = a_1 + ... + a_k is
the rate at which some of k fixed components die, log b_k = -Psi(k) and
sf(x) = exp(-sum_k a_k x_(k)).  The difference table of a holds the shock
rates, which must be non-negative.  The geometric law is held by the law of
one round, a ``moments.BinaryExchangeableLaw`` whose ones are the components
the round spares: its b_k, the probability that a round spares k fixed
components, and its p are those of the binary algebra in ``moments``, and the
law is conditionally iid iff b extends to a moment sequence (Mai, Schenk &
Scherer 2016).  Every sampler here is one death chain: by lack of memory, the
number of components dead is a Markov chain that takes at most d steps, and
which ones die is uniform, so one shuffle of each row's death times, drawn
by rank, assigns them to components.  The law of a step comes from the
exchangeable shock rates or probabilities, or, for the first passage of a
compound Poisson subordinator across iid unit-exponential barriers, from
its subset rates in closed form.  ``shock_models.sample_sato`` runs the same
chain for the Sato frailty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import (NonPositiveEntryError, NotDMonotoneError, SpecValidationError,
                     json_known_fields, json_kwargs, json_list, json_number)
from .moments import (
    MONOTONE_TOL,
    BinaryExchangeableLaw,
    ExtendibilityVerdict,
    MonotoneSequence,
    hausdorff_extendible,
)

__all__ = [
    "ShockRateSpec",
    "CompoundPoissonSubordinatorSpec",
    "mo_survival",
    "geo_survival",
    "exponents",
    "exponents_from_b",
    "rates_from_exponents",
    "sample_mo_shocks",
    "sample_geo_shocks",
    "sample_mo_ciid",
    "is_ciid_extendible",
]


def _ordered_gap_logsf(log_b, x: np.ndarray) -> np.ndarray:
    """log sf(x) = sum_k (x_(k) - x_(k+1)) * log b_k over (..., d) arguments,
    for log_b = (log b_1..log b_d)."""
    s = np.sort(x, axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        # two +inf coordinates give a NaN gap, which the mask below counts as 0;
        # log_b <= 0, so a term or sum that overflows is -inf, a survival of 0
        gaps = np.diff(s, axis=-1, prepend=0.0)[..., ::-1]  # gaps[..., k-1] = x_(k) - x_(k+1)
        return np.where(gaps > 0, gaps * log_b, 0.0).sum(axis=-1)


def mo_survival(a, x) -> float | np.ndarray:
    """Closed-form joint survival exp(-sum_k a_k x_(k)) of the exponential law
    with exponents ``a`` = (a_1..a_d), over the last axis of ``x``, points of
    [0, inf]^d."""
    out = np.exp(_ordered_gap_logsf(-np.cumsum(a), np.asarray(x, dtype=float)))
    return out if out.ndim else float(out)


def geo_survival(b, nvec) -> float | np.ndarray:
    """Closed-form joint survival of the geometric law with b = (b_0..b_d)
    over the last axis of ``nvec``, points of the integer grid in [0, inf]^d."""
    nvec = np.asarray(nvec)
    if not np.issubdtype(nvec.dtype, np.integer):
        rounded = np.rint(np.asarray(nvec, dtype=float))
        if (rounded != nvec).any():  # compared, not subtracted: inf - rint(inf) is NaN
            raise SpecValidationError("geometric survival is defined on integer grids")
        nvec = rounded
    with np.errstate(divide="ignore"):  # b_k = 0 gives log b_k = -inf
        log_b = np.log(b[1:])
    out = np.exp(_ordered_gap_logsf(log_b, np.asarray(nvec, dtype=float)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShockRateSpec:
    """Exponential shock rates of an exchangeable shock model in dimension d.

    Every subset I of the components 1..d has its own exponential shock, whose
    rate depends on I only through |I|: ``cardinality`` holds the rates
    lambda_1..lambda_d of one fixed subset of each size.  They are non-negative
    and not all 0.
    """

    d: int
    cardinality: tuple

    def __post_init__(self):
        if self.d < 1:
            raise SpecValidationError("dimension must be at least 1")
        card = tuple(float(v) for v in self.cardinality)
        object.__setattr__(self, "cardinality", card)
        if any(v < 0 for v in card):
            raise SpecValidationError("shock rates must be non-negative")
        if len(card) != self.d:
            raise SpecValidationError(f"need lambda_1..lambda_{self.d}")
        if sum(card) <= 0:
            raise SpecValidationError("at least one shock rate must be positive")


def exponents(rates) -> tuple:
    """a_1..a_d of the exponential shock rates lambda_1..lambda_d:
    a_i = sum_m C(d-i, m-1) lambda_m, the rate of the shocks that hit component
    i and none of 1..i-1.  No term is negative.  Exact for ``Fraction`` rates."""
    d = len(rates)
    return tuple(sum(math.comb(d - i, j) * rates[j] for j in range(d - i + 1))
                 for i in range(1, d + 1))


def exponents_from_b(b) -> tuple:
    """a_i = -log(b_i / b_(i-1)) of survival-form parameters b_0..b_d, with
    b_k = exp(-Psi(k)).  The entries must be positive; whether the exponents
    make a law is :func:`rates_from_exponents`' test."""
    b = MonotoneSequence(tuple(b)).values
    if any(v <= 0.0 for v in b):
        raise NonPositiveEntryError(f"exponential-law b must be strictly positive, got {b}")
    return tuple(-math.log(b[i] / b[i - 1]) for i in range(1, len(b)))


def rates_from_exponents(a) -> ShockRateSpec:
    """Invert :func:`exponents`: lambda_m = nabla^{m-1} a_{d-m+1}, entry d - m
    of the difference table of a.  For a = :func:`exponents_from_b` of b, the
    table is nabla^{d-k} log b_k, k < d, so a rate below -MONOTONE_TOL means
    b is not log-d-monotone and is refused; one above it is rounded up to 0."""
    lam = moments._top_differences(a).tolist()[::-1] if a else []
    if any(v < -MONOTONE_TOL for v in lam):
        raise NotDMonotoneError(
            f"exponential-law parameters must be log-d-monotone: their shock rates are {lam}"
        )
    lam = [0.0 if v < 0.0 else v for v in lam]
    return ShockRateSpec(d=len(a), cardinality=tuple(lam))


def _death_rates(values, d: int) -> list[list]:
    """w[k][j] = C(k, j) * s_k(j) with s_k(j) = sum_i C(d-k, i) * values[j+i],
    for k, j in 0..d (0 for j > k).

    ``values[m]`` is the parameter of one fixed subset of m components.  With
    k components alive, w[k][j] is the rate (exponential shocks) or the
    per-round probability (geometric shocks) that exactly j of them die at
    once: the j chosen alive ones plus any i of the d-k dead ones make up the
    shocked subset.  Pascal's rule s_k(j) = s_{k+1}(j) + s_{k+1}(j+1) from
    s_d = values builds the table in O(d^2) additions; no term is negative,
    so nothing cancels.  Exact for ``Fraction`` values.
    """
    w = [None] * (d + 1)
    s = list(values)
    for k in range(d, -1, -1):
        w[k] = [math.comb(k, j) * s[j] for j in range(k + 1)] + [0] * (d - k)
        s = [s[j] + s[j + 1] for j in range(k)]
    return w


def _table_law(values, d: int, rng, discrete: bool):
    """The ``next_event`` of :func:`_death_chain` for per-subset ``values``.

    With k components alive the wait for the next death is Exp(R_k), or
    Geometric(R_k) rounds when ``discrete``, where R_k = sum_{j>=1} w[k][j]
    of :func:`_death_rates`; j of them then die, with probability
    w[k][j] / R_k.
    """
    w = np.array(_death_rates(values, d), dtype=float)
    total = w[:, 1:].sum(axis=1)  # R_k; positive for k >= 1 since every component is hit
    cum = np.ones((d + 1, d))  # cum[k, j-1] = P(at most j die | k alive, some die)
    cum[1:] = np.cumsum(w[1:, 1:], axis=1) / total[1:, None]
    cum[np.arange(d)[None, :] >= np.arange(d + 1)[:, None] - 1] = 1.0  # j <= k despite rounding
    cum = np.ascontiguousarray(cum.T)  # cum[j-1, k]: the count sums whole rows, 5x faster

    def next_event(k, t):
        if discrete:
            t1 = t + rng.geometric(np.minimum(total[k], 1.0))
        else:
            t1 = t + rng.standard_exponential(k.size) / total[k]
        return t1, 1 + (cum.take(k, axis=1) <= rng.random(k.size)).sum(axis=0)

    return next_event


def _death_chain(next_event, d: int, n: int, rng) -> tuple[np.ndarray, int]:
    """Exchangeable lack-of-memory law sampled by its number of deaths.

    With k of d components alive at time t, ``next_event(k, t)`` returns the
    time t1 of the next death of each live row and the number j >= 1 that
    die then; which j is uniform (Mai, Schenk & Scherer 2016).  All live rows
    move together, for at most d steps, and record their death times by
    rank; a uniform shuffle of each row then says which component died at
    which rank.  Returns the (n, d) sample, column-major as the chain fills
    it, and the number of steps.
    """
    by_rank = np.zeros((d, n))  # by_rank[i, r]: the time of the i-th death of row r
    rows = np.arange(n)
    t = np.zeros(n)
    dead = np.zeros(n, dtype=np.intp)
    steps = 0
    while rows.size:
        steps += 1
        t, j = next_event(d - dead, t)
        by_rank[dead, rows] = t
        dead = dead + j
        live = dead < d
        rows, t, dead = rows[live], t[live], dead[live]
    # a row's death times increase, so a running maximum gives each block of j its time
    for i in range(1, d):  # row by row: maximum.accumulate along axis 0 is 20x slower here
        np.maximum(by_rank[i], by_rank[i - 1], out=by_rank[i])
    data = by_rank.T  # shuffled in place: the same draws and bits as on a C-ordered copy
    return rng.permuted(data, axis=1, out=data), steps


def sample_mo_shocks(spec: ShockRateSpec, d: int, n: int, rng) -> np.ndarray:
    """Exchangeable exogenous-shock construction X_k = min{E_I : k in I}, with
    independent E_I ~ Exp(lambda_|I|) over the non-empty subsets I.

    Runs the death-counting chain, in O(n d^2) for any d.
    """
    if d != spec.d:
        raise SpecValidationError(f"spec dimension {spec.d} != requested {d}")
    return _death_chain(_table_law((0.0,) + spec.cardinality, d, rng, False), d, n, rng)[0]


def sample_geo_shocks(law: BinaryExchangeableLaw, d: int, n: int, rng) -> np.ndarray:
    """Repeated iid rounds drawn from ``law``, each sparing the components that
    are ones in its pattern; X_k is the first round that does not spare k.

    Runs the death-counting chain, in O(n d^2) for any d.
    """
    if d != law.d:
        raise SpecValidationError(f"law dimension {law.d} != requested {d}")
    p = law.p[::-1]  # p[m]: the round shocks one fixed subset of m components
    miss = sum(math.comb(d - 1, i) * p[i] for i in range(d))
    if miss >= 1.0 - 1e-15:
        raise SpecValidationError("every component needs positive hit probability")
    return _death_chain(_table_law(p, d, rng, True), d, n, rng)[0]


@dataclass(frozen=True)
class CompoundPoissonSubordinatorSpec:
    """Non-decreasing latent process: drift, exponential kill, finite jump atoms.

    Laplace exponent lapexp(x) = kill*1_{x>0} + drift*x + sum_j rate_j*(1 - exp(-size_j*x)).
    """

    drift: float = 0.0
    kill: float = 0.0
    # (size, rate) pairs, read by from_json: json_kwargs reads a plain ``tuple`` as numbers
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.drift < 0 or self.kill < 0:
            raise SpecValidationError("drift and kill rate must be non-negative")
        jumps = tuple((float(s), float(r)) for s, r in self.jumps)
        if any(s <= 0 or r <= 0 for s, r in jumps):
            raise SpecValidationError("jump sizes and rates must be positive")
        object.__setattr__(self, "jumps", jumps)

    @property
    def degenerate(self) -> bool:
        return self.drift == 0 and self.kill == 0 and not self.jumps

    def laplace_exponent(self, x):
        x = np.asarray(x, dtype=float)
        out = self.drift * x + np.where(x > 0, self.kill, 0.0)
        for size, rate in self.jumps:
            out = out + rate * (-np.expm1(-size * x))
        return out if out.ndim else float(out)

    def subset_rates(self, d: int) -> list:
        """lambda_0..lambda_d of :func:`_subset_rates`, with q = exp(-size) of each jump."""
        jumps = [(math.exp(-s), -math.expm1(-s), r) for s, r in self.jumps]
        return _subset_rates(self.drift, self.kill, jumps, d)

    @classmethod
    def from_json(cls, obj: dict, path: str = "subordinator") -> "CompoundPoissonSubordinatorSpec":
        """The subordinator of the model-JSON object at ``path``."""
        jumps = []
        for i, jump in enumerate(json_list(obj, "jumps", path, ())):
            at = f"{path}.jumps[{i}]"
            jumps.append((json_number(jump, "size", at), json_number(jump, "rate", at)))
            json_known_fields(jump, at, ("size", "rate"), at)
        return cls(**{**json_kwargs(cls, obj, path), "jumps": tuple(jumps)})


def _subset_rates(drift, kill, jumps, d: int) -> list:
    """lambda_0..lambda_d of a subordinator: the rate of the shock that kills
    one fixed subset of m of d components and no other, lambda_0 = 0.

    A jump (q, p, rate), q = exp(-size) and p = 1 - q, kills each component
    independently with probability p, the drift one at a time, the kill all.
    No term is negative, so nothing cancels at any d.  Exact for ``Fraction``.
    """
    lam = [0] + [sum(r * p**m * q ** (d - m) for q, p, r in jumps) for m in range(1, d + 1)]
    lam[1] += drift
    lam[d] += kill
    return lam


def sample_mo_ciid(
    sub: CompoundPoissonSubordinatorSpec, d: int, n: int, rng
) -> np.ndarray:
    """First passage of the killed compound-Poisson path with drift across
    iid unit-exponential barriers, sampled by its number of deaths.

    By lack of memory the barriers above the level are iid Exp(1) excesses,
    so this is the exchangeable shock model of :func:`_subset_rates`: with k
    alive, j die at rate C(k, j) sum_i r_i p_i^j q_i^(k-j), plus the drift
    when j = 1 and the kill when j = k.  At most d steps for any d.
    """
    if sub.degenerate:
        raise SpecValidationError("subordinator must be non-degenerate")
    law = _table_law(sub.subset_rates(d), d, rng, False)
    return _death_chain(law, d, n, rng)[0]


def is_ciid_extendible(params) -> ExtendibilityVerdict:
    """Decide whether the law admits a latent-process (conditionally iid)
    representation.

    Exponents (a_1..a_d) of an exponential law: a_k/a_1 must extend to a
    moment sequence.  It is d-monotone, as its difference table holds the shock
    rates, so its Hankel determinants decide, and a negative one within the
    tolerance raises :class:`UndecidedVerdictError`.  The b_0..b_d of a
    geometric law's round, a :class:`MonotoneSequence`: b itself must.  It is
    tested for d-monotonicity here, since rounding can take a b derived from p
    out of it.  The Hankel values are those of the sequence tested.
    """
    if isinstance(params, MonotoneSequence):
        try:
            return hausdorff_extendible(params.values)
        except NotDMonotoneError:
            raise NotDMonotoneError(
                "the model's b (derived from its p when p is given) is not d-monotone: "
                f"{params.values}"
            ) from None
    a = tuple(params)
    if not a or a[0] <= 0.0:
        # d = 0 or no shock: degenerate law, trivially representable
        return ExtendibilityVerdict(extendible=True, hankel_values=(), min_hankel=0.0)
    return moments._hankel_verdict(
        (1.0,) + tuple(v / a[0] for v in a[1:]),
        refuse_band="the sequence a_k/a_1 of the model's exponents a_k = Psi(k) - Psi(k-1),",
    )
