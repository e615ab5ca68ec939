"""Multivariate lack-of-memory laws: exponential (Marshall-Olkin type) and
wide-sense geometric.

Both families share one algebraic survival form: after sorting the argument,
the k-th largest coordinate gap is raised to a parameter b_k,

    sf(x) = prod_k b_k ** (x_{[d-k+1]} - x_{[d-k]}),   x_{[0]} := 0.

The continuous flavor requires (b_0..b_d) log-d-monotone, the discrete flavor
d-monotone.  Every sampler here is one death chain: by lack of memory, the
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
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .errors import (NotDMonotoneError, SpecValidationError, json_known_fields, json_kwargs,
                     json_list, json_number)
from .moments import (
    BinaryExchangeableLaw,
    ExtendibilityVerdict,
    MonotoneSequence,
    hausdorff_extendible,
    is_d_monotone,
    is_log_d_monotone,
)
from .sample import SampleMatrix

__all__ = [
    "LomParameterSeq",
    "ShockRateSpec",
    "CompoundPoissonSubordinatorSpec",
    "mo_survival",
    "geo_survival",
    "b_from_lambda",
    "lambda_from_b",
    "b_from_p",
    "p_from_b_geo",
    "sample_mo_shocks",
    "sample_geo_shocks",
    "sample_mo_ciid",
    "is_ciid_extendible",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"

@dataclass(frozen=True)
class LomParameterSeq:
    """Survival-form parameters (b_0..b_d) plus the flavor they belong to.

    Construction tests the flavor's (log-)d-monotonicity and sets ``tested``;
    :meth:`_valid`, for sequences valid by construction, leaves it False.
    """

    values: tuple
    flavor: str
    tested: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        seq = MonotoneSequence(tuple(self.values))
        object.__setattr__(self, "values", seq.values)
        if self.flavor == CONTINUOUS:
            if not is_log_d_monotone(seq.values):
                raise NotDMonotoneError(
                    f"continuous-flavor parameters must be log-d-monotone, got {seq.values}"
                )
        elif self.flavor == DISCRETE:
            if not is_d_monotone(seq.values):
                raise NotDMonotoneError(
                    f"discrete-flavor parameters must be d-monotone, got {seq.values}"
                )
        else:
            raise SpecValidationError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "tested", True)

    @classmethod
    def _valid(cls, values, flavor: str) -> "LomParameterSeq":
        """Skip the (log-)d-monotone test, whose absolute tolerance refuses some
        sequences that are valid by construction at large d."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", MonotoneSequence(tuple(values)).values)
        object.__setattr__(self, "flavor", flavor)
        return self

    @property
    def d(self) -> int:
        return len(self.values) - 1


def _ordered_gap_logsf(values: tuple, x: np.ndarray) -> np.ndarray:
    """log sf(x) = sum_k gap_k * log b_k over (..., d) arguments."""
    b = np.asarray(values[1:], dtype=float)
    s = np.sort(x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # two +inf coordinates give a NaN gap, which the mask below counts as 0
        gaps = np.diff(s, axis=-1, prepend=0.0)
        # exponent of b_k is the gap at sorted position d-k (0-indexed)
        exps = gaps[..., ::-1]
        logb = np.where(b > 0, np.log(np.maximum(b, 1e-300)), -np.inf)
        terms = np.where(exps > 0, exps * logb, 0.0)
    return terms.sum(axis=-1)


def mo_survival(params: LomParameterSeq, x) -> float | np.ndarray:
    """Closed-form joint survival function of the continuous flavor."""
    if params.flavor != CONTINUOUS:
        raise SpecValidationError("mo_survival needs continuous-flavor parameters")
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise SpecValidationError("coordinates must be non-negative")
    if x.shape[-1] != params.d:
        raise SpecValidationError(f"expected {params.d} coordinates, got {x.shape[-1]}")
    out = np.exp(_ordered_gap_logsf(params.values, x))
    return out if out.ndim else float(out)


def geo_survival(params: LomParameterSeq, nvec) -> float | np.ndarray:
    """Closed-form joint survival of the discrete flavor on the integer grid."""
    if params.flavor != DISCRETE:
        raise SpecValidationError("geo_survival needs discrete-flavor parameters")
    nvec = np.asarray(nvec)
    if not np.issubdtype(nvec.dtype, np.integer):
        rounded = np.rint(np.asarray(nvec, dtype=float))
        if (rounded != nvec).any():  # compared, not subtracted: inf - rint(inf) is NaN
            raise SpecValidationError("geometric survival is defined on integer grids")
        nvec = rounded
    nvec = np.asarray(nvec, dtype=float)
    if (nvec < 0).any():
        raise SpecValidationError("coordinates must be non-negative")
    if nvec.shape[-1] != params.d:
        raise SpecValidationError(f"expected {params.d} coordinates, got {nvec.shape[-1]}")
    out = np.exp(_ordered_gap_logsf(params.values, nvec))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShockRateSpec:
    """Per-cardinality parameters of an exchangeable shock model in dimension d.

    Every subset I of the components 1..d has its own shock, whose law depends
    on I only through |I|.  ``kind`` "exponential": ``cardinality`` holds the
    rates lambda_1..lambda_d of the exponential shock on one fixed subset of
    that size; they are non-negative and not all 0.  ``kind`` "geometric": it
    holds p_0..p_d, the probability that a round's single shocked subset is
    one fixed subset of that size; sum_m C(d, m) p_m = 1 and every component
    is hit with positive probability.
    """

    d: int
    kind: str
    cardinality: tuple

    def __post_init__(self):
        if self.kind not in ("exponential", "geometric"):
            raise SpecValidationError(f"unknown shock kind {self.kind!r}")
        if self.d < 1:
            raise SpecValidationError("dimension must be at least 1")
        card = tuple(float(v) for v in self.cardinality)
        object.__setattr__(self, "cardinality", card)
        if any(v < 0 for v in card):
            raise SpecValidationError("rates/probabilities must be non-negative")
        if self.kind == "exponential":
            if len(card) != self.d:
                raise SpecValidationError(f"need lambda_1..lambda_{self.d}")
            if sum(card) <= 0:
                raise SpecValidationError("at least one shock rate must be positive")
        else:
            if len(card) != self.d + 1:
                raise SpecValidationError(f"need p_0..p_{self.d}")
            total = sum(math.comb(self.d, k) * card[k] for k in range(self.d + 1))
            if abs(total - 1.0) > 1e-12:
                raise SpecValidationError(f"subset probabilities sum to {total!r}, not 1")
            miss = sum(math.comb(self.d - 1, i) * card[i] for i in range(self.d))
            if miss >= 1.0 - 1e-15:
                raise SpecValidationError("every component needs positive hit probability")


def b_from_lambda(spec: ShockRateSpec) -> LomParameterSeq:
    """Survival-form parameters from exchangeable exponential shock rates:
    b_k = prod_{i<=k} exp(-sum_j C(d-i, j) lambda_{j+1})."""
    if spec.kind != "exponential":
        raise SpecValidationError("b_from_lambda needs exponential shock rates")
    lam = spec.cardinality  # lam[j] == lambda_{j+1}
    d = spec.d
    log_factors = [
        -sum(math.comb(d - i, j) * lam[j] for j in range(d - i + 1)) for i in range(1, d + 1)
    ]
    values = [1.0]
    acc = 0.0
    for lf in log_factors:
        acc += lf
        values.append(math.exp(acc))
    return LomParameterSeq._valid(values, CONTINUOUS)


def lambda_from_b(params: LomParameterSeq) -> ShockRateSpec:
    """Invert :func:`b_from_lambda`: lambda_m = nabla^{m-1} a_{d-m+1} with
    a_i = -log(b_i / b_{i-1}); valid for any log-d-monotone sequence."""
    if params.flavor != CONTINUOUS:
        raise SpecValidationError("lambda_from_b needs continuous-flavor parameters")
    b = params.values
    d = params.d
    a = [-math.log(b[i] / b[i - 1]) for i in range(1, d + 1)]  # a[i-1] == a_i
    # lam[m-1] == lambda_m, entry d - m of the difference table of a
    lam = moments._top_differences(a).tolist()[::-1] if a else []
    lam = [0.0 if -1e-12 < v < 0.0 else v for v in lam]
    if any(v < 0 for v in lam):
        raise SpecValidationError(f"sequence does not correspond to non-negative rates: {lam}")
    return ShockRateSpec(d=d, kind="exponential", cardinality=tuple(lam))


def b_from_p(spec: ShockRateSpec) -> LomParameterSeq:
    """b_k = sum_i C(d-k, i) p_i for exchangeable geometric shock probabilities.

    This is :func:`condiid.moments.b_from_p` with p reversed: p_i here is the
    probability of one fixed set of i shocked components, there of i ones.
    """
    if spec.kind != "geometric":
        raise SpecValidationError("b_from_p needs geometric shock probabilities")
    law = BinaryExchangeableLaw(spec.cardinality[::-1])
    return LomParameterSeq._valid(moments.b_from_p(law).values, DISCRETE)


def p_from_b_geo(params: LomParameterSeq) -> ShockRateSpec:
    """Invert :func:`b_from_p`: p_m = nabla^m b_{d-m}, non-negative for any
    d-monotone input, as discrete-flavor parameters are."""
    if params.flavor != DISCRETE:
        raise SpecValidationError("p_from_b_geo needs discrete-flavor parameters")
    p = moments._law_from_b(params.values).p[::-1]
    return ShockRateSpec(d=params.d, kind="geometric", cardinality=p)


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
    which rank.  Returns the (n, d) sample and the number of steps.
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
    data = by_rank.T.copy()  # C-ordered, so each row's shuffle runs over contiguous memory
    return rng.permuted(data, axis=1, out=data), steps


def sample_mo_shocks(spec: ShockRateSpec, d: int, n: int, rng) -> SampleMatrix:
    """Exchangeable exogenous-shock construction X_k = min{E_I : k in I}, with
    independent E_I ~ Exp(lambda_|I|) over the non-empty subsets I.

    Runs the death-counting chain, in O(n d^2) for any d.
    """
    if spec.kind != "exponential":
        raise SpecValidationError("sample_mo_shocks needs exponential shock rates")
    if d != spec.d:
        raise SpecValidationError(f"spec dimension {spec.d} != requested {d}")
    data, _ = _death_chain(_table_law((0.0,) + spec.cardinality, d, rng, False), d, n, rng)
    return SampleMatrix(data, meta=f"mo_shocks d={d}")


def sample_geo_shocks(spec: ShockRateSpec, d: int, n: int, rng) -> SampleMatrix:
    """Repeated iid rounds, each shocking one subset I with probability
    p_|I|; X_k is the first round whose subset contains k.

    Runs the death-counting chain, in O(n d^2) for any d.
    """
    if spec.kind != "geometric":
        raise SpecValidationError("sample_geo_shocks needs geometric shock probabilities")
    if d != spec.d:
        raise SpecValidationError(f"spec dimension {spec.d} != requested {d}")
    data, _ = _death_chain(_table_law(spec.cardinality, d, rng, True), d, n, rng)
    return SampleMatrix(data, meta=f"geo_shocks d={d}")


@dataclass(frozen=True)
class CompoundPoissonSubordinatorSpec:
    """Non-decreasing latent process: drift, exponential kill, finite jump atoms.

    Laplace exponent lapexp(x) = kill*1_{x>0} + drift*x + sum_j rate_j*(1 - exp(-size_j*x)).
    """

    drift: float = 0.0
    kill: float = 0.0
    jumps: tuple = ()

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

    def b_seq(self, d: int) -> LomParameterSeq:
        """b_k = exp(-psi(k)), log-d-monotone by construction at every d."""
        vals = tuple(math.exp(-float(self.laplace_exponent(k))) for k in range(d + 1))
        return LomParameterSeq._valid((1.0,) + vals[1:], CONTINUOUS)

    def to_json(self) -> dict:
        return {
            "drift": self.drift,
            "kill": self.kill,
            "jumps": [{"size": s, "rate": r} for s, r in self.jumps],
        }

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
) -> SampleMatrix:
    """First passage of the killed compound-Poisson path with drift across
    iid unit-exponential barriers, sampled by its number of deaths.

    By lack of memory the barriers above the level are iid Exp(1) excesses,
    so this is the exchangeable shock model of :func:`_subset_rates`: with k
    alive, j die at rate C(k, j) sum_i r_i p_i^j q_i^(k-j), plus the drift
    when j = 1 and the kill when j = k.  At most d steps for any d.
    """
    if sub.degenerate:
        raise SpecValidationError("subordinator must be non-degenerate")
    jumps = [(math.exp(-s), -math.expm1(-s), r) for s, r in sub.jumps]
    law = _table_law(_subset_rates(sub.drift, sub.kill, jumps, d), d, rng, False)
    data, steps = _death_chain(law, d, n, rng)
    meta = (f"mo_ciid drift={sub.drift} kill={sub.kill} jumps={len(sub.jumps)} d={d} "
            f"chain_steps={steps}")
    return SampleMatrix(data, meta=meta)


def is_ciid_extendible(params: LomParameterSeq) -> ExtendibilityVerdict:
    """Decide whether the law admits a latent-process (conditionally iid)
    representation.

    Continuous flavor: the normalized log-increment sequence must extend to a
    moment sequence; discrete flavor: (b_0..b_d) itself must.  The reported
    Hankel values refer to the sequence actually tested.  Discrete-flavor
    parameters that construction has not tested are tested here.
    """
    if params.flavor == DISCRETE:
        if not (params.tested or is_d_monotone(params.values)):
            raise NotDMonotoneError(
                "the model's b (derived from its p when p is given) is not d-monotone: "
                f"{params.values}"
            )
        return moments._hankel_verdict(params.values)
    b = params.values
    a = [-math.log(b[i] / b[i - 1]) for i in range(1, len(b))]
    if not a or a[0] <= 0.0:
        # d = 0 or a constant sequence: degenerate law, trivially representable
        return ExtendibilityVerdict(extendible=True, hankel_values=(), min_hankel=0.0)
    normalized = (1.0,) + tuple(v / a[0] for v in a[1:])
    try:
        return hausdorff_extendible(normalized)
    except NotDMonotoneError:
        raise NotDMonotoneError(
            "the sequence a_k/a_1, a_k = -log(b_k/b_(k-1)), derived from the "
            f"model's b is not d-monotone: {normalized}"
        ) from None
