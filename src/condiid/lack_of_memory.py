"""Multivariate lack-of-memory laws: exponential (Marshall-Olkin type) and
wide-sense geometric.

Both families share one algebraic survival form: after sorting the argument,
the k-th largest coordinate gap is raised to a parameter b_k,

    sf(x) = prod_k b_k ** (x_{[d-k+1]} - x_{[d-k]}),   x_{[0]} := 0.

The continuous flavor requires (b_0..b_d) log-d-monotone, the discrete flavor
d-monotone.  Samplers come in two independent constructions that must agree in
law: explicit exogenous shocks, and first passage of a latent non-decreasing
process across iid unit-exponential barriers, solved by one routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .errors import (NotDMonotoneError, SpecValidationError, json_known_fields, json_kwargs,
                     json_list, json_number)
from .mixing import Beta, MixingLaw
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
    "sample_geo_ciid",
    "is_ciid_extendible",
    "beta_family_bseq",
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

    def to_json(self) -> dict:
        return {"b": list(self.values), "flavor": self.flavor}


def _ordered_gap_logsf(values: tuple, x: np.ndarray) -> np.ndarray:
    """log sf(x) = sum_k gap_k * log b_k over (..., d) arguments."""
    b = np.asarray(values[1:], dtype=float)
    s = np.sort(x, axis=-1)
    gaps = np.diff(s, axis=-1, prepend=0.0)
    # exponent of b_k is the gap at sorted position d-k (0-indexed)
    exps = gaps[..., ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
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
        if np.abs(np.asarray(nvec, dtype=float) - rounded).max() > 0:
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
    """w[k][j] = C(k, j) * sum_i C(d-k, i) * values[j+i] for k, j in 0..d.

    ``values[m]`` is the parameter of one fixed subset of m components.  With
    k components alive, w[k][j] is the rate (exponential shocks) or the
    per-round probability (geometric shocks) that exactly j of them die at
    once: the j chosen alive ones plus any i of the d-k dead ones make up the
    shocked subset.  Exact for ``Fraction`` values.
    """
    return [
        [
            math.comb(k, j) * sum(math.comb(d - k, i) * values[j + i] for i in range(d - k + 1))
            if j <= k else 0
            for j in range(d + 1)
        ]
        for k in range(d + 1)
    ]


def _death_chain(values, d: int, n: int, rng, discrete: bool) -> np.ndarray:
    """Exchangeable shock model sampled by its number of deaths (Mai & Scherer).

    With k components alive the wait for the next death is Exp(R_k), or
    Geometric(R_k) rounds when ``discrete``, where R_k = sum_{j>=1} w[k][j];
    j of them then die, with probability w[k][j] / R_k, and which j is
    uniform: the next j ranks of a uniform permutation per row.  All rows
    move together, at most d steps of O(n d) work each.
    """
    w = np.array(_death_rates(values, d), dtype=float)
    total = w[:, 1:].sum(axis=1)  # R_k; positive for k >= 1 since every component is hit
    cum = np.ones((d + 1, d))  # cum[k, j-1] = P(at most j die | k alive, some die)
    cum[1:] = np.cumsum(w[1:, 1:], axis=1) / total[1:, None]
    cum[np.arange(d)[None, :] >= np.arange(d + 1)[:, None] - 1] = 1.0  # j <= k despite rounding
    order = rng.random((n, d)).argsort(axis=1)  # order[r, i]: the i-th component of row r to die
    by_rank = np.zeros((n, d))
    t = np.zeros(n)
    dead = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    while rows.size:
        k = d - dead[rows]
        if discrete:
            t[rows] += rng.geometric(np.minimum(total[k], 1.0))
        else:
            t[rows] += rng.exponential(size=rows.size) / total[k]
        j = 1 + (cum[k] <= rng.random(rows.size)[:, None]).sum(axis=1)
        by_rank[rows, dead[rows]] = t[rows]
        dead[rows] += j
        rows = rows[dead[rows] < d]
    # a row's death times increase, so a running maximum gives each block of j its time
    np.maximum.accumulate(by_rank, axis=1, out=by_rank)
    data = np.empty((n, d))
    np.put_along_axis(data, order, by_rank, axis=1)
    return data


def sample_mo_shocks(spec: ShockRateSpec, d: int, n: int, rng) -> SampleMatrix:
    """Exchangeable exogenous-shock construction X_k = min{E_I : k in I}, with
    independent E_I ~ Exp(lambda_|I|) over the non-empty subsets I.

    Runs the death-counting chain, in O(n d^2) for any d.
    """
    if spec.kind != "exponential":
        raise SpecValidationError("sample_mo_shocks needs exponential shock rates")
    if d != spec.d:
        raise SpecValidationError(f"spec dimension {spec.d} != requested {d}")
    data = _death_chain((0.0,) + spec.cardinality, d, n, rng, discrete=False)
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
    data = _death_chain(spec.cardinality, d, n, rng, discrete=True)
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


def _first_passage(eps: np.ndarray, step, drift: float) -> tuple[np.ndarray, int]:
    """X_k = inf{t : Z_t > eps_k} for every row and barrier of ``eps``, shape (n, d).

    Each row's path Z starts at 0, rises at rate ``drift`` between events and
    jumps at each event; ``step(t)`` returns the ``(wait, jump)`` arrays of
    the next event of the live rows, whose current times are ``t``, and
    ``jump = inf`` kills the path.  A barrier passed while drifting gets
    t + (eps - z) / drift, one passed at an event (eps < z after the jump,
    strictly) the event time.  The live rows step together; a row retires
    once its level is above all its barriers.  Returns X and the number of
    lockstep steps taken.
    """
    x = np.empty(eps.shape)
    t = np.zeros(len(eps))
    z = np.zeros(len(eps))
    top = eps.max(axis=1)
    rows = np.arange(len(eps))
    steps = 0
    while rows.size:
        steps += 1
        wait, jump = step(t[rows])
        e, z0 = eps[rows], z[rows, None]
        z1 = z[rows] + (drift * wait if drift > 0 else 0.0) + jump
        # barriers below z0 were passed before; ones at or above it pass now
        passed = (z0 <= e) & (e < z1[:, None])
        rise = (e - z0) / drift if drift > 0 else np.inf
        x[rows] = np.where(passed, t[rows, None] + np.minimum(rise, wait[:, None]), x[rows])
        t[rows] += wait
        z[rows] = z1
        rows = rows[z1 <= top[rows]]
    return x, steps


def sample_mo_ciid(
    sub: CompoundPoissonSubordinatorSpec, d: int, n: int, rng
) -> SampleMatrix:
    """Exact first passage of the killed compound-Poisson path with drift
    across iid unit-exponential barriers.

    Kill and jumps form one Poisson stream of rate R = kill + sum_j rate_j:
    the wait is Exp(1)/R (inf for a pure drift), and an event is a kill with
    probability kill/R, which fails every component still alive, otherwise
    jump j with probability rate_j/R.
    """
    if sub.degenerate:
        raise SpecValidationError("subordinator must be non-degenerate")
    rates = np.array([sub.kill] + [r for _, r in sub.jumps])
    sizes = np.array([math.inf] + [s for s, _ in sub.jumps])
    total = float(rates.sum())
    eps = rng.exponential(size=(n, d))

    def step(t):
        m = t.size
        if total == 0:
            return np.full(m, math.inf), np.zeros(m)
        wait = rng.exponential(size=m) / total
        return wait, sizes[rng.choice(sizes.size, size=m, p=rates / total)]

    data, steps = _first_passage(eps, step, sub.drift)
    meta = (f"mo_ciid drift={sub.drift} kill={sub.kill} jumps={len(sub.jumps)} d={d} "
            f"lockstep_steps={steps}")
    return SampleMatrix(data, meta=meta)


def sample_geo_ciid(law: MixingLaw, d: int, n: int, rng) -> SampleMatrix:
    """Exact first passage of the random walk Z_t = Y_1 + ... + Y_{floor(t)}
    with iid steps Y from ``law`` across iid unit-exponential barriers.

    The step law is not identically zero (b_1 = E[exp(-Y)] < 1), so every
    row ends after finitely many steps, with finite integer entries.
    """
    b1 = float(law.laplace(1.0))
    if not b1 < 1.0 - 1e-15:
        raise SpecValidationError("the step law must not be identically zero")
    eps = rng.exponential(size=(n, d))
    data, steps = _first_passage(eps, lambda t: (np.ones(t.size), law.sample(t.size, rng)), 0.0)
    return SampleMatrix(data, meta=f"geo_ciid {law!r} d={d} lockstep_steps={steps}")


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


def beta_family_bseq(p: float, q: float, d: int) -> LomParameterSeq:
    """Two-parameter discrete-flavor family with b_k the Beta(p, q) moments.

    For q = 2 the matching latent process is of compound Poisson type with
    intensity p + 1 and exponential jumps.
    """
    if d < 0:
        raise SpecValidationError("d must be non-negative")
    law = Beta(p, q)
    values = (1.0,) + tuple(law.moment(k) for k in range(1, d + 1))
    return LomParameterSeq(values, DISCRETE)
