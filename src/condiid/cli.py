"""Command-line front end: sample | eval | check | verify | diagnose.

Model specifications are JSON objects with a ``family`` tag, passed either
inline or as a path (``--model``), optionally overridden by repeated
``--param key=value`` flags; a conflicting override is an error, not a silent
merge.  One table, ``_FAMILIES``, maps each family to its builder and the
top-level fields it takes; any other field is refused.  Where a list sets the
dimension, ``d`` is optional and must agree with it, and a family given more
than one parameterisation (``b``, ``p``, ``rates``, ``subordinator``, and a
binary ``m``) is refused.  Samples are written as CSV with header
``x1,...,xd`` and ``inf`` sentinels.  Exit codes: 0 ok, 1 validation error,
2 verification failure, 3 I/O failure.

Closed forms are evaluated through one contract.  Every entry of
``Model.evals`` takes a (k, d) float array of points and returns their k
values; ``Model.evaluate`` is the one place that checks them.  It refuses a
point outside the kind's domain ([0, inf]^d for survival and stdf, [0, 1]^d
for copula, R^d for cdf; a law on R^d takes its survival on R^d), and a
value that is not finite, a probability outside [0, 1] or a negative stdf,
each with a message that names the point and never prints the bad value.
It neither sorts nor reorders coordinates.  ``eval`` evaluates one point,
``verify`` its whole grid in one call.

Imports follow one rule, so that a command loads only what it uses: numpy and
the CLI plumbing (argparse, json, ``errors``, ``sample``) load with this
module; a family module loads on first use, in the family's builder or the
command that needs it; scipy loads inside the function that calls it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import (NotDMonotoneError, SpecValidationError, UnsupportedLawError, _json_object,
                     json_field, json_known_fields, json_list, json_number, json_numbers)
from .sample import read_csv, sample_blocks, write_csv


# Each kind of closed form: the interval every coordinate of a point lies in.
DOMAINS = {"survival": (0.0, math.inf), "stdf": (0.0, math.inf), "copula": (0.0, 1.0),
           "cdf": (-math.inf, math.inf)}
REAL_LINE = {"survival": DOMAINS["cdf"]}  # the domains of a law on R^d


class Model:
    """A parsed model: sampler plus whatever closed forms the family supports.

    ``evals`` maps a kind to a function of a (k, d) array of points that
    returns their k values; ``domains`` widens a kind's domain for a family
    whose law lives on R^d.  Call the closed forms through :meth:`evaluate`.
    """

    def __init__(self, family, d, sampler, evals=None, marginal_ppf=None, check=None,
                 verify_kind="survival", domains=None):
        self.family = family
        self.d = d
        self.sampler = sampler
        self.evals = evals or {}
        self.marginal_ppf = marginal_ppf
        self.check = check
        self.verify_kind = verify_kind
        self.domains = {**DOMAINS, **(domains or {})}

    def evaluate(self, kind: str, points) -> np.ndarray:
        """The ``kind`` closed form at each row of the (k, d) array ``points``.

        A point outside the kind's domain, NaN included, is refused before any
        evaluation, and a value that is not finite, a probability outside
        [0, 1] or a negative stdf after it; each refusal names the point.
        """
        points = np.asarray(points, dtype=float)
        lo, hi = self.domains[kind]
        outside = ~((points >= lo) & (points <= hi)).all(axis=-1)
        if outside.any():
            raise SpecValidationError(f"{kind} point {points[outside][0].tolist()} lies outside "
                                      f"the domain [{lo:g}, {hi:g}]^d")
        values = np.asarray(self.evals[kind](points), dtype=float)
        if values.shape != points.shape[:1]:
            raise SpecValidationError(f"{kind} closed form gave shape {values.shape} for "
                                      f"{points.shape[0]} points")
        top = math.inf if kind == "stdf" else 1.0
        bad = ~((values >= 0.0) & (values <= top) & np.isfinite(values))
        if bad.any():
            wanted = "a finite value >= 0" if kind == "stdf" else "a probability in [0, 1]"
            raise SpecValidationError(f"{kind} at point {points[bad][0].tolist()} is not {wanted}")
        return values

    def default_grid(self):
        if self.marginal_ppf is None:
            raise SpecValidationError(f"family {self.family!r} has no closed-form marginal")
        from . import diagnostics

        return diagnostics.default_quantile_grid(self.marginal_ppf, self.d)


def build_model(spec: dict) -> Model:
    """The model of a model-JSON object, built by its family's entry of
    ``_FAMILIES``; a top-level field that the family does not take is refused."""
    family = json_field(spec, "family", "")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SpecValidationError(f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")
    build, fields = _FAMILIES[family]
    d = json_field(spec, "d", "", 2)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SpecValidationError(f"d must be a JSON integer >= 1, got {d!r}")
    model = build(spec, d)
    json_known_fields(spec, "", ("family", "d", *fields), f"family {family!r}")
    return model


def _dimension(spec: dict, key: str, n: int) -> int:
    """The dimension ``n`` that the list ``key`` sets; a ``d`` given too must equal it."""
    if spec.get("d", n) != n:
        raise SpecValidationError(f"d = {spec['d']} disagrees with {key}, which sets d = {n}")
    return n


def _one_of(spec: dict, keys: tuple) -> str | None:
    """The one field of ``keys`` that ``spec`` gives, or None; more than one is refused."""
    given = [k for k in keys if k in spec]
    if len(given) > 1:
        raise SpecValidationError(f"give one of {', '.join(keys)}; got {', '.join(given)}")
    return given[0] if given else None


def _by_construction(field: str):
    """The check of a model given by a mixing law "m" or a "subordinator": conditionally
    iid by construction, so extendible at every d, whatever its rounded moments say.
    A closure, so that ``moments`` loads only when a check runs."""
    def check():
        from .moments import ExtendibilityVerdict
        return ExtendibilityVerdict(True, by_construction=field)
    return check


# -- one builder per family: (spec, d) -> Model ---------------------------------------

def _exch_normal(spec: dict, d: int) -> Model:
    from . import mixtures

    mu = json_number(spec, "mu", "", 0.0)
    sigma = json_number(spec, "sigma", "", 1.0)
    rho = json_number(spec, "rho", "")

    def marginal_ppf(q):
        from scipy.special import ndtri

        return mu + sigma * float(ndtri(q))

    cdf = lambda x: mixtures.exch_normal_cdf(mu, sigma, rho, x)
    return Model("exch_normal", d,
                 sampler=lambda n, rng: mixtures.sample_exch_normal(mu, sigma, rho, d, n, rng),
                 evals={"cdf": cdf, "survival": lambda x: cdf(2.0 * mu - x)},
                 marginal_ppf=marginal_ppf, verify_kind="cdf", domains=REAL_LINE)


def _mixing_law(spec: dict):
    from .mixing import mixing_law_from_json

    return mixing_law_from_json(json_field(spec, "m", ""))


def _spherical(spec: dict, d: int) -> Model:
    from . import mixtures

    law = _mixing_law(spec)
    return Model("spherical", d,
                 sampler=lambda n, rng: mixtures.sample_spherical_ciid(law, d, n, rng),
                 check=_by_construction("m"))


def _l1(spec: dict, d: int) -> Model:
    from . import mixtures

    law = _mixing_law(spec)
    return Model("l1", d, sampler=lambda n, rng: mixtures.sample_l1_ciid(law, d, n, rng),
                 evals={"survival": lambda x: mixtures.l1_ciid_survival(law, x),
                        "copula": lambda u: mixtures.archimedean_copula_eval(law, u)},
                 marginal_ppf=lambda q: mixtures.laplace_inverse(law, 1.0 - q),
                 check=_by_construction("m"))


def _archimedean(spec: dict, d: int) -> Model:
    from . import mixtures

    law = mixtures.archimedean_generator(_mixing_law(spec))

    def copula_sampler(n, rng):
        x = mixtures.sample_l1_ciid(law, d, n, rng)
        if x.max() == math.inf:  # M below E / max double: U = phi(E / M) is lost in inf
            raise SpecValidationError(f"{law!r} drew an M so small that E / M overflows, "
                                      "where the copula sample phi(E / M) cannot be kept")
        return np.asarray(law.laplace(x))

    copula = lambda u: mixtures.archimedean_copula_eval(law, u)
    # the sample has uniform margins, so its cdf is the copula on [0, 1]^d
    cdf = lambda x: copula(np.clip(x, 0.0, 1.0))
    return Model("archimedean", d, sampler=copula_sampler, evals={"copula": copula, "cdf": cdf},
                 marginal_ppf=lambda q: q, check=_by_construction("m"), verify_kind="cdf")


def _linf(spec: dict, d: int) -> Model:
    from . import mixtures
    from .inverse import monotone_inverse

    law = _mixing_law(spec)
    survival = lambda x: mixtures.linf_ciid_survival(law, x)
    return Model("linf", d, sampler=lambda n, rng: mixtures.sample_linf_ciid(law, d, n, rng),
                 evals={"survival": survival},
                 marginal_ppf=lambda q: monotone_inverse(lambda x: survival([[x]])[0] <= 1.0 - q),
                 check=_by_construction("m"))


def _marshall_olkin(spec: dict, d: int) -> Model:
    from . import lack_of_memory as lom

    key = _one_of(spec, ("subordinator", "b", "rates")) or "rates"
    if key == "subordinator":
        sub = lom.CompoundPoissonSubordinatorSpec.from_json(spec[key])
        a = lom.exponents(sub.subset_rates(d)[1:])
        sampler = lambda n, rng: lom.sample_mo_ciid(sub, d, n, rng)
        check = _by_construction(key)
    else:
        values = json_numbers(spec, key, "")
        if key == "b":
            d = _dimension(spec, key, len(values) - 1)
            a = lom.exponents_from_b(values)
            rates = lom.rates_from_exponents(a)
        else:
            d = _dimension(spec, key, len(values))
            rates = lom.ShockRateSpec(d=d, cardinality=values)
            a = lom.exponents(rates.cardinality)
        sampler = lambda n, rng: lom.sample_mo_shocks(rates, d, n, rng)
        check = lambda: lom.is_ciid_extendible(a)
    # a_1 = Psi(1) is the rate of each exponential marginal
    return Model("marshall_olkin", d, sampler=sampler,
                 evals={"survival": lambda x: lom.mo_survival(a, x)},
                 marginal_ppf=lambda q: -math.log1p(-q) / a[0], check=check)


def _geometric(spec: dict, d: int) -> Model:
    from . import lack_of_memory as lom
    from . import moments

    # the law of one round: its ones are the components it spares, so its b
    # and p are the binary algebra's, p reversed against the JSON's shocked subsets
    key = _one_of(spec, ("b", "p")) or "p"
    values = json_numbers(spec, key, "")
    d = _dimension(spec, key, len(values) - 1)
    if d < 1:
        raise SpecValidationError("dimension must be at least 1")
    if key == "b":
        b = moments.MonotoneSequence(values)
        if not moments.is_d_monotone(b):
            raise NotDMonotoneError(f"geometric parameters b must be d-monotone, got {b.values}")
        law = lambda: moments._law_from_b(b.values)  # only the sampler needs p
        check = lambda: moments._hankel_verdict(b.values)
    else:
        round_law = moments.BinaryExchangeableLaw(values[::-1])
        b = moments.b_from_p(round_law)
        law = lambda: round_law
        check = lambda: lom.is_ciid_extendible(b)
    b1 = b.values[1]
    # the marginal is geometric on 1, 2, ..., P(X_1 > k) = b_1**k, so its
    # quantiles and the grid are integers; at b_1 = 1 no round hits a component,
    # which the sampler refuses, and at b_1 = 0 every round does: X_1 = 1
    return Model("geometric", d,
                 sampler=lambda n, rng: lom.sample_geo_shocks(law(), d, n, rng),
                 evals={"survival": lambda x: lom.geo_survival(b.values, x)},
                 marginal_ppf=lambda q: math.inf if b1 == 1.0 else 1.0 if b1 == 0.0 else
                 max(0.0, math.ceil(math.log1p(-q) / math.log(b1))),
                 check=check)


def _minstable(spec: dict, d: int) -> Model:
    from . import extreme_value as ev

    rate = json_number(spec, "rate", "", 1.0)
    stdf = ev.stdf_from_json(json_field(spec, "stdf", ""))
    return Model("minstable", d, sampler=lambda n, rng: ev.sample_minstable(stdf, d, n, rng, rate=rate),
                 evals={"survival": lambda x: ev.minstable_survival(stdf, rate, x),
                        "stdf": lambda x: ev.stdf_eval(stdf, x),
                        "copula": lambda u: ev.extreme_value_copula_eval(stdf, u)},
                 marginal_ppf=lambda q: -math.log1p(-q) / rate)


def _exshock(spec: dict, d: int) -> Model:
    from . import shock_models as shock

    shocks = [shock.shock_from_json(s, f"shocks[{i}]")
              for i, s in enumerate(json_list(spec, "shocks", ""))]
    d = _dimension(spec, "shocks", len(shocks))
    sspec = shock.ShockSurvivalSpec(shocks)
    return Model("exshock", d, sampler=lambda n, rng: shock.exshock_sample(sspec, d, n, rng),
                 evals={"survival": lambda x: shock.exshock_survival(sspec, x),
                        "copula": lambda u: shock.exshock_copula_eval(sspec, u)},
                 marginal_ppf=lambda q: shock.exshock_marginal_inverse(sspec, 1.0 - q))


def _dirichlet_prior(spec: dict, d: int) -> Model:
    from . import shock_models as shock

    c = json_number(spec, "c", "")
    base = shock.base_distribution_from_json(spec.get("base", {"family": "uniform"}))
    return Model("dirichlet_prior", d, sampler=lambda n, rng: shock.sample_dp(c, base, d, n, rng),
                 evals={"survival": lambda x: shock.dp_survival(c, base, x),
                        "copula": lambda u: shock.dp_copula_eval(c, u)},
                 marginal_ppf=lambda q: float(base.ppf(q)), domains=REAL_LINE)


def _sato(spec: dict, d: int) -> Model:
    from . import shock_models as shock

    alpha = json_number(spec, "alpha", "")
    return Model("sato", d, sampler=lambda n, rng: shock.sample_sato(alpha, d, n, rng),
                 evals={"survival": lambda x: shock.sato_survival(alpha, x)},
                 marginal_ppf=lambda q: (1.0 - q) ** (-1.0 / alpha) - 1.0)


def _binary(spec: dict, d: int) -> Model:
    from . import moments

    key = _one_of(spec, ("p", "b", "m"))
    if key is None:
        raise SpecValidationError(
            "binary model needs pattern probabilities 'p', moments 'b' or a mixing law 'm'"
        )
    law_m = None
    if key == "m":  # sampled directly and extendible by construction: no moments
        law_m = _mixing_law(spec)
        if not law_m.unit_interval:
            raise UnsupportedLawError(f"{law_m!r} is not supported in [0,1]")
    else:
        values = json_numbers(spec, key, "")
        d = _dimension(spec, key, len(values) - 1)
        if key == "p":
            seq = moments.b_from_p(moments.BinaryExchangeableLaw(values))
        else:
            seq = moments.MonotoneSequence(values)

    def sampler(n, rng):
        m = law_m
        if m is None:
            if not moments.hausdorff_extendible(seq).extendible:
                raise SpecValidationError(
                    "binary model is not extendible: no mixing law on [0, 1] has these moments"
                )
            m = moments.discrete_witness(seq)
        return moments.sample_binary_mixture(m, d, n, rng)

    check = _by_construction(key) if key == "m" else lambda: moments.hausdorff_extendible(seq)
    return Model("binary", d, sampler=sampler, check=check)


# Each family's builder and the top-level fields it takes besides "family" and
# "d".  A list that sets the dimension (binary b or p, marshall_olkin b or
# rates, geometric b or p, exshock shocks) makes d optional, and a d given must
# agree with it; the other families, and a binary model given m, read d, 2 if
# absent.  A minstable "term_tol" is accepted and ignored: no sampler truncates.
_FAMILIES = {
    "exch_normal": (_exch_normal, ("mu", "sigma", "rho")),
    "spherical": (_spherical, ("m",)),
    "l1": (_l1, ("m",)),
    "linf": (_linf, ("m",)),
    "archimedean": (_archimedean, ("m",)),
    "marshall_olkin": (_marshall_olkin, ("subordinator", "b", "rates")),
    "geometric": (_geometric, ("b", "p")),
    "minstable": (_minstable, ("rate", "stdf", "term_tol")),
    "exshock": (_exshock, ("shocks",)),
    "dirichlet_prior": (_dirichlet_prior, ("c", "base")),
    "sato": (_sato, ("alpha",)),
    "binary": (_binary, ("p", "b", "m")),
}


# -- argument plumbing ---------------------------------------------------------------

def _load_model_spec(args) -> dict:
    spec: dict = {}
    if args.model:
        text = args.model
        if not text.lstrip().startswith("{"):
            try:
                with open(text) as f:
                    text = f.read()
            except OSError as exc:
                raise IOError(f"cannot read model file: {exc}") from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"model JSON does not parse: {exc}") from exc
        _json_object(spec, "")  # before --param merges into it
    for item in args.param or ():
        if "=" not in item:
            raise SpecValidationError(f"--param expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key in spec and spec[key] != value:
            raise SpecValidationError(
                f"--param {key}={raw!r} conflicts with the model JSON value {spec[key]!r}"
            )
        spec[key] = value
    if not spec:
        raise SpecValidationError("no model given; use --model and/or --param")
    return spec


def _coordinates(obj, what: str) -> np.ndarray:
    """``obj`` as an array of floats; NaN is refused, +-inf allowed."""
    try:
        values = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"cannot parse {what}") from exc
    if np.isnan(values).any():
        raise SpecValidationError(f"{what} has a NaN coordinate")
    return values


def cmd_sample(args) -> int:
    model = build_model(_load_model_spec(args))
    if args.seed is None:
        raise SpecValidationError("--seed is mandatory for sample")
    if args.n < 1:
        raise SpecValidationError(f"n must be >= 1, got {args.n}")
    blocks = sample_blocks(model.sampler, args.n, model.d, np.random.default_rng(args.seed))
    try:
        write_csv(blocks, args.out or sys.stdout)
    except OSError as exc:
        raise IOError(f"cannot write samples: {exc}") from exc
    return 0


def cmd_eval(args) -> int:
    model = build_model(_load_model_spec(args))
    if args.kind not in model.evals:
        supported = ", ".join(sorted(model.evals)) or "none"
        raise SpecValidationError(
            f"family {model.family!r} does not evaluate kind {args.kind!r} (supported: {supported})"
        )
    text = args.point
    point = json.loads(text) if text.lstrip().startswith("[") else text.split(",")
    point = _coordinates(point, f"point {text!r}")
    if point.shape != (model.d,):
        raise SpecValidationError(f"point {text!r} must have {model.d} coordinates, "
                                  f"as the model has d={model.d}")
    (value,) = model.evaluate(args.kind, point[None, :]).tolist()
    print(format(value, ".12g"))
    return 0


def cmd_check(args) -> int:
    model = build_model(_load_model_spec(args))
    if model.check is None:
        raise SpecValidationError(f"family {model.family!r} is not sequence-parameterized")
    verdict = model.check()
    print("extendible" if verdict.extendible else "not extendible")
    print(json.dumps(verdict.to_json(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from . import diagnostics

    model = build_model(_load_model_spec(args))
    if model.verify_kind not in model.evals:
        raise SpecValidationError(
            f"family {model.family!r} lacks a sampler or closed form; cannot verify"
        )
    if args.seed is None:
        raise SpecValidationError("--seed is mandatory for verify")
    if args.grid:
        grid = np.atleast_2d(_coordinates(json.loads(args.grid), f"grid {args.grid!r}"))
    else:
        grid = model.default_grid()
    # closed forms give their limit at +inf, the mass at +inf, which the
    # orthant count sees at the largest double and not at +inf itself
    grid = np.minimum(grid, np.finfo(float).max)
    report = diagnostics.mc_verify(
        model.sampler,
        functools.partial(model.evaluate, model.verify_kind),
        grid,
        args.n,
        args.seed,
        threads=args.threads,
        mode=model.verify_kind,
    )
    print(report.to_json_str())
    return 0 if report.passed else 2


def cmd_diagnose(args) -> int:
    from . import diagnostics

    try:
        data = read_csv(args.csv)
    except OSError as exc:
        raise IOError(f"cannot read CSV: {exc}") from exc
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    known = {"kendall", "majorization", "radial", "ties"}
    unknown = set(tests) - known
    if unknown:
        raise SpecValidationError(f"unknown diagnostics: {sorted(unknown)}")
    finite = data[np.isfinite(data).all(axis=1)]
    report: dict = {"n": int(data.shape[0]), "d": int(data.shape[1])}
    for name in ("kendall", "majorization", "radial"):
        if name not in tests:
            continue
        if data.shape[1] < 2:
            raise SpecValidationError(f"{name} needs two columns")
        if finite.shape[0] < 2:
            raise SpecValidationError(f"{name} needs two rows with every coordinate finite; "
                                      f"the file has {finite.shape[0]}")
    if "kendall" in tests:
        tau = diagnostics.empirical_kendall_tau(finite[:, :2])
        report["kendall_tau"] = tau
        report["kendall_tau_null_stderr"] = diagnostics.kendall_tau_null_stderr(finite.shape[0])
    if "majorization" in tests:
        x = float(np.median(finite[:, 0]))
        p_hat = float((finite <= x).mean())  # pooled marginal cdf at the probe point
        report["majorization_ok"] = bool(diagnostics.majorization_check(finite, x, p_hat))
        report["majorization_point"] = x
    if "radial" in tests:
        mu = float(np.median(finite))
        report["radial_symmetry_ok"] = bool(diagnostics.radial_symmetry_test(finite, mu))
        report["radial_center"] = mu
    if "ties" in tests:
        report["tie_frequency"] = diagnostics.tie_frequency(data)
    print(json.dumps(report, sort_keys=True))
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The ``condiid`` argument parser, built once per process.

    Parsing leaves the parser unchanged, so every :func:`main` call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="condiid",
        description="Samplers, closed-form evaluators and extendibility checks "
        "for conditionally iid multivariate laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument(
            "--model",
            help="model JSON (inline or a file path) with a 'family' and that family's "
            "fields; an unknown field is refused.  A list that sets the dimension "
            "(binary b or p, marshall_olkin b or rates, geometric b or p, exshock "
            "shocks) makes 'd' optional, and a 'd' given must agree with it; other "
            "families take 'd' (default 2).  Give one of b, p, rates and subordinator; "
            "a binary model takes one of b, p and m, and its mixing law m, on [0, 1], "
            "sets b to the moments of m.  "
            "A minstable model's 'term_tol' field is accepted and ignored, as its "
            "samplers are exact",
        )
        p.add_argument("--param", action="append", help="key=value override", default=None)

    p = sub.add_parser("sample", help="draw samples and write CSV")
    add_model_args(p)
    p.add_argument("--n", type=int, default=1000,
                   help="rows to draw; they are drawn and written in blocks of 2 MiB of "
                   "sample, so above that the rows differ from one draw of all n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="CSV path (stdout when absent); a block refused after the first "
                   "leaves the rows written before it")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="evaluate a closed form at a point")
    add_model_args(p)
    p.add_argument("--point", required=True,
                   help="comma-separated or JSON list; write one that starts with a minus "
                   "as --point=-1,1, or it reads as an option")
    p.add_argument("--kind", default="survival", choices=["survival", "cdf", "copula", "stdf"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="decide latent-factor extendibility")
    add_model_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="Monte Carlo cross-validation of sampler vs closed form")
    add_model_args(p)
    p.add_argument("--n", type=int, default=100000,
                   help="rows to draw; each stream is drawn and counted in blocks of 2 MiB "
                   "of sample, so memory does not grow with n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None, help="JSON list of grid points")
    p.add_argument(
        "--threads", type=int, default=1,
        help="number of independent random streams (SeedSequence(seed).spawn) the "
        "n rows are split into, drawn one after another; 1 draws from --seed",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagnose", help="run sample diagnostics on a CSV")
    p.add_argument("csv")
    p.add_argument("--tests", default="kendall,ties")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
