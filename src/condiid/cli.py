"""Command-line front end: sample | eval | check | verify | diagnose.

Model specifications are JSON objects with a ``family`` tag, passed either
inline or as a path (``--model``), optionally overridden by repeated
``--param key=value`` flags; a conflicting override is an error, not a silent
merge.  Samples are written as CSV with header ``x1,...,xd`` and ``inf``
sentinels.  Exit codes: 0 ok, 1 validation error, 2 verification failure,
3 I/O failure.

Imports follow one rule, so that a command loads only what it uses: numpy and
the CLI plumbing (argparse, json, ``errors``, ``sample``) load with this
module; a family module loads on first use, in the :func:`build_model` branch
or the command that needs it; scipy loads inside the function that calls it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import SpecValidationError, json_field, json_list, json_number, json_numbers
from .sample import SampleMatrix, read_csv, write_csv

FAMILIES = (
    "exch_normal",
    "spherical",
    "l1",
    "linf",
    "archimedean",
    "marshall_olkin",
    "geometric",
    "minstable",
    "exshock",
    "dirichlet_prior",
    "sato",
    "binary",
)


class Model:
    """A parsed model: sampler plus whatever closed forms the family supports."""

    def __init__(self, family, d, sampler=None, evals=None, marginal_ppf=None,
                 check=None, verify_kind="survival", integer_grid=False):
        self.family = family
        self.d = d
        self.sampler = sampler
        self.evals = evals or {}
        self.marginal_ppf = marginal_ppf
        self.check = check
        self.verify_kind = verify_kind
        self.integer_grid = integer_grid

    def default_grid(self):
        if self.marginal_ppf is None:
            raise SpecValidationError(f"family {self.family!r} has no closed-form marginal")
        from . import diagnostics

        grid = diagnostics.default_quantile_grid(self.marginal_ppf, self.d)
        if self.integer_grid:
            grid = np.maximum(np.rint(grid), 0.0)
        return grid


def build_model(spec: dict) -> Model:
    family = json_field(spec, "family", "")
    if family not in FAMILIES:
        raise SpecValidationError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    d = json_field(spec, "d", "", 2)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SpecValidationError(f"d must be a JSON integer >= 1, got {d!r}")

    if family == "exch_normal":
        from . import mixtures

        mu = json_number(spec, "mu", "", 0.0)
        sigma = json_number(spec, "sigma", "", 1.0)
        rho = json_number(spec, "rho", "")

        def marginal_ppf(q):
            from scipy.stats import norm

            return mu + sigma * float(norm.ppf(q))

        return Model(
            family, d,
            sampler=lambda n, rng: mixtures.sample_exch_normal(mu, sigma, rho, d, n, rng),
            evals={
                "cdf": lambda x: mixtures.exch_normal_cdf(mu, sigma, rho, x),
                "survival": lambda x: mixtures.exch_normal_cdf(
                    mu, sigma, rho, 2.0 * mu - np.asarray(x, dtype=float)
                ),
            },
            marginal_ppf=marginal_ppf,
            verify_kind="cdf",
        )

    if family in ("spherical", "l1", "archimedean", "linf"):
        from . import mixtures
        from .mixing import mixing_law_from_json

        law = mixing_law_from_json(json_field(spec, "m", ""))

    if family == "spherical":
        return Model(
            family, d,
            sampler=lambda n, rng: mixtures.sample_spherical_ciid(law, d, n, rng),
        )

    if family in ("l1", "archimedean"):
        gen = mixtures.ArchimedeanGenerator(law)
        if family == "l1":
            return Model(
                family, d,
                sampler=lambda n, rng: mixtures.sample_l1_ciid(law, d, n, rng),
                evals={
                    "survival": lambda x: mixtures.l1_ciid_survival(law, x),
                    "copula": lambda u: mixtures.archimedean_copula_eval(gen, u),
                },
                marginal_ppf=lambda q: gen.inverse(1.0 - q),
            )

        def copula_sampler(n, rng):
            xs = mixtures.sample_l1_ciid(law, d, n, rng)
            return SampleMatrix(np.asarray(law.laplace(xs.data)), meta=f"archimedean {law!r}")

        copula = lambda u: mixtures.archimedean_copula_eval(gen, u)
        return Model(
            family, d,
            sampler=copula_sampler,
            # the sample has uniform margins, so its cdf is the copula
            evals={"copula": copula, "cdf": copula},
            marginal_ppf=lambda q: q,
            verify_kind="cdf",
        )

    if family == "linf":
        from .inverse import monotone_inverse

        return Model(
            family, d,
            sampler=lambda n, rng: mixtures.sample_linf_ciid(law, d, n, rng),
            evals={"survival": lambda x: mixtures.linf_ciid_survival(law, x)},
            marginal_ppf=lambda q: monotone_inverse(
                lambda x: 1.0 - mixtures.linf_marginal_cdf(law, x) <= q
            ),
        )

    if family in ("marshall_olkin", "geometric"):
        from . import lack_of_memory as lom

    if family == "marshall_olkin":
        if "subordinator" in spec:
            sub = lom.CompoundPoissonSubordinatorSpec.from_json(spec["subordinator"])
            params = sub.b_seq(d)
            sampler = lambda n, rng: lom.sample_mo_ciid(sub, d, n, rng)
        else:
            if "b" in spec:
                params = lom.LomParameterSeq(json_numbers(spec, "b", ""), lom.CONTINUOUS)
                rates = lom.lambda_from_b(params)
            else:
                rates = lom.ShockRateSpec(
                    d=d, kind="exponential", cardinality=json_numbers(spec, "rates", "")
                )
                params = lom.b_from_lambda(rates)
            sampler = lambda n, rng: lom.sample_mo_shocks(rates, d, n, rng)
        rate1 = -math.log(params.values[1])
        return Model(
            family, params.d,
            sampler=sampler,
            evals={"survival": lambda x: float(lom.mo_survival(params, x))},
            marginal_ppf=lambda q: -math.log1p(-q) / rate1,
            check=lambda: lom.is_ciid_extendible(params),
        )

    if family == "geometric":
        if "b" in spec:
            params = lom.LomParameterSeq(json_numbers(spec, "b", ""), lom.DISCRETE)
            if params.d < 1:
                raise SpecValidationError("dimension must be at least 1")
            shocks = lambda: lom.p_from_b_geo(params)  # only the sampler needs p
        else:
            pspec = lom.ShockRateSpec(
                d=d, kind="geometric", cardinality=json_numbers(spec, "p", "")
            )
            params = lom.b_from_p(pspec)
            shocks = lambda: pspec
        b1 = params.values[1]
        return Model(
            family, params.d,
            sampler=lambda n, rng: lom.sample_geo_shocks(shocks(), params.d, n, rng),
            evals={"survival": lambda x: float(lom.geo_survival(params, x))},
            marginal_ppf=lambda q: max(0.0, math.ceil(math.log1p(-q) / math.log(b1))),
            check=lambda: lom.is_ciid_extendible(params),
            integer_grid=True,
        )

    if family == "minstable":
        from . import extreme_value as ev

        rate = json_number(spec, "rate", "", 1.0)
        stdf_obj = json_field(spec, "stdf", "")
        stdf = ev.stdf_from_json(stdf_obj)
        # a "term_tol" field is accepted and ignored: no sampler truncates
        if stdf_obj["kind"] == "logistic" and stdf_obj["theta"] < 1.0:
            theta = stdf_obj["theta"]
            sampler = lambda n, rng: ev.sample_logistic_direct(theta, rate, d, n, rng)
        else:
            sampler = lambda n, rng: ev.sample_minstable(stdf, d, n, rng, rate=rate)
        return Model(
            family, d,
            sampler=sampler,
            evals={
                "survival": lambda x: ev.minstable_survival(stdf, rate, x),
                "stdf": lambda x: ev.stdf_eval(stdf, x),
                "copula": lambda u: ev.extreme_value_copula_eval(stdf, u),
            },
            marginal_ppf=lambda q: -math.log1p(-q) / rate,
        )

    if family in ("exshock", "dirichlet_prior", "sato"):
        from . import shock_models as shock

    if family == "exshock":
        shocks = tuple(
            shock.shock_from_json(s, f"shocks[{i}]")
            for i, s in enumerate(json_list(spec, "shocks", ""))
        )
        sspec = shock.ShockSurvivalSpec(shocks)
        return Model(
            family, sspec.d,
            sampler=lambda n, rng: shock.exshock_sample(sspec, sspec.d, n, rng),
            evals={
                "survival": lambda x: float(shock.exshock_survival(sspec, x)),
                "copula": lambda u: shock.exshock_copula_eval(sspec, u),
            },
            marginal_ppf=lambda q: shock.exshock_marginal_inverse(sspec, 1.0 - q),
        )

    if family == "dirichlet_prior":
        c = json_number(spec, "c", "")
        base = shock.base_distribution_from_json(spec.get("base", {"family": "uniform"}))
        return Model(
            family, d,
            sampler=lambda n, rng: shock.sample_dp(c, base, d, n, rng),
            evals={
                "survival": lambda x: shock.dp_survival(c, base, x),
                "copula": lambda u: shock.dp_copula_eval(c, u),
            },
            marginal_ppf=lambda q: float(base.ppf(q)),
        )

    if family == "sato":
        alpha = json_number(spec, "alpha", "")
        return Model(
            family, d,
            sampler=lambda n, rng: shock.sample_sato(alpha, d, n, rng),
            evals={"survival": lambda x: float(shock.sato_survival(alpha, x))},
            marginal_ppf=lambda q: (1.0 - q) ** (-1.0 / alpha) - 1.0,
        )

    # binary sequences
    from . import moments
    from .mixing import mixing_law_from_json

    if "p" in spec:
        law = moments.BinaryExchangeableLaw(json_numbers(spec, "p", ""))
        seq = moments.b_from_p(law)
    elif "b" in spec:
        seq = moments.MonotoneSequence(json_numbers(spec, "b", ""))
    else:
        raise SpecValidationError("binary model needs pattern probabilities 'p' or moments 'b'")
    law_m = mixing_law_from_json(spec["m"]) if "m" in spec else None

    def sampler(n, rng):
        m = law_m
        if m is None:
            if not moments.hausdorff_extendible(seq).extendible:
                raise SpecValidationError(
                    "binary model is not extendible; cannot sample it without a mixing law 'm'"
                )
            m = moments.discrete_witness(seq)
        return moments.sample_binary_mixture(m, seq.d, n, rng)

    return Model(
        "binary", seq.d,
        sampler=sampler,
        check=lambda: moments.hausdorff_extendible(seq),
    )


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


def _parse_point(text: str) -> np.ndarray:
    try:
        if text.lstrip().startswith("["):
            return np.asarray(json.loads(text), dtype=float)
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecValidationError(f"cannot parse point {text!r}") from exc


def cmd_sample(args) -> int:
    model = build_model(_load_model_spec(args))
    if model.sampler is None:
        raise SpecValidationError(f"family {model.family!r} has no sampler")
    if args.seed is None:
        raise SpecValidationError("--seed is mandatory for sample")
    rng = np.random.default_rng(args.seed)
    out = model.sampler(args.n, rng)
    matrix = out if isinstance(out, SampleMatrix) else SampleMatrix(np.asarray(out))
    try:
        if args.out:
            write_csv(matrix, args.out)
        else:
            write_csv(matrix, sys.stdout)
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
    point = _parse_point(args.point)
    value = float(model.evals[args.kind](point))
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
    if model.sampler is None or model.verify_kind not in model.evals:
        raise SpecValidationError(
            f"family {model.family!r} lacks a sampler or closed form; cannot verify"
        )
    if args.seed is None:
        raise SpecValidationError("--seed is mandatory for verify")
    if args.grid:
        grid = np.atleast_2d(np.asarray(json.loads(args.grid), dtype=float))
    else:
        grid = model.default_grid()
    # closed forms give their limit at +inf, the mass at +inf, which the
    # orthant count sees at the largest double and not at +inf itself
    grid = np.minimum(grid, np.finfo(float).max)
    report = diagnostics.mc_verify(
        model.sampler,
        model.evals[model.verify_kind],
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
            help="model JSON (inline or a file path); a minstable model's "
            "'term_tol' field is accepted and ignored, as its samplers are exact",
        )
        p.add_argument("--param", action="append", help="key=value override", default=None)

    p = sub.add_parser("sample", help="draw samples and write CSV")
    add_model_args(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="evaluate a closed form at a point")
    add_model_args(p)
    p.add_argument("--point", required=True, help="comma-separated or JSON list")
    p.add_argument("--kind", default="survival", choices=["survival", "cdf", "copula", "stdf"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="decide latent-factor extendibility")
    add_model_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="Monte Carlo cross-validation of sampler vs closed form")
    add_model_args(p)
    p.add_argument("--n", type=int, default=100000)
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
