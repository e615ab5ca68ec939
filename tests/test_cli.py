import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condiid import cli
from condiid.errors import SpecValidationError, UnsupportedLawError
from condiid.mixing import Beta
from condiid import sample
from condiid.sample import read_csv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


MO_MODEL = json.dumps({"family": "marshall_olkin", "d": 3, "rates": [0.3, 0.2, 0.1]})


def minstable_triplet(g):
    """A d = 3 min-stable model of drift 0.2 and the one atom ``g`` of weight c = 1."""
    return {"family": "minstable", "d": 3,
            "stdf": {"kind": "triplet", "b": 0.2, "c": 1.0, "atoms": [{"g": g, "weight": 1.0}]}}


FLOAT_FIELDS = [  # (model-JSON path, a valid object there, one of its float fields)
    ("m", {"family": "point_mass", "m": 1.0}, "m"),
    ("m", {"family": "gamma", "shape": 1.5}, "shape"),
    ("m", {"family": "beta", "p": 2.0, "q": 3.0}, "p"),
    ("m", {"family": "beta", "p": 2.0, "q": 3.0}, "q"),
    ("m", {"family": "pareto", "alpha": 2.5}, "alpha"),
    ("m", {"family": "positive_stable", "theta": 0.5}, "theta"),
    ("m", {"family": "log_series", "theta": 0.5}, "theta"),
    ("shocks[0]", {"kind": "exponential", "rate": 0.5}, "rate"),
    ("shocks[0]", {"kind": "weibull", "shape": 2.0, "scale": 1.0}, "shape"),
    ("shocks[0]", {"kind": "weibull", "shape": 2.0, "scale": 1.0}, "scale"),
    ("shocks[0]", {"kind": "pareto", "alpha": 2.0, "scale": 1.0}, "alpha"),
    ("shocks[0]", {"kind": "pareto", "alpha": 2.0, "scale": 1.0}, "scale"),
    ("base", {"family": "uniform", "a": 0.0, "b": 1.0}, "a"),
    ("base", {"family": "uniform", "a": 0.0, "b": 1.0}, "b"),
    ("base", {"family": "exponential", "rate": 1.0}, "rate"),
    ("base", {"family": "normal", "mu": 0.0, "sigma": 1.0}, "mu"),
    ("base", {"family": "normal", "mu": 0.0, "sigma": 1.0}, "sigma"),
]


def scalar_model(path, obj):
    """A model that holds ``obj`` at ``path``: a mixing law, a shock or a base."""
    if path == "m":
        return {"family": "l1", "d": 3, "m": obj}
    if path == "shocks[0]":
        return {"family": "exshock", "shocks": [obj]}
    return {"family": "dirichlet_prior", "d": 3, "c": 1.0, "base": obj}


class TestSample:
    def test_deterministic_bytes(self):
        args = ["sample", "--model", '{"family":"exch_normal","rho":0.0,"d":2}',
                "--n", "4", "--seed", "7"]
        code1, out1, _ = run(args)
        code2, out2, _ = run(args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 5

    def test_seed_mandatory(self):
        code, _, err = run(["sample", "--model", MO_MODEL, "--n", "5"])
        assert code == 1
        assert "seed" in err

    def test_file_output_and_inf_sentinel(self, tmp_path):
        # a pure-kill subordinator leaves no finite passage before the kill:
        # components die together, values finite; use a geometric with mass
        # escaping to infinity instead via step shocks
        model = json.dumps(
            {"family": "exshock", "shocks": [
                {"kind": "step", "points": [1.0], "values": [0.5]},
                {"kind": "exponential", "rate": 0.0},
            ]}
        )
        path = tmp_path / "s.csv"
        code, _, _ = run(["sample", "--model", model, "--n", "50", "--seed", "3",
                          "--out", str(path)])
        assert code == 0
        text = path.read_text()
        assert "inf" in text
        data = read_csv(str(path))
        assert np.isinf(data).any()

    def test_validation_is_parse_time(self):
        model = json.dumps({"family": "marshall_olkin", "d": 2, "b": [1.0, 0.9, 0.5]})
        code, _, err = run(["sample", "--model", model, "--n", "5", "--seed", "1"])
        assert code == 1
        assert "log-d-monotone" in err

    def test_missing_file_is_io_error(self):
        code, _, _ = run(["sample", "--model", "no/such/file.json", "--n", "2", "--seed", "1"])
        assert code == 3

    @pytest.mark.parametrize("model", [
        MO_MODEL,
        '{"family":"exch_normal","rho":0.3,"d":3}',
        json.dumps({"family": "exshock", "shocks": [
            {"kind": "step", "points": [1.0], "values": [0.5]},
            {"kind": "exponential", "rate": 0.0},
        ]}),
    ])
    def test_stdout_matches_out_file(self, tmp_path, model):
        path = tmp_path / "s.csv"
        args = ["sample", "--model", model, "--n", "300", "--seed", "4"]
        code1, out, _ = run(args)
        code2, _, _ = run(args + ["--out", str(path)])
        assert code1 == code2 == 0
        assert out.encode() == path.read_bytes()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_refused_before_sampling(self, n, tmp_path, monkeypatch):
        from condiid import lack_of_memory

        monkeypatch.setattr(lack_of_memory, "sample_mo_shocks", lambda *a: pytest.fail("sampled"))
        path = tmp_path / "s.csv"
        code, out, err = run(["sample", "--model", MO_MODEL, "--n", n, "--seed", "1",
                              "--out", str(path)])
        assert code == 1 and out == ""
        assert f"n must be >= 1, got {n}" in err
        assert not path.exists()

    def test_nan_sample_is_refused_where_it_leaves(self, tmp_path, monkeypatch):
        from condiid import lack_of_memory

        def nan_sampler(spec, d, n, rng):
            data = np.ones((n, d))
            data[n // 2, d - 1] = np.nan
            return data

        monkeypatch.setattr(lack_of_memory, "sample_mo_shocks", nan_sampler)
        path = tmp_path / "s.csv"
        code, out, err = run(["sample", "--model", MO_MODEL, "--n", "10", "--seed", "1",
                              "--out", str(path)])
        assert code == 1 and out == "" and "contains NaN" in err
        assert not path.exists()
        code, out, err = run(["verify", "--model", MO_MODEL, "--n", "100", "--seed", "1"])
        assert code == 1 and out == "" and "contains NaN" in err

    def test_binary_m_alone_samples_its_law(self):
        # Beta(2, 3) at d = 4: P(X_1 = ... = X_k = 1) = E[M^k] = prod_{j<k} (2+j)/(5+j)
        n = 20000
        model = json.dumps({"family": "binary", "d": 4, "m": {"family": "beta", "p": 2.0, "q": 3.0}})
        code, out, err = run(["sample", "--model", model, "--n", str(n), "--seed", "3"])
        assert code == 0, err
        data = read_csv(io.StringIO(out))
        assert data.shape == (n, 4)
        for k in range(1, 5):
            b_k = math.prod((2 + j) / (5 + j) for j in range(k))
            freq = data[:, :k].all(axis=1).mean()
            assert abs(freq - b_k) <= 3 * math.sqrt(b_k * (1 - b_k) / n), k

    def test_binary_without_m_samples_its_witness(self):
        # Beta(2, 3) moments at d = 12: P(X_1 = ... = X_k = 1) = b_k for every k
        b, n = [1.0], 20000
        for k in range(12):
            b.append(b[-1] * (2 + k) / (5 + k))
        model = json.dumps({"family": "binary", "b": b})
        code, out, err = run(["sample", "--model", model, "--n", str(n), "--seed", "3"])
        assert code == 0, err
        data = read_csv(io.StringIO(out))
        assert data.shape == (n, 12)
        for k in range(1, 13):
            freq = data[:, :k].all(axis=1).mean()
            assert abs(freq - b[k]) <= 3 * math.sqrt(b[k] * (1 - b[k]) / n), k

    @pytest.mark.parametrize("b, message", [
        ([1.0, 0.5, 0.2], "not extendible"),
        # Beta(1, 1) at d = 25 and Beta(2, 3) at d = 28: extendible, but
        # their Gauss rules are lost to rounding
        ([1.0 / (k + 1) for k in range(26)], "no Gauss-rule witness"),
        ([math.prod((2 + j) / (5 + j) for j in range(k)) for k in range(29)],
         "no Gauss-rule witness"),
    ])
    def test_binary_without_witness_is_refused(self, b, message):
        model = json.dumps({"family": "binary", "b": b})
        code, out, err = run(["sample", "--model", model, "--n", "10", "--seed", "1"])
        assert code == 1 and out == ""
        assert message in err


SAMPLER_MODELS = [  # (id, model of d = 3): every family, and each of its samplers
    ("exch_normal", {"family": "exch_normal", "rho": 0.5}),
    ("spherical", {"family": "spherical", "m": {"family": "gamma", "shape": 2.0}}),
    ("l1", {"family": "l1", "m": {"family": "gamma", "shape": 2.0}}),
    ("linf", {"family": "linf", "m": {"family": "pareto", "alpha": 2.0}}),
    ("archimedean", {"family": "archimedean", "m": {"family": "gamma", "shape": 2.0}}),
    ("marshall_olkin-rates", {"family": "marshall_olkin", "rates": [0.3, 0.2, 0.1]}),
    ("marshall_olkin-subordinator", {"family": "marshall_olkin", "subordinator": {
        "drift": 0.3, "kill": 0.1, "jumps": [{"size": 1.0, "rate": 0.5}]}}),
    ("geometric", {"family": "geometric", "b": [1.0, 0.5, 0.3, 0.2]}),
    ("minstable-logistic", {"family": "minstable", "stdf": {"kind": "logistic", "theta": 0.5}}),
    ("minstable-triplet", {"family": "minstable", "stdf": {"kind": "triplet", "b": 0.3, "c": 1.0,
        "atoms": [{"g": {"kind": "frechet", "theta": 0.5}, "weight": 1.0}]}}),
    ("exshock", {"family": "exshock", "shocks": [{"kind": "exponential", "rate": 1.0}] * 3}),
    ("dirichlet_prior", {"family": "dirichlet_prior", "c": 1.0}),
    ("sato", {"family": "sato", "alpha": 1.0}),
    ("binary", {"family": "binary", "m": {"family": "beta", "p": 2.0, "q": 3.0}}),
]


def test_sampler_models_cover_every_family():
    assert {spec["family"] for _, spec in SAMPLER_MODELS} == set(cli._FAMILIES)


@pytest.mark.parametrize("spec", [spec for _, spec in SAMPLER_MODELS],
                         ids=[name for name, _ in SAMPLER_MODELS])
def test_sampler_returns_an_n_by_d_float_array(spec):
    model = cli.build_model({"d": 3, **spec})
    out = model.sampler(7, np.random.default_rng(2))
    assert type(out) is np.ndarray
    assert out.dtype == np.float64 and out.shape == (7, 3)


COPULA_SAMPLERS = [  # (id, model of d = 3): the phi(E / M) sampler over laws whose phi has an axis
    ("archimedean-pareto", {"family": "archimedean", "m": {"family": "pareto", "alpha": 2.0}}),
    ("archimedean-finite_discrete", {"family": "archimedean", "m": {
        "family": "finite_discrete", "atoms": [0.5, 1.0, 2.0], "weights": [0.2, 0.3, 0.5]}}),
]


@pytest.mark.parametrize("spec", [spec for _, spec in SAMPLER_MODELS + COPULA_SAMPLERS],
                         ids=[name for name, _ in SAMPLER_MODELS + COPULA_SAMPLERS])
def test_sampler_memory_is_a_few_samples(spec):
    """At n = 1e4, d = 3 no sampler's peak reaches ten times its sample."""
    model = cli.build_model({"d": 3, **spec})
    model.sampler(10, np.random.default_rng(1))  # loads what the sampler uses
    tracemalloc.start()
    try:
        out = model.sampler(10_000, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * out.nbytes


L1_D2 = json.dumps({"family": "l1", "d": 2, "m": {"family": "gamma", "shape": 2.0}})


def test_sample_above_a_block_writes_blocks_of_one_generator(tmp_path):
    """Above BLOCK_BYTES ``sample`` writes blocks drawn one after another from
    its one Generator: other rows than one draw of all n."""
    rows = sample.BLOCK_BYTES // (8 * 2)
    path = tmp_path / "s.csv"
    code, out, err = run(["sample", "--model", L1_D2, "--n", str(rows + 1234), "--seed", "6",
                          "--out", str(path)])
    assert (code, out, err) == (0, "", "")
    model = cli.build_model(json.loads(L1_D2))
    rng = np.random.default_rng(6)
    blocks = np.concatenate([model.sampler(rows, rng), model.sampler(1234, rng)])
    written = read_csv(path)
    assert np.array_equal(written, blocks)
    assert not np.array_equal(written, model.sampler(rows + 1234, np.random.default_rng(6)))


def test_sample_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    """A sample of eight blocks is written with a peak below four.  Blocks of
    64 KiB, and text chunks of 512 rows of two values to match, keep the 2M
    traced values of eight real blocks out of the test."""
    monkeypatch.setattr(sample, "BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(sample, "_WRITE_CHUNK_VALUES", 1024)
    n = 8 * sample.BLOCK_BYTES // (8 * 2)
    path = tmp_path / "s.csv"
    argv = ["sample", "--model", L1_D2, "--seed", "6", "--out", str(path)]
    assert run(argv + ["--n", "10"])[0] == 0  # loads what the command uses
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * sample.BLOCK_BYTES
    with open(path) as f:
        assert sum(1 for _ in f) == n + 1


EVAL_MODELS = {  # family: a model of d = 2
    "exch_normal": {"rho": 0.5},
    "l1": {"m": {"family": "gamma", "shape": 2.0}},
    "archimedean": {"m": {"family": "gamma", "shape": 2.0}},
    "linf": {"m": {"family": "pareto", "alpha": 2.0}},
    "marshall_olkin": {"rates": [0.3, 0.2]},
    "geometric": {"b": [1.0, 0.5, 0.3]},
    "minstable": {"stdf": {"kind": "logistic", "theta": 0.5}},
    "exshock": {"shocks": [{"kind": "exponential", "rate": 1.0},
                           {"kind": "exponential", "rate": 0.5}]},
    "dirichlet_prior": {"c": 1.0},
    "sato": {"alpha": 1.0},
}


def eval_model(family):
    return {"family": family, "d": 2, **EVAL_MODELS[family]}


class TestEval:
    def test_nan_laplace_transform_is_refused(self, monkeypatch):
        """A transform that is NaN where the Laplace inversion of u = 1e-6
        looks gives a refusal, not a copula of 0."""
        monkeypatch.setattr(Beta, "laplace", lambda self, x: math.exp(-x) if x < 4.0 else math.nan)
        spec = {"family": "archimedean", "d": 2, "m": {"family": "beta", "p": 0.05, "q": 3.0}}
        code, out, err = run(["eval", "--model", json.dumps(spec), "--kind", "copula",
                              "--point", "1e-6,1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: Beta(p=0.05, q=3.0): the Laplace transform is NaN at x = ")

    @pytest.mark.parametrize("q", [1.0, 3.0])
    def test_copula_margin_with_an_inverse_above_two_to_the_300(self, q):
        """phi^-1(1e-6) is about 5.8e119 for Beta(0.05, 1): a bracket grown by
        at most 300 doublings printed 0, and Beta(0.05, 3) met the NaN of
        hyp1f1 at x = 2^36 and exited 1."""
        spec = {"family": "archimedean", "d": 2, "m": {"family": "beta", "p": 0.05, "q": q}}
        code, out, err = run(["eval", "--model", json.dumps(spec), "--kind", "copula",
                              "--point", "1e-6,1"])
        assert (code, out, err) == (0, "1e-06\n", "")

    def test_eval_models_cover_every_family_with_closed_forms(self):
        for family in cli._FAMILIES:
            if family not in EVAL_MODELS:
                spec = {"family": family, "d": 2, "m": {"family": "beta", "p": 2.0, "q": 3.0}}
                assert cli.build_model(spec).evals == {}

    @pytest.mark.parametrize("family", sorted(EVAL_MODELS))
    @pytest.mark.parametrize("point, message", [
        ("nan,1", "has a NaN coordinate"),
        ("[0.5, NaN]", "has a NaN coordinate"),
        ("0.5,0.5,0.5", "must have 2 coordinates, as the model has d=2"),
        ("0.5", "must have 2 coordinates, as the model has d=2"),
        ("[[0.5, 0.5]]", "must have 2 coordinates, as the model has d=2"),
    ], ids=["nan", "json_nan", "three", "one", "nested"])
    def test_nan_or_wrong_length_point_is_refused(self, family, point, message):
        model = json.dumps(eval_model(family))
        for kind in cli.build_model(eval_model(family)).evals:
            code, out, err = run(["eval", "--model", model, "--point", "1,1", "--kind", kind])
            assert code == 0, err
            code, out, err = run(["eval", "--model", model, "--point", point, "--kind", kind])
            assert code == 1 and out == ""
            assert f"point {point!r} {message}" in err

    @pytest.mark.parametrize("family", sorted(
        f for f in EVAL_MODELS if "survival" in cli.build_model(eval_model(f)).evals))
    @pytest.mark.parametrize("point", ["inf,1", "1,inf", "inf,inf"])
    def test_survival_at_infinity_is_zero(self, family, point):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["eval", "--model", json.dumps(eval_model(family)),
                                  "--point", point])
        assert (code, out, err) == (0, "0\n", "")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "model,point,kind,expect",
        [
            ('{"family":"sato","alpha":1.0,"d":1}', "1.0", "survival", 0.5),
            ('{"family":"dirichlet_prior","c":1.0,"d":2}', "0.5,0.5", "copula", 0.375),
            (MO_MODEL, "0,0,0", "survival", 1.0),
            ('{"family":"minstable","stdf":{"kind":"logistic","theta":0.5},"d":2}',
             "1,1", "stdf", math.sqrt(2)),
        ],
    )
    def test_values(self, model, point, kind, expect):
        code, out, _ = run(["eval", "--model", model, "--point", point, "--kind", kind])
        assert code == 0
        assert float(out.strip()) == pytest.approx(expect, rel=1e-9)

    def test_twelve_significant_digits(self):
        code, out, _ = run(["eval", "--model", '{"family":"sato","alpha":1.0,"d":1}',
                            "--point", "2.0", "--kind", "survival"])
        assert out.strip() == "0.333333333333"

    @pytest.mark.parametrize("stdf", [
        {"kind": "independence"},
        {"kind": "logistic", "theta": 0.5},
        {"kind": "logistic", "theta": 1.0},
        {"kind": "negative_logistic", "theta": 1.5},
        {"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}},
        {"kind": "lf", "g": {"kind": "mo_atom", "m": 0.5}},
        {"kind": "triplet", "b": 0.2, "c": 1.0,
         "atoms": [{"g": {"kind": "weibull", "theta": 0.5}, "weight": 1.0}]},
        {"kind": "triplet", "c": 1.0, "atoms": [{"g": {"kind": "weibull", "theta": 0.5},
                                                  "weight": 1.0}]},
        {"kind": "triplet", "b": 0.2, "c": 1.0, "atoms": [{"g": {"kind": "mo_atom", "m": 0.5},
                                                            "weight": 1.0}]},
    ], ids=["independence", "logistic_0.5", "logistic_1", "negative_logistic", "lf_frechet",
            "lf_mo_atom", "triplet_weibull", "triplet_weibull_b0", "triplet_mo_atom"])
    def test_survival_vanishes_at_infinity(self, stdf):
        # a coordinate at +inf is never exceeded: b = 0 must not make it 0 * inf
        model = json.dumps({"family": "minstable", "d": 2, "stdf": stdf})
        code, out, err = run(["eval", "--model", model, "--point", "inf,1"])
        assert code == 0, err
        assert out == "0\n"

    def test_unsupported_kind(self):
        code, _, err = run(["eval", "--model", MO_MODEL, "--point", "1,1,1", "--kind", "stdf"])
        assert code == 1
        assert "kind" in err

    @pytest.mark.parametrize("family, kind, point, message", [
        ("marshall_olkin", "survival", "--point=-1,1",
         "survival point [-1.0, 1.0] lies outside the domain [0, inf]^d"),
        ("sato", "survival", "--point=0.5,-1e308",
         "survival point [0.5, -1e+308] lies outside the domain [0, inf]^d"),
        ("minstable", "stdf", "--point=-inf,1",
         "stdf point [-inf, 1.0] lies outside the domain [0, inf]^d"),
        ("l1", "copula", "--point=0.5,1.5",
         "copula point [0.5, 1.5] lies outside the domain [0, 1]^d"),
        ("exshock", "copula", "--point=-0.1,0.5",
         "copula point [-0.1, 0.5] lies outside the domain [0, 1]^d"),
    ])
    def test_point_outside_the_domain_is_refused(self, family, kind, point, message):
        code, out, err = run(["eval", "--model", json.dumps(eval_model(family)), point,
                              "--kind", kind])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("family, point, value", [
        ("exch_normal", "--point=-1e308,1", "0.158655253931"),  # P(X_2 > 1)
        ("dirichlet_prior", "--point=-1,0.5", "0.5"),  # uniform base: P(X_2 > 0.5)
    ])
    def test_law_on_the_real_line_takes_its_survival_on_it(self, family, point, value):
        assert run(["eval", "--model", json.dumps(eval_model(family)), point]) == (0, value + "\n", "")

    def test_archimedean_cdf_is_the_copula_of_the_clipped_point(self):
        model = json.dumps(eval_model("archimedean"))
        for point, same in (("--point=-1,0.4", "0,0.4"), ("--point=0.3,2", "0.3,1"),
                            ("--point=inf,0.25", "1,0.25")):
            code, out, err = run(["eval", "--model", model, point, "--kind", "cdf"])
            assert (code, err) == (0, "")
            assert out == run(["eval", "--model", model, "--point", same, "--kind", "copula"])[1]

    @pytest.mark.parametrize("stdf, point, value", [
        ({"kind": "logistic", "theta": 0.5}, "1e308,1e308", "1.41421356237e+308"),
        ({"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}}, "1e200,1e200",
         "1.41421356237e+200"),
        ({"kind": "logistic", "theta": 0.5}, "1e-300,1e-300", "1.41421356237e-300"),
        ({"kind": "logistic", "theta": 0.5}, "5e-324,0", "4.94065645841e-324"),
    ], ids=["logistic_1e308", "lf_frechet_1e200", "logistic_1e-300", "subnormal"])
    def test_stdf_at_extreme_doubles_is_finite(self, stdf, point, value):
        # (sum x_k**2)**0.5 overflows or underflows there; the row maximum scales it
        model = json.dumps({"family": "minstable", "d": 2, "stdf": stdf})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(["eval", "--model", model, "--point", point, "--kind", "stdf"])
        assert result == (0, value + "\n", "")

    @pytest.mark.parametrize("point", ["inf,1", "0,inf"])
    def test_infinite_stdf_is_refused(self, point):
        model = json.dumps(eval_model("minstable"))
        x, y = (float(v) for v in point.split(","))
        code, out, err = run(["eval", "--model", model, "--point", point, "--kind", "stdf"])
        assert (code, out) == (1, "")
        assert err == f"error: stdf at point {[x, y]} is not a finite value >= 0\n"


def contract_model(evals):
    return cli.Model("test", 2, sampler=None, evals=evals)


class TestEvaluateContract:
    """``Model.evaluate``, the one checked entry to every closed form."""

    @pytest.mark.parametrize("kind, value, wanted", [
        ("survival", 1.5, "a probability in [0, 1]"),
        ("cdf", -1e-300, "a probability in [0, 1]"),
        ("copula", math.nan, "a probability in [0, 1]"),
        ("survival", math.inf, "a probability in [0, 1]"),
        ("stdf", -0.5, "a finite value >= 0"),
        ("stdf", math.nan, "a finite value >= 0"),
    ])
    def test_bad_value_is_refused_by_its_point(self, kind, value, wanted):
        model = contract_model({kind: lambda x: np.where(x[:, 0] > 0.4, value, 0.25)})
        assert model.evaluate(kind, [[0.3, 0.3]]).tolist() == [0.25]
        with pytest.raises(SpecValidationError) as info:
            model.evaluate(kind, [[0.3, 0.3], [0.5, 0.25], [0.75, 0.5]])
        assert str(info.value) == f"{kind} at point [0.5, 0.25] is not {wanted}"
        assert repr(value) not in str(info.value)

    def test_result_of_another_shape_is_refused(self):
        model = contract_model({"survival": lambda x: 0.5})
        with pytest.raises(SpecValidationError, match=r"survival closed form gave shape \(\) for 2 points"):
            model.evaluate("survival", [[0.3, 0.3], [0.5, 0.25]])

    def test_points_reach_the_closed_form_as_given(self):
        seen = []
        model = contract_model({"survival": lambda x: seen.append(x.copy()) or np.full(len(x), 0.5)})
        points = [[2.0, -0.0], [0.5, 1e308], [math.inf, 0.25]]
        model.evaluate("survival", points)
        assert np.array_equal(seen[0], points) and math.copysign(1.0, seen[0][0, 1]) == -1.0

    def test_nan_is_outside_every_domain(self):
        for kind in cli.DOMAINS:
            model = contract_model({kind: lambda x: np.full(len(x), 0.5)})
            with pytest.raises(SpecValidationError, match=r"point \[nan, 0.5\] lies outside"):
                model.evaluate(kind, [[math.nan, 0.5]])


# Coordinates of the drawn points: the edges of the double range, and random values
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 0.5, 1.0, 1e200, 1e308,
               np.finfo(float).max, math.inf, -1.0, -1e308, -math.inf]
COORDINATES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0), st.floats(-5.0, 50.0))
# Mixing laws whose transform, or the integral of whose density, rounded above 1
# near 0, or whose scipy hyp1f1 was inf or NaN there; the finite_discrete
# weights sum to 1 + 2^-52 in floats
EDGE_LAWS = {
    "pareto_20": {"family": "pareto", "alpha": 20.0},
    "gamma_30": {"family": "gamma", "shape": 30.0},
    "beta_1_20": {"family": "beta", "p": 1.0, "q": 20.0},
    "beta_0.05_1": {"family": "beta", "p": 0.05, "q": 1.0},
    "finite_discrete": {"family": "finite_discrete", "atoms": [0.5, 1.0, 2.0, 3.0],
                        "weights": [0.788, 0.044, 0.07, 0.098]},
}
CONTRACT_MODELS = {
    **{family: eval_model(family) for family in EVAL_MODELS},
    **{f"{family}_{name}": {"family": family, "d": 2, "m": law}
       for family in ("l1", "archimedean", "linf") for name, law in EDGE_LAWS.items()},
}
CONTRACT_CASES = [(name, kind) for name in sorted(CONTRACT_MODELS)
                  for kind in sorted(cli.build_model(CONTRACT_MODELS[name]).evals)]
DOMAIN_REFUSAL = (r"(survival|cdf|copula|stdf) point \[.*\] lies outside the domain "
                  r"\[-?(0|1|inf), (1|inf)\]\^d|geometric survival is defined on integer grids")
CONTRACT_REFUSAL = (DOMAIN_REFUSAL + r"|(survival|cdf|copula|stdf) at point \[.*\] is not "
                    r"(a probability in \[0, 1\]|a finite value >= 0)")


@pytest.mark.parametrize("name, kind", CONTRACT_CASES, ids=[f"{n}-{k}" for n, k in CONTRACT_CASES])
@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.lists(COORDINATES, min_size=2, max_size=2), min_size=1, max_size=4),
       raises=st.lists(st.tuples(st.integers(0, 1), COORDINATES), min_size=4, max_size=4))
@example(points=[[0.0, 0.0], [0.0, 1.0]], raises=[(0, 1.0), (1, 0.5)] * 2)
@example(points=[[5e-324, 0.0], [5e-324, 5e-324]], raises=[(0, 1e-300), (1, 1.0)] * 2)
@example(points=[[1e-300, 0.0], [1e-300, 1e-300]], raises=[(0, 1e-18), (1, 1e-18)] * 2)
@example(points=[[1e-18, 0.0], [1e-18, 1e-18]], raises=[(0, 1.0), (1, 1e-16)] * 2)
def test_every_closed_form_keeps_the_contract(name, kind, points, raises):
    """Each point either gets a finite value in range, with no warning, or is
    refused with the contract's message; the (k, d) call gives each point the
    bits it has alone, and a survival is non-increasing in each coordinate:
    ``raises`` gives the coordinate of each point raised, and to what."""
    spec = CONTRACT_MODELS[name]
    model = cli.build_model(spec)
    # an edge law's closed forms give a value at every point of the domain
    refusal = CONTRACT_REFUSAL if name in EVAL_MODELS else DOMAIN_REFUSAL
    points = np.array(points)
    if spec["family"] == "geometric":  # its survival lives on the integer grid
        points = np.rint(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = {}
        for i, point in enumerate(points):
            try:
                alone[i] = model.evaluate(kind, point[None, :])
            except SpecValidationError as exc:
                assert re.fullmatch(refusal, str(exc)), str(exc)
        if len(alone) < len(points):
            with pytest.raises(SpecValidationError):
                model.evaluate(kind, points)
        if not alone:
            return
        values = model.evaluate(kind, points[list(alone)])
        assert values.tobytes() == np.concatenate(list(alone.values())).tobytes()
        top = math.inf if kind == "stdf" else 1.0
        assert np.all(np.isfinite(values) & (values >= 0.0) & (values <= top))
        if kind != "survival":
            return
        for i, value in zip(alone, values):
            j, raised = raises[i]
            higher = points[i].copy()
            higher[j] = max(higher[j], raised)
            if spec["family"] == "geometric":
                higher = np.rint(higher)
            try:
                assert model.evaluate(kind, higher[None, :])[0] <= value
            except SpecValidationError as exc:
                assert re.fullmatch(refusal, str(exc)), str(exc)


def edge_model(family, law):
    return json.dumps({"family": family, "d": 2, "m": EDGE_LAWS[law]})


@pytest.mark.parametrize("argv, values", [
    (["eval", "--model", edge_model("l1", "beta_1_20"), "--point", "1e-100,0"], [1.0]),
    (["eval", "--model", edge_model("archimedean", "beta_1_20"), "--kind", "copula",
      "--point", "0.9999999999999999,0.5"], [0.5]),
    (["eval", "--model", edge_model("linf", "pareto_20"), "--point", "0,0"], [1.0]),
    (["eval", "--model", edge_model("linf", "gamma_30"), "--point", "0,0"], [1.0]),
    (["eval", "--model", edge_model("l1", "pareto_20"), "--point", "1e-18,0"], [1.0]),
    (["eval", "--model", edge_model("l1", "finite_discrete"), "--point", "1e-18,0"], [1.0]),
    (["verify", "--model", edge_model("l1", "pareto_20"), "--grid", "[[1e-18,1e-18]]",
      "--seed", "1"], [1.0]),
], ids=["l1_beta_1_20", "archimedean_beta_1_20_near_1", "linf_pareto_20", "linf_gamma_30",
        "l1_pareto_20", "l1_weights_above_1", "verify_l1_pareto_20"])
def test_transforms_near_0_are_probabilities(argv, values):
    """Each command was refused: a transform or a density integral above 1, or
    a NaN from scipy's hyp1f1 where the Laplace inversion probed 3.7e-270."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert (json.loads(out)["closed"] if argv[0] == "verify" else [float(out)]) == values


def identities(d):
    """name: (kind, a model, the same law by another family or in closed form,
    the relative tolerance), at dimension d."""
    return {
        "l1_point_mass-iid_exponential_mo": (
            "survival", {"family": "l1", "d": d, "m": {"family": "point_mass", "m": 0.7}},
            {"family": "marshall_olkin", "d": d, "rates": [0.7] + [0.0] * (d - 1)}, 1e-14),
        "linf_point_mass-iid_uniform": (
            "survival", {"family": "linf", "d": d, "m": {"family": "point_mass", "m": 1.0}},
            lambda x: np.prod(np.clip(1.0 - x, 0.0, 1.0), axis=-1), 0.0),
        **{f"gumbel_{theta}": (
            "copula", {"family": "archimedean", "d": d, "m": {"family": "positive_stable", "theta": theta}},
            {"family": "minstable", "d": d, "stdf": {"kind": "logistic", "theta": theta}}, 2e-15)
           for theta in (0.3, 0.5, 0.8)},
    }


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("name", list(identities(2)))
def test_families_of_the_same_law_agree(name, d):
    """Where two families give one law, their closed forms run through
    different code: iid Exp(0.7) as l1 and as MO, iid uniform as linf, and
    the Gumbel copula as archimedean and as min-stable logistic."""
    kind, spec, other, rel = identities(d)[name]
    rng = np.random.default_rng(d)
    scale = 1.0 if kind == "copula" else 3.0  # survival points run past linf's support
    points = np.r_[np.zeros((1, d)), np.ones((1, d)), scale * rng.random((40, d))]
    reference = other if callable(other) else cli.build_model(other).evals[kind]
    values = cli.build_model(spec).evaluate(kind, points)
    assert values == pytest.approx(reference(points), rel=rel, abs=0.0)


SURVIVAL_FAMILIES = [family for family in sorted(EVAL_MODELS)
                     if "survival" in cli.build_model(eval_model(family)).evals]
D3_MODELS = {  # the families whose list sets d, at d = 3; the others take d
    "marshall_olkin": {"rates": [0.3, 0.2, 0.1]},
    "geometric": {"b": [1.0, 0.5, 0.3, 0.2]},
    "exshock": {"shocks": [{"kind": "exponential", "rate": 1.0},
                           {"kind": "exponential", "rate": 0.5},
                           {"kind": "exponential", "rate": 0.25}]},
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", SURVIVAL_FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_survival_gives_every_box_a_non_negative_mass(family, d, data):
    """P(lo < X <= hi) = sum over the 2^d corners c of (-1)^(number of hi
    coordinates in c) sf(c), from one evaluate call, is a probability."""
    params = D3_MODELS[family] if d == 3 and family in D3_MODELS else EVAL_MODELS[family]
    model = cli.build_model({"family": family, "d": d, **params})
    least = max(model.domains["survival"][0], -5.0)
    lo = np.array(data.draw(st.lists(st.floats(least, 10.0), min_size=d, max_size=d)))
    hi = lo + data.draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.inf)),
                                 min_size=d, max_size=d))
    if family == "geometric":  # its survival lives on the integer grid
        lo, hi = np.rint(lo), np.rint(hi)
    upper = np.array(list(itertools.product([False, True], repeat=d)))
    signs = np.where(upper.sum(axis=1) % 2, -1.0, 1.0)
    mass = signs @ model.evaluate("survival", np.where(upper, hi, lo))
    assert mass >= -1e-12, (lo.tolist(), hi.tolist(), mass)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9).filter(any))
def test_geometric_p_checks_as_the_binary_law_of_its_round(weights):
    # p[m] is the probability that a round shocks one fixed subset of m
    # components; its round, on {0,1}^d with ones the spared components, has
    # pattern probabilities p reversed
    d = len(weights) - 1
    total = sum(weights)
    p = [w / total / math.comb(d, m) for m, w in enumerate(weights)]
    geometric = run(["check", "--model", json.dumps({"family": "geometric", "p": p})])
    binary = run(["check", "--model", json.dumps({"family": "binary", "p": p[::-1]})])
    assert geometric[:2] == binary[:2]


class TestCheck:
    def test_extendible_flip(self):
        good, out_good, _ = run(["check", "--model", '{"family":"binary","b":[1.0,0.5,0.3]}'])
        bad, out_bad, _ = run(["check", "--model", '{"family":"binary","b":[1.0,0.5,0.2]}'])
        assert good == 0 and bad == 0
        assert out_good.startswith("extendible")
        assert out_bad.startswith("not extendible")
        payload = json.loads(out_bad.splitlines()[1])
        assert payload["extendible"] is False
        assert "hankel_values" in payload

    def test_binary_m_alone_is_extendible_by_construction(self):
        # a mixture of iid Bernoulli(M) laws is extendible at every d; at
        # d = 40 the numeric test of its rounded moments refuses them
        for d in (4, 40):
            code, out, _ = run(["check", "--model", json.dumps(
                {"family": "binary", "d": d, "m": {"family": "beta", "p": 2.0, "q": 3.0}})])
            assert code == 0
            assert out == 'extendible\n{"by_construction": "m", "extendible": true}\n'
        code, out, _ = run(["check", "--model", json.dumps(
            {"family": "binary", "b": [1.0, 0.5, 0.25, 0.125, 0.0625]})])
        assert code == 0 and out.startswith("extendible")
        assert len(json.loads(out.splitlines()[1])["hankel_values"]) == 8

    def test_binary_m_whose_moment_zero_rounds(self):
        # gammaln gives Beta(1.5, 1.5).moment(0) one ulp below 1, which no command of m reads
        model = json.dumps({"family": "binary", "d": 3, "m": {"family": "beta", "p": 1.5, "q": 1.5}})
        for argv in (["check"], ["sample", "--n", "5", "--seed", "1"]):
            code, _, err = run([argv[0], "--model", model, *argv[1:]])
            assert code == 0, err

    @pytest.mark.parametrize("m", [{"family": "gamma", "shape": 2.0},
                                   {"family": "point_mass", "m": 1.5}], ids=["gamma", "point_mass"])
    def test_binary_m_off_the_unit_interval_is_refused(self, m):
        spec = {"family": "binary", "d": 3, "m": m}
        with pytest.raises(UnsupportedLawError, match=r"is not supported in \[0,1\]"):
            cli.build_model(spec)
        for argv in (["check"], ["sample", "--n", "5", "--seed", "1"]):
            code, out, err = run([argv[0], "--model", json.dumps(spec), *argv[1:]])
            assert code == 1 and out == ""
            assert "is not supported in [0,1]" in err

    def test_geometric_and_mo_families(self):
        code, out, _ = run(["check", "--model",
                            '{"family":"geometric","b":[1.0,0.5,0.3],"d":2}'])
        assert code == 0 and out.startswith("extendible")
        # a latent-process-derived sequence is extendible by construction ...
        sub_model = json.dumps({
            "family": "marshall_olkin", "d": 3,
            "subordinator": {"drift": 0.2, "kill": 0.05, "jumps": [{"size": 1.0, "rate": 0.4}]},
        })
        code, out, _ = run(["check", "--model", sub_model])
        assert code == 0 and out.startswith("extendible")
        # ... while these exchangeable shock rates admit no such representation
        code, out, _ = run(["check", "--model", MO_MODEL])
        assert code == 0 and out.startswith("not extendible")

    def test_mo_refusal_names_the_derived_sequence(self):
        # the refusal names a_k/a_1, which the user never gave
        d = 40
        model = json.dumps({"family": "marshall_olkin", "d": d,
                            "rates": [1e-3 / math.comb(d - 1, j) for j in range(d - 1)] + [0.05]})
        code, _, err = run(["check", "--model", model])
        assert code == 1
        assert "a_k/a_1 of the model's exponents a_k = Psi(k) - Psi(k-1)" in err

    def test_geometric_refusal_names_the_models_b(self):
        # the d-monotone test fails on the b derived from the user's p
        d = 36
        weights = [0.2] + [0.4 / (d - 1)] * (d - 1) + [0.4]
        model = json.dumps({"family": "geometric", "d": d,
                            "p": [w / math.comb(d, m) for m, w in enumerate(weights)]})
        code, _, err = run(["check", "--model", model])
        assert code == 1
        assert "model's b (derived from its p" in err
        assert "not d-monotone" in err

    @pytest.mark.parametrize("command", ["check", "sample"])
    def test_geometric_b_is_tested_for_d_monotonicity_once(self, command, monkeypatch):
        from condiid import moments

        calls = []

        def counted(seq, test=moments.is_d_monotone):
            calls.append(seq)
            return test(seq)

        monkeypatch.setattr(moments, "is_d_monotone", counted)
        model = json.dumps({"family": "geometric", "d": 4, "b": [1.0, 0.6, 0.45, 0.37, 0.32]})
        argv = ["check", "--model", model] if command == "check" else \
            ["sample", "--model", model, "--n", "5", "--seed", "1"]
        code, _, _ = run(argv)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", [{"family": "geometric", "b": [1.0, 1.0, 1.0]},
                                      {"family": "geometric", "p": [1.0, 0.0, 0.0]}],
                             ids=["b", "p"])
    def test_geometric_law_that_never_hits_is_refused_by_its_sampler(self, spec):
        # every round spares every component: check and eval describe the law,
        # sample and verify refuse it by name
        model = json.dumps(spec)
        assert run(["eval", "--model", model, "--point", "3,2"]) == (0, "1\n", "")
        assert run(["check", "--model", model])[0] == 0
        for argv in (["sample", "--n", "5"], ["verify", "--n", "100"]):
            code, out, err = run([argv[0], "--model", model, *argv[1:], "--seed", "1"])
            assert (code, out) == (1, "")
            assert err == "error: every component needs positive hit probability\n"

    def test_family_not_checkable(self):
        code, _, err = run(["check", "--model", '{"family":"sato","alpha":1.0}'])
        assert code == 1
        assert "sequence-parameterized" in err


class TestVerify:
    def test_pass_with_exit_zero(self):
        code, out, _ = run(["verify", "--model", MO_MODEL, "--n", "20000", "--seed", "5"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["grid"]) == 10

    def test_fail_with_exit_two(self):
        # deliberately inconsistent grid: closed form evaluated for a
        # different parameterization via a custom grid plus wrong family
        model = json.dumps({"family": "sato", "alpha": 1.0, "d": 2})
        code, out, _ = run([
            "verify", "--model", model, "--n", "4000", "--seed", "5",
            "--grid", "[[1e9, 1e9]]",
        ])
        # at (1e9, 1e9) closed survival ~ (1/2)^alpha * tiny; empirical is 0
        report = json.loads(out)
        assert code == (0 if report["passed"] else 2)

    def test_seed_mandatory(self):
        code, _, err = run(["verify", "--model", MO_MODEL, "--n", "100"])
        assert code == 1 and "seed" in err

    @pytest.mark.parametrize("extra, message", [
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--n", "1", "--threads", "2"], "threads must be between 1 and n=1, got 2"),
        (["--n", "100", "--grid", "[[0.5, 0.5]]"],
         "grid points have 2 coordinates but the sample has d=3"),
    ], ids=["n_zero", "threads_above_n", "grid_width"])
    def test_invalid_arguments_named(self, extra, message):
        code, out, err = run(["verify", "--model", MO_MODEL, "--seed", "5"] + extra)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("grid", ["[[NaN, 1.0, 1.0]]", "[[0.5, 0.5, 0.5], [1.0, NaN, 1.0]]",
                                      "[0.5, 0.5, NaN]"])
    def test_nan_grid_is_refused(self, grid):
        code, out, err = run(["verify", "--model", MO_MODEL, "--n", "100", "--seed", "5",
                              "--grid", grid])
        assert code == 1 and out == ""
        assert f"grid {grid!r} has a NaN coordinate" in err

    def test_threads_deterministic(self):
        args = ["verify", "--model", MO_MODEL, "--n", "20000", "--seed", "5",
                "--threads", "3"]
        c1, o1, _ = run(args)
        c2, o2, _ = run(args)
        assert o1 == o2
        assert c1 == c2 == 0

    @pytest.mark.parametrize("stdf", [
        {"kind": "independence"},
        {"kind": "logistic", "theta": 1.0},
        {"kind": "negative_logistic", "theta": 1.5},
    ], ids=["independence", "logistic_1", "negative_logistic"])
    def test_minstable_kinds_verified(self, stdf):
        model = json.dumps({"family": "minstable", "d": 3, "stdf": stdf})
        code, out, _ = run(["verify", "--model", model, "--n", "20000", "--seed", "1"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("model, n, extra", [
        ({"family": "minstable", "d": 2, "term_tol": 1e-8,
          "stdf": {"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}}}, 500, []),
        (minstable_triplet({"kind": "weibull", "theta": 0.5}), 300, []),
        (minstable_triplet({"kind": "weibull", "theta": 0.5}), 300, ["--threads", "2"]),
        (minstable_triplet({"kind": "mo_atom", "m": 0.5}), 1000, []),
    ], ids=["lf_frechet", "triplet_weibull", "triplet_weibull_threads", "triplet_mo_atom"])
    def test_minstable_parts_verify_without_warnings(self, model, n, extra):
        # one command per part sampler: Kanter, extremal functions, death chain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(["verify", "--model", json.dumps(model), "--n", str(n), "--seed", "1"] + extra)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_archimedean_verified_against_copula(self):
        model = json.dumps({"family": "archimedean", "d": 3, "m": {"family": "gamma", "shape": 1.5}})
        code, out, _ = run(["verify", "--model", model, "--n", "2000", "--seed", "1"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("d", [36, 40])
    @pytest.mark.parametrize("family", ["marshall_olkin", "geometric"])
    def test_models_from_rates_or_p_at_large_d(self, family, d):
        # valid by construction: the model builds and samples, and check
        # refuses with a typed error, since double precision cannot decide
        # these laws; both are extendible, by the exact Hankel determinants of
        # their rational a_k/a_1 or b
        if family == "marshall_olkin":
            spec = {"family": family, "d": d,
                    "rates": [1e-3 / math.comb(d - 1, j) for j in range(d - 1)] + [0.05]}
        else:
            weights = [0.2] + [0.4 / (d - 1)] * (d - 1) + [0.4]
            spec = {"family": family, "d": d,
                    "p": [w / math.comb(d, m) for m, w in enumerate(weights)]}
        model = json.dumps(spec)
        code, out, _ = run(["sample", "--model", model, "--n", "50", "--seed", "1"])
        assert code == 0
        assert read_csv(io.StringIO(out)).shape == (50, d)
        code, out, _ = run(["verify", "--model", model, "--n", "20000", "--seed", "1"])
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, err = run(["check", "--model", model])
        assert (code, out) == (1, "")
        if family == "marshall_olkin":  # a_k/a_1 is d-monotone by construction
            assert "hat_23 of the sequence a_k/a_1" in err and "does not decide its sign" in err
        else:
            assert "not d-monotone" in err

    @pytest.mark.parametrize("model, grid, closed", [
        ('{"family":"sato","alpha":1,"d":3}', "[[1e308,1e308,1e308],[1,1,1]]", 1 / 3e308),
        # a +inf grid value is clamped to the largest double
        ('{"family":"marshall_olkin","rates":[2.0,0.5]}', "[[1.7e308,1],[1,1]]", 0.0),
        ('{"family":"marshall_olkin","rates":[2.0,0.5]}', "[[Infinity,1],[1,1]]", 0.0),
        ('{"family":"geometric","b":[1.0,0.3,0.2]}', "[[1.7e308,1],[1,1]]", 0.0),
        ('{"family":"geometric","b":[1.0,0.3,0.2]}', "[[Infinity,1],[1,1]]", 0.0),
    ])
    def test_verify_at_the_largest_doubles_prints_no_nan(self, model, grid, closed):
        code, out, err = run(["verify", "--model", model, "--seed", "1", "--n", "2000",
                              "--grid", grid])
        assert code == 0 and err == ""
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        assert report["closed"][0] == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("spec", [{"family": "geometric", "b": [1.0, 0.0, 0.0]},
                                      {"family": "geometric", "p": [0, 0, 1.0]}], ids=["b", "p"])
    def test_geometric_law_that_always_hits_is_verified(self, spec):
        # b_1 = 0: every round hits every component, so X = (1, 1), and the
        # marginal quantiles and the grid are 1
        code, out, err = run(["verify", "--model", json.dumps(spec), "--n", "1000", "--seed", "1"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["grid"] == [[1.0, 1.0]] * 10
        assert report["closed"] == report["empirical"] == [0.0] * 10

    def test_sato_verified_beyond_d3(self):
        model = json.dumps({"family": "sato", "d": 5, "alpha": 1.05})
        code, out, err = run(["verify", "--model", model, "--n", "20000", "--seed", "1"])
        assert code == 0, err
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("grid", [[], ["--grid", "[[Infinity, Infinity], [Infinity, 0.5]]"]],
                             ids=["default_grid", "user_grid"])
    def test_never_arriving_shock(self, grid):
        # the rate-0 shock never arrives, so the marginal quantiles at 0.75 and
        # 0.9 are +inf: verify takes the largest double there, in the
        # default grid and in a grid given by the user alike
        model = json.dumps({"family": "exshock", "shocks": [
            {"kind": "step", "points": [1.0], "values": [0.5]},
            {"kind": "exponential", "rate": 0.0},
        ]})
        code, out, err = run(["verify", "--model", model, "--n", "5000", "--seed", "2"] + grid)
        assert code == 0, out
        report = json.loads(out)
        big = np.finfo(float).max
        assert [big, big] in report["grid"]
        assert not any(math.isnan(v) for v in report["closed"])

    def test_spherical_has_no_closed_form(self):
        model = json.dumps({"family": "spherical", "m": {"family": "gamma", "shape": 1.0}, "d": 2})
        code, _, err = run(["verify", "--model", model, "--n", "100", "--seed", "1"])
        assert code == 1
        assert "closed form" in err


class TestDiagnose:
    def test_round_trip_kendall_nonnegative(self, tmp_path):
        path = tmp_path / "mo.csv"
        code, _, _ = run(["sample", "--model", MO_MODEL, "--n", "20000", "--seed", "11",
                          "--out", str(path)])
        assert code == 0
        code, out, _ = run(["diagnose", str(path), "--tests", "kendall,ties,majorization"])
        assert code == 0
        report = json.loads(out)
        assert report["kendall_tau"] >= -3 * report["kendall_tau_null_stderr"]
        assert report["tie_frequency"] > 0.0
        assert report["majorization_ok"] is True

    def test_unknown_test_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        run(["sample", "--model", MO_MODEL, "--n", "100", "--seed", "2", "--out", str(path)])
        code, _, err = run(["diagnose", str(path), "--tests", "bogus"])
        assert code == 1
        assert "bogus" in err

    def test_missing_csv_is_io_error(self):
        code, _, _ = run(["diagnose", "nope.csv", "--tests", "kendall"])
        assert code == 3

    @pytest.mark.parametrize("text,message", [
        ("x1,x2\n1.0,2.0\n3.0\n", "row width"),
        ("x1,x2\n", "no data rows"),
        ("x1,x2\n1.0,2.0\n3.0,abc\n", "could not convert"),
        ("", "CSV is empty"),
    ])
    def test_malformed_csv_exits_one(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run(["diagnose", str(path), "--tests", "ties"])
        assert code == 1
        assert message in err


    @pytest.mark.parametrize("text,message", [
        ("x1\n1.0\n2.0\n", "kendall needs two columns"),
        ("x1,x2\n1.0,inf\ninf,2.0\n",
         "kendall needs two rows with every coordinate finite; the file has 0"),
        ("x1,x2\n1.0,inf\ninf,2.0\n",
         "majorization needs two rows with every coordinate finite; the file has 0"),
        ("x1,x2\n1.0,2.0\ninf,2.0\n",
         "majorization needs two rows with every coordinate finite; the file has 1"),
        ("x1,x2\n1.0,inf\ninf,2.0\n",
         "radial needs two rows with every coordinate finite; the file has 0"),
        ("x1,x2\n1.0,2.0\ninf,2.0\n",
         "radial needs two rows with every coordinate finite; the file has 1"),
        ("x1\n1.0\n2.0\n", "majorization needs two columns"),
    ], ids=["one_column", "no_finite_row", "majorization_no_finite_row",
            "majorization_one_finite_row", "radial_no_finite_row", "radial_one_finite_row",
            "majorization_one_column"])
    def test_kendall_refusal_names_its_cause(self, tmp_path, text, message):
        path = tmp_path / "k.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["diagnose", str(path), "--tests", message.split()[0]])
        assert (code, out) == (1, "")
        assert message in err


class TestModelPlumbing:
    def test_param_flags_merge(self):
        code, out, _ = run(["eval", "--model", '{"family":"sato","d":1}',
                            "--param", "alpha=1.0", "--point", "1.0"])
        assert code == 0
        assert float(out) == pytest.approx(0.5)

    def test_param_conflict_is_error(self):
        code, _, err = run(["eval", "--model", '{"family":"sato","alpha":2.0,"d":1}',
                            "--param", "alpha=1.0", "--point", "1.0"])
        assert code == 1
        assert "conflict" in err

    def test_equal_values_no_conflict(self):
        code, _, _ = run(["eval", "--model", '{"family":"sato","alpha":1.0,"d":1}',
                          "--param", "alpha=1.0", "--point", "1.0"])
        assert code == 0

    def test_param_lists_do_not_leak_between_calls(self):
        # the parser is built once per process; each call must start from its defaults
        assert cli.make_parser() is cli.make_parser()
        code, out, _ = run(["eval", "--model", '{"family":"sato","d":1}',
                            "--param", "alpha=1.0", "--point", "1.0"])
        assert code == 0
        code, out2, err = run(["eval", "--model", '{"family":"sato","alpha":2.0,"d":1}',
                               "--point", "1.0"])
        assert code == 0, err
        assert float(out2) != pytest.approx(float(out))
        code, _, err = run(["eval", "--model", '{"family":"sato","d":1}', "--point", "1.0"])
        assert code == 1
        assert "alpha" in err

    def test_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(MO_MODEL)
        code, out, _ = run(["eval", "--model", str(path), "--point", "0,0,0"])
        assert code == 0
        assert float(out) == 1.0

    @pytest.mark.parametrize("text", ["[1]", '"abc"', "null"], ids=["list", "string", "null"])
    def test_param_into_a_model_file_that_is_not_an_object(self, tmp_path, text):
        # refused before --param merges into it, which raised a TypeError
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run(["check", "--model", str(path), "--param", "family=binary"])
        assert (code, out) == (1, "")
        assert err == f"error: model spec must be a JSON object, got {json.loads(text)!r}\n"

    @pytest.mark.parametrize("spec, path", [
        ({"family": "exshock", "shocks": [{"kind": "exponential"}]}, "shocks[0].rate"),
        ({"family": "minstable", "d": 3, "stdf": {"kind": "triplet", "c": 1.0,
                                                  "atoms": [{"weight": 1.0}]}},
         "stdf.atoms[0].g"),
        ({"family": "l1", "d": 3, "m": 3}, "m must be a JSON object"),
        ({"family": "marshall_olkin", "d": 3, "subordinator": {"jumps": [[1.0, 2.0]]}},
         "subordinator.jumps[0]"),
        ({"family": "l1", "d": 3, "m": {"family": "gamma"}}, "m.shape is missing"),
        ({"family": "dirichlet_prior", "c": 1.0, "base": {"family": "uniform", "x": 1}},
         "base.x is not a field"),
        ({"family": "binary", "b": 1}, "b must be a JSON list, got 1"),
        ({"family": "binary", "p": 0.5}, "p must be a JSON list, got 0.5"),
        ({"family": "marshall_olkin", "d": 3, "b": 0.5}, "b must be a JSON list"),
        ({"family": "marshall_olkin", "d": 3, "rates": 0.3}, "rates must be a JSON list"),
        ({"family": "geometric", "d": 3, "b": 0.5}, "b must be a JSON list"),
        ({"family": "geometric", "d": 3, "p": 0.3}, "p must be a JSON list"),
        ({"family": "exshock", "shocks": {"kind": "exponential", "rate": 1.0}},
         "shocks must be a JSON list"),
        ({"family": "marshall_olkin", "d": 3, "subordinator": {"jumps": {"size": 1.0,
                                                                       "rate": 2.0}}},
         "subordinator.jumps must be a JSON list"),
        ({"family": "minstable", "d": 3, "stdf": {"kind": "triplet", "c": 1.0,
                                                  "atoms": {"weight": 1.0}}},
         "stdf.atoms must be a JSON list"),
    ], ids=["shock_rate", "triplet_atom_g", "m_not_object", "jumps_as_pairs", "m_field_missing",
            "base_unknown_field", "binary_b_scalar", "binary_p_scalar", "mo_b_scalar",
            "mo_rates_scalar", "geometric_b_scalar", "geometric_p_scalar", "shocks_object",
            "jumps_object", "atoms_object"])
    def test_malformed_model_json_names_its_path(self, spec, path):
        code, out, err = run(["sample", "--model", json.dumps(spec), "--n", "5", "--seed", "1"])
        assert code == 1 and out == ""
        assert path in err

    @pytest.mark.parametrize("command, model, entry", [
        ("sample", '{"family":"binary","b":[1,null]}', "b[1] must be a finite number, got None"),
        ("sample", '{"family":"binary","p":[0.5,"0.5"]}', "p[1] must be a finite number, got '0.5'"),
        ("check", '{"family":"binary","b":[1,true,0.2]}', "b[1] must be a finite number, got True"),
        ("check", '{"family":"binary","b":[1,NaN]}', "b[1] must be a finite number, got nan"),
        ("check", '{"family":"marshall_olkin","b":[1,0.5,Infinity]}',
         "b[2] must be a finite number, got inf"),
        ("sample", '{"family":"marshall_olkin","rates":[0.1,false]}',
         "rates[1] must be a finite number, got False"),
        ("check", '{"family":"geometric","b":[1.0,0.5,-1e999]}',
         "b[2] must be a finite number, got -inf"),
        ("sample", '{"family":"geometric","p":[0.5,[0.1]]}', "p[1] must be a finite number, got [0.1]"),
    ], ids=["null", "string", "true", "nan", "infinity", "false", "overflow", "nested_list"])
    def test_non_numeric_list_entry_names_it(self, command, model, entry):
        code, out, err = run([command, "--model", model, "--n", "5", "--seed", "1"]
                             if command == "sample" else [command, "--model", model])
        assert code == 1 and out == ""
        assert entry in err

    @pytest.mark.parametrize("path, obj, key", FLOAT_FIELDS,
                             ids=[f"{path}:{obj.get('family', obj.get('kind'))}.{key}"
                                  for path, obj, key in FLOAT_FIELDS])
    def test_non_numeric_scalar_names_it(self, path, obj, key):
        for bad in ["1.0", None, True, math.nan, math.inf, -math.inf]:
            model = json.dumps(scalar_model(path, {**obj, key: bad}))
            code, out, err = run(["sample", "--model", model, "--n", "5", "--seed", "1"])
            assert code == 1 and out == ""
            assert f"{path}.{key} must be a finite number, got {bad!r}" in err

    def test_float_fields_cover_every_kind_and_family(self):
        import inspect

        from condiid import mixing, shock_models

        registries = {"m": mixing._FAMILIES, "shocks[0]": shock_models._SHOCK_KINDS,
                      "base": shock_models._BASES}
        annotated = {
            (path, tag, key)
            for path, registry in registries.items()
            for tag, cls in registry.items()
            for key, param in inspect.signature(cls).parameters.items()
            if param.annotation in (float, "float")
        }
        assert annotated == {(path, obj.get("family", obj.get("kind")), key)
                             for path, obj, key in FLOAT_FIELDS}
        for path, obj, _ in FLOAT_FIELDS:
            model = json.dumps(scalar_model(path, obj))
            assert run(["sample", "--model", model, "--n", "5", "--seed", "1"])[0] == 0

    @pytest.mark.parametrize("spec, message", [
        ({"d": 2.7}, "d must be a JSON integer >= 1, got 2.7"),
        ({"d": True}, "d must be a JSON integer >= 1, got True"),
        ({"d": "3"}, "d must be a JSON integer >= 1, got '3'"),
        ({"d": 0}, "d must be a JSON integer >= 1, got 0"),
        ({"mu": "x"}, "mu must be a finite number, got 'x'"),
        ({"sigma": [1.0]}, "sigma must be a finite number, got [1.0]"),
        ({"rho": None}, "rho must be a finite number, got None"),
        ({"family": "minstable", "rate": "x", "stdf": {"kind": "independence"}},
         "rate must be a finite number, got 'x'"),
        ({"family": "dirichlet_prior", "c": True}, "c must be a finite number, got True"),
        ({"family": "sato", "alpha": "x"}, "alpha must be a finite number, got 'x'"),
        ({"family": "marshall_olkin", "subordinator": {"drift": "x"}},
         "subordinator.drift must be a finite number, got 'x'"),
        ({"family": "marshall_olkin", "subordinator": {"kill": math.inf}},
         "subordinator.kill must be a finite number, got inf"),
        ({"family": "marshall_olkin", "subordinator": {"jumps": [{"size": None, "rate": 1.0}]}},
         "subordinator.jumps[0].size must be a finite number, got None"),
        ({"family": "marshall_olkin", "subordinator": {"jumps": [{"size": 1.0, "rate": "1"}]}},
         "subordinator.jumps[0].rate must be a finite number, got '1'"),
        ({"family": "marshall_olkin", "subordinator": {"drift": 0.5, "rate": 1.0}},
         "subordinator.rate is not a field of subordinator"),
        ({"family": "minstable", "kind": "logistic", "theta": 0.5}, "stdf is missing"),
    ], ids=["d_float", "d_bool", "d_string", "d_zero", "mu", "sigma", "rho", "rate", "c", "alpha",
            "drift", "kill", "jump_size", "jump_rate", "subordinator_unknown", "flat_minstable"])
    def test_non_numeric_top_level_scalar_names_it(self, spec, message):
        model = json.dumps({"family": "exch_normal", "d": 3, "rho": 0.3, **spec})
        code, out, err = run(["sample", "--model", model, "--n", "5", "--seed", "1"])
        assert code == 1 and out == ""
        assert message in err

    def test_unknown_family(self):
        code, _, err = run(["check", "--model", '{"family":"nope"}'])
        assert code == 1
        assert "unknown family" in err

    @pytest.mark.parametrize("family", ["marshall_olkin", "geometric"])
    @pytest.mark.parametrize("argv", [["check"], ["eval", "--point", "0.5"],
                                      ["sample", "--n", "5", "--seed", "1"]],
                             ids=["check", "eval", "sample"])
    def test_b_of_dimension_zero_is_refused(self, argv, family):
        model = json.dumps({"family": family, "b": [1.0]})
        code, out, err = run([argv[0], "--model", model, *argv[1:]])
        assert code == 1 and out == ""
        assert "dimension must be at least 1" in err

    @pytest.mark.parametrize("spec", [
        {"family": "binary", "b": [1.0]},
    ], ids=["b"])
    def test_binary_sample_of_dimension_zero_is_refused(self, spec):
        """Its check stays a verdict, pinned as the d0 case in test_seeded_output."""
        code, out, err = run(["sample", "--model", json.dumps(spec), "--n", "5", "--seed", "1"])
        assert code == 1 and out == ""
        assert "dimension must be at least 1" in err


class TestFamilyTable:
    """One rule for every family's top-level fields and dimension."""

    @pytest.mark.parametrize("spec", [
        {"family": "marshall_olkin", "b": [1.0, 0.5, 0.3, 0.2]},
        {"family": "marshall_olkin", "rates": [0.1, 0.2, 0.3]},
        {"family": "geometric", "p": [0.2, 0.1, 0.1, 0.2]},
    ], ids=["mo_b", "mo_rates", "geometric_p"])
    def test_list_sets_the_dimension(self, spec):
        model = json.dumps(spec)
        code, out, err = run(["sample", "--model", model, "--n", "5", "--seed", "1"])
        assert code == 0, err
        assert read_csv(io.StringIO(out)).shape == (5, 3)
        code, out, err = run(["verify", "--model", model, "--n", "4000", "--seed", "1"])
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] is True and len(report["grid"][0]) == 3

    @pytest.mark.parametrize("spec", [
        {"family": "binary", "d": 5, "b": [1.0, 0.5, 0.3]},
        {"family": "exshock", "d": 7, "shocks": [{"kind": "exponential", "rate": 1.0},
                                                 {"kind": "exponential", "rate": 0.5}]},
        {"family": "geometric", "d": 9, "b": [1.0, 0.5, 0.3]},
        {"family": "marshall_olkin", "d": 2, "b": [1.0, 0.5, 0.3, 0.2]},
        {"family": "marshall_olkin", "d": 2, "rates": [0.1, 0.2, 0.3]},
    ], ids=["binary", "exshock", "geometric", "mo_b", "mo_rates"])
    @pytest.mark.parametrize("argv", [["sample", "--n", "5", "--seed", "1"],
                                      ["verify", "--n", "100", "--seed", "1"],
                                      ["eval", "--point", "0.5,0.5"], ["check"]],
                             ids=["sample", "verify", "eval", "check"])
    def test_disagreeing_d_is_refused(self, spec, argv):
        code, out, err = run([argv[0], "--model", json.dumps(spec), *argv[1:]])
        assert code == 1 and out == ""
        assert f"d = {spec['d']} disagrees with" in err

    @pytest.mark.parametrize("spec, given", [
        ({"family": "marshall_olkin", "d": 2, "subordinator": {"drift": 1.0},
          "rates": [5.0, 5.0]}, "subordinator, rates"),
        ({"family": "marshall_olkin", "b": [1.0, 0.5, 0.3], "rates": [0.1, 0.2]}, "b, rates"),
        ({"family": "geometric", "b": [1.0, 0.5, 0.3], "p": [0.5, 0.2, 0.1]}, "b, p"),
        ({"family": "binary", "b": [1.0, 0.5, 0.3], "p": [0.5, 0.2, 0.1]}, "p, b"),
        # a mixing law next to b was sampled while check judged b
        ({"family": "binary", "b": [1.0, 0.9, 0.85], "m": {"family": "beta", "p": 1.0, "q": 9.0}},
         "b, m"),
        ({"family": "binary", "p": [0.5, 0.2, 0.3], "m": {"family": "beta", "p": 2.0, "q": 3.0}},
         "p, m"),
    ], ids=["mo_subordinator_rates", "mo_b_rates", "geometric", "binary", "binary_b_m",
            "binary_p_m"])
    def test_one_parameterisation(self, spec, given):
        code, out, err = run(["sample", "--model", json.dumps(spec), "--n", "5", "--seed", "1"])
        assert code == 1 and out == ""
        assert f"; got {given}" in err

    @pytest.mark.parametrize("spec, message", [
        ({"family": "l1", "d": 2, "m": {"family": "gamma", "shape": 1.0}, "foo": 1, "rate": 5},
         "foo is not a field of family 'l1'; it takes family, d, m"),
        ({"family": "sato", "d": 2, "alpha": 1.0, "rho": "x"},
         "rho is not a field of family 'sato'; it takes family, d, alpha"),
        ({"family": "marshall_olkin", "d": 2, "subordinator": {
            "jumps": [{"size": 1.0, "rate": 1.0, "x": 2}]}},
         "subordinator.jumps[0].x is not a field of subordinator.jumps[0]; it takes size, rate"),
        ({"family": "minstable", "d": 2, "stdf": {"kind": "triplet", "c": 1.0, "atoms": [
            {"g": {"kind": "frechet", "theta": 0.5}, "weight": 1.0, "x": 2}]}},
         "stdf.atoms[0].x is not a field of stdf.atoms[0]; it takes g, weight"),
    ], ids=["l1", "sato", "jump", "atom"])
    def test_unknown_field_is_refused(self, spec, message):
        code, out, err = run(["sample", "--model", json.dumps(spec), "--n", "5", "--seed", "1"])
        assert code == 1 and out == ""
        assert message in err

    def test_minstable_term_tol_is_ignored(self):
        spec = {"family": "minstable", "d": 2, "stdf": {"kind": "independence"}}
        outs = [run(["sample", "--model", json.dumps(s), "--n", "5", "--seed", "1"])
                for s in (spec, {**spec, "term_tol": 1e-8})]
        assert outs[0][0] == 0 and outs[0] == outs[1]


FAMILY_MODULES = {"diagnostics", "extreme_value", "lack_of_memory", "mixing", "mixtures",
                   "moments", "shock_models"}


@pytest.mark.parametrize("command, loaded", [
    (None, set()),
    (["check", "--model", '{"family":"binary","b":[1.0,0.5,0.3]}'], {"moments", "mixing"}),
    (["diagnose", "{csv}"], {"diagnostics"}),
    (["check", "--model", '{"family":"geometric","b":[1.0,0.5,0.3]}'],
     {"lack_of_memory", "mixing", "moments"}),
    (["sample", "--model", '{"family":"sato","d":2,"alpha":1.05}', "--n", "5", "--seed", "1"],
     {"lack_of_memory", "mixing", "moments", "shock_models"}),
], ids=["import", "check_binary", "diagnose", "check_geometric", "sample_sato"])
def test_cli_loads_only_the_modules_a_command_uses(command, loaded, tmp_path):
    """``import condiid.cli`` loads no family module and no scipy; a command
    loads the family modules it uses and no other."""
    csv = tmp_path / "x.csv"
    csv.write_text("x1,x2\n0.1,0.2\n0.3,0.1\n0.5,0.7\n")
    argv = [str(csv) if a == "{csv}" else a for a in command or ()]
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import condiid.cli\n"
        f"if {argv!r}:\n"
        f"    with redirect_stdout(io.StringIO()):\n"
        f"        assert condiid.cli.main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    modules = json.loads(out.stdout)
    family = {m.removeprefix("condiid.") for m in modules} & FAMILY_MODULES
    assert family == loaded
    if command is None:
        assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("argv, loaded", [
    (None, False),
    (["sample", "--model", L1_D2, "--n", "5", "--seed", "1"], False),
    (["eval", "--model", '{"family":"exch_normal","d":3,"rho":0.4}', "--point", "0,0.5,1",
      "--kind", "cdf"], True),
], ids=["import_mixtures", "sample_l1", "eval_exch_normal_cdf"])
def test_gauss_hermite_rule_loads_with_the_normal_cdf_only(argv, loaded):
    """``numpy.polynomial``, which builds the Gauss-Hermite rule of the
    exch_normal cdf, loads with its first evaluation, not with ``mixtures``."""
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import condiid.cli, condiid.mixtures\n"
        f"if {argv!r}:\n"
        f"    with redirect_stdout(io.StringIO()):\n"
        f"        assert condiid.cli.main({argv!r}) == 0\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout == f"{loaded}\n"


@pytest.mark.parametrize("alpha", [1.0, 0.2, 0.1])
def test_linf_marginal_quantile_is_the_least_double_of_its_level(alpha):
    """The q-quantile is the least x with P(X_1 > x) <= 1 - q.  For a
    Pareto(alpha) M the survival is 1 - x alpha / (alpha + 1) below the kink
    at 1 and x^-alpha / (alpha + 1) above it, so the 0.9-quantile of
    Pareto(0.1) is 3.9e9, where a survival on the exp-sinh nodes x + X was
    off by 5e-5."""
    from condiid.mixtures import linf_ciid_survival
    from condiid.mixing import Pareto

    model = cli.build_model({"family": "linf", "d": 2, "m": {"family": "pareto", "alpha": alpha}})
    survival = lambda x: linf_ciid_survival(Pareto(alpha), [x])
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        below_kink = q * (alpha + 1.0) / alpha
        exact = below_kink if below_kink < 1.0 else ((1.0 - q) * (alpha + 1.0)) ** (-1.0 / alpha)
        x = model.marginal_ppf(q)
        assert x == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert survival(x) <= 1.0 - q < survival(math.nextafter(x, 0.0))


def test_linf_verify_needs_no_scipy_integrate():
    """``verify`` of an linf model evaluates its survival function and the
    quantiles of its grid with the double-exponential rule of ``mixing``: in a
    fresh interpreter it passes and leaves ``scipy.integrate`` unloaded."""
    argv = ["verify", "--model", '{"family":"linf","d":5,"m":{"family":"gamma","shape":2.0}}',
            "--n", "20000", "--seed", "1"]
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import condiid.cli\n"
        "out = io.StringIO()\n"
        "with redirect_stdout(out):\n"
        f"    assert condiid.cli.main({argv!r}) == 0\n"
        "print(json.dumps([json.loads(out.getvalue())['passed'], 'scipy.integrate' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == [True, False]


def test_exch_normal_needs_no_scipy_stats():
    """``eval`` and ``verify`` of an exch_normal model take the normal cdf and
    quantiles from ``scipy.special``: in a fresh interpreter no ``scipy.stats``
    module loads."""
    model = '{"family":"exch_normal","d":3,"mu":0.3,"sigma":1.2,"rho":0.4}'
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import condiid.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    assert condiid.cli.main(['eval', '--model', {model!r}, '--point', '0,0.5,1',\n"
        "                             '--kind', 'cdf']) == 0\n"
        f"    assert condiid.cli.main(['verify', '--model', {model!r}, '--n', '2000',\n"
        "                             '--seed', '1']) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy.stats')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == []


def test_binary_of_a_mixing_law_computes_no_moments():
    """``sample`` and ``check`` of a binary model given a Beta mixing law draw
    M and call it extendible by construction: in a fresh interpreter no
    ``scipy`` module loads, as the Beta moments would load ``scipy.special``."""
    model = '{"family":"binary","d":3,"m":{"family":"beta","p":2,"q":3}}'
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import condiid.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    assert condiid.cli.main(['sample', '--model', {model!r}, '--n', '1000',\n"
        "                             '--seed', '1']) == 0\n"
        f"    assert condiid.cli.main(['check', '--model', {model!r}]) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == []


@pytest.mark.parametrize("d", [28, 30, 40])
def test_subordinator_mo_at_large_d(d):
    """The death-chain sampler is exact at any d: sample, eval and verify
    run, and check calls the model extendible by its construction, where the
    numeric test of its rounded b would refuse it."""
    model = json.dumps({"family": "marshall_olkin", "d": d, "subordinator": {
        "drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}})
    code, out, _ = run(["sample", "--model", model, "--n", "5", "--seed", "1"])
    assert code == 0 and len(out.splitlines()) == 1 + 5  # header and rows
    code, out, _ = run(["eval", "--model", model, "--point", ",".join(["0.5"] * d)])
    assert code == 0 and 0.0 < float(out) < 1.0
    code, out, _ = run(["verify", "--model", model, "--n", "4000", "--seed", "1"])
    assert code == 0 and json.loads(out.splitlines()[-1])["passed"] is True
    code, out, _ = run(["check", "--model", model])
    assert code == 0 and out == 'extendible\n{"by_construction": "subordinator", "extendible": true}\n'


ATOM_AT_0 = {"family": "finite_discrete", "atoms": [0.0, 1.0], "weights": [0.5, 0.5]}


def test_a_law_with_an_atom_at_0_is_no_archimedean_generator():
    """phi(inf) = P(M = 0) = 0.5: every archimedean command and the copula of
    l1 refuse the law by one message, where ``eval`` printed 0 at (0.4, 1);
    l1's survival, sample and verify take it, with X = inf where M = 0."""
    message = ("error: FiniteDiscrete(atoms=[0.0, 1.0], weights=[0.5, 0.5]) has P(M = 0) = "
               "phi(inf) = 0.5 > 0: its Laplace transform is no Archimedean generator\n")
    archimedean = json.dumps({"family": "archimedean", "d": 2, "m": ATOM_AT_0})
    l1 = json.dumps({"family": "l1", "d": 2, "m": ATOM_AT_0})
    copula = ["--kind", "copula", "--point", "0.4,1"]
    for argv in (["sample", "--model", archimedean, "--n", "5", "--seed", "1"],
                 ["eval", "--model", archimedean, *copula],
                 ["verify", "--model", archimedean, "--n", "2000", "--seed", "1"],
                 ["eval", "--model", l1, *copula]):
        assert run(argv) == (1, "", message)
    assert run(["eval", "--model", l1, "--point", "1e300,1e300"]) == (0, "0.5\n", "")
    code, out, _ = run(["sample", "--model", l1, "--n", "200", "--seed", "1"])
    assert code == 0 and "inf,inf" in out.splitlines()
    code, out, _ = run(["verify", "--model", l1, "--n", "20000", "--seed", "1"])
    assert code == 0 and json.loads(out.splitlines()[-1])["passed"] is True


@pytest.mark.parametrize("family", ["l1", "linf"])
def test_a_mixing_draw_below_the_least_double_is_sampled_as_drawn(family, tmp_path):
    """standard_gamma(0.01) returns 0.0 for 57 of 1e5 draws at seed 1, values
    below the least double: X = E / M is then inf for l1 and X = M U is 0
    for linf, as their survival functions have it, where both refused."""
    model = json.dumps({"family": family, "d": 2, "m": {"family": "gamma", "shape": 0.01}})
    path = tmp_path / "s.csv"
    argv = ["--model", model, "--n", "100000", "--seed", "1"]
    assert run(["sample", *argv, "--out", str(path)]) == (0, "", "")
    data = read_csv(path)
    at_0 = np.random.default_rng(1).standard_gamma(0.01, 100000) == 0.0
    assert at_0.sum() == 57
    assert (data[at_0] == (math.inf if family == "l1" else 0.0)).all()
    code, out, _ = run(["verify", *argv])
    assert code == 0 and json.loads(out.splitlines()[-1])["passed"] is True


def test_archimedean_refuses_a_draw_whose_generator_value_is_lost():
    """U = phi(E / M) cannot be kept where E / M overflows to inf."""
    model = json.dumps({"family": "archimedean", "d": 2, "m": {"family": "gamma", "shape": 0.01}})
    code, out, err = run(["sample", "--model", model, "--n", "100000", "--seed", "1"])
    assert (code, out) == (1, "")
    assert "drew an M so small that E / M overflows" in err
