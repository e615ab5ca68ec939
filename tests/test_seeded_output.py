"""Seeded ``condiid sample`` output and ``condiid check`` output, pinned byte
for byte.

One model per sampler.  Each hash is the sha256 of the CSV that
``condiid sample --model SPEC --n 200 --seed 1`` prints.  Each ``verify`` hash
is the sha256 of the report of ``condiid verify --model SPEC --n 2000 --seed 1``
for a min-stable model at d = 3, or of ``--n 40000`` for a vectorized sampler,
whose count then spans more than one block of rows.  Each ``check`` hash
is the sha256 of what ``condiid check --model SPEC`` prints: the verdict line
and the JSON with the Hankel determinants.  Each ``diagnose`` hash is the
sha256 of the JSON report of ``condiid diagnose`` on a seeded sample CSV.  A change that moves any of these
bytes says so in CHANGES.md and updates the hash here.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest

from condiid import cli


def beta_b(a, b, d, mix=None):
    """The doubles nearest to the moments of Beta(a, b), or of its mixture
    (1 - w) Beta(a, b) + w "exactly d/2 ones of d" for ``mix = w``."""
    out, m = [], Fraction(1)
    for k in range(d + 1):
        if mix is None:
            out.append(float(m))
        else:
            half = Fraction(math.comb(d - k, d // 2 - k), math.comb(d, d // 2)) if 2 * k <= d else 0
            out.append(float((1 - mix) * m + mix * half))
        m *= (a + k) / (a + b + k)
    return out


SUBORDINATOR = {"drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}


def subordinator_b(d):
    """b_k = exp(-psi(k)) of ``SUBORDINATOR``, log-d-monotone and d-monotone."""
    return [1.0] + [math.exp(-(0.4 * k + 0.1 - math.expm1(-0.65 * k))) for k in range(1, d + 1)]


def polya_p(a, b, d):
    """The doubles nearest to the pattern probabilities of the Beta(a, b) mixture."""
    num = [Fraction(1)] * (d + 1)
    for k in range(d + 1):
        for i in range(k):
            num[k] *= a + i
        for i in range(d - k):
            num[k] *= b + i
    den = math.prod(a + b + i for i in range(d))
    return [float(v / den) for v in num]


MODELS = {  # name: (model spec, sha256 of the sample CSV)
    "exch_normal": (
        {"family": "exch_normal", "d": 5, "mu": 0.3, "sigma": 1.2, "rho": 0.4},
        "cd7d33398acd15504d4a127ccf0645832ff2bafa719ae2193b10f9c90ee8a6d5",
    ),
    "l1": (
        {"family": "l1", "d": 5, "m": {"family": "gamma", "shape": 1.5}},
        "71a1a447b1e9b02590a1c7d7caf31a64cb3e6b9bbb125fddc24f7fa64f1e68fc",
    ),
    "linf": (
        {"family": "linf", "d": 5, "m": {"family": "pareto", "alpha": 2.5}},
        "3ef9e123c985e0ffd9ea02ec82975de293bb7e62fff3201028e8360cf152c714",
    ),
    "minstable_logistic": (
        {"family": "minstable", "d": 5, "rate": 1.2, "stdf": {"kind": "logistic", "theta": 0.5}},
        "de452f8de301935a94b77db1796ac6c79727c394ce329dc5186ac9dc3b190b1e",
    ),
    "dirichlet_prior": (
        {"family": "dirichlet_prior", "d": 5, "c": 2.0},
        "b404728cb6760d9db565833c281cd52a47444e75ba17259074ff61284c4d1132",
    ),
    "marshall_olkin": (
        {"family": "marshall_olkin", "d": 5, "rates": [0.1, 0.2, 0.05, 0.3, 0.15]},
        "b697b5eb63a7eae22c2a0f2af3ae019bc432616904f6cbe1dd5974555e68fdfd",
    ),
    "geometric": (
        {"family": "geometric", "d": 3, "p": [0.1, 0.1, 0.1, 0.3]},
        "de6a07089a2ad8c13af8b1d57c2771a459943f21e0cd47ab16614e20793885d9",
    ),
    "lf_frechet": (
        {"family": "minstable", "d": 2, "term_tol": 1e-08,
         "stdf": {"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}}},
        "2387f86da6c775db63efb530ff3f90816892bd1c664710762716893adca9d290",
    ),
    "triplet_weibull": (
        {"family": "minstable", "d": 3, "stdf": {"kind": "triplet", "b": 0.2, "c": 1.0, "atoms": [
            {"g": {"kind": "weibull", "theta": 0.5}, "weight": 1.0}]}},
        "dd9f25d539680abcb09720fcf1492ff8f53fcc572458f372f27540caf4fc5c04",
    ),
    "triplet_mo_atom": (
        {"family": "minstable", "d": 3, "stdf": {"kind": "triplet", "b": 0.2, "c": 1.0, "atoms": [
            {"g": {"kind": "mo_atom", "m": 0.5}, "weight": 1.0}]}},
        "1dcce4caffa1aca404906374546d2badc460c48dd0edcd48d3739df40393793a",
    ),
    "exshock": (
        {"family": "exshock", "shocks": [
            {"kind": "exponential", "rate": 0.5}, {"kind": "weibull", "shape": 2.0},
            {"kind": "step", "points": [1.0], "values": [0.5]}]},
        "5a20bc0cdb1a564940dc48a90eb6d994f4eeeeca4a7a67de8912f87dfaf4ac2b",
    ),
    "mo_subordinator": (
        {"family": "marshall_olkin", "d": 5, "subordinator": SUBORDINATOR},
        "d83774d73d70015b51131bbb0168a5e0bd661b51e8ffe7d8cdd8a6df6aad8511",
    ),
    "sato": (
        {"family": "sato", "d": 3, "alpha": 1.05},
        "eb9767f7f8e9bd6baa6b59c2c01493eef51d6e4a9a1b00a7ba3f7679d3c2ad4f",
    ),
    "marshall_olkin_b": (  # rates from the exponents of b, then the shock sampler
        {"family": "marshall_olkin", "d": 6, "b": subordinator_b(6)},
        "86f662c13a93dde5b75686f50d36ba56e787a0cc02ba2bfb8b5bc81b59a14db6",
    ),
    "geometric_b": (  # p_from_b_geo, then the shock sampler
        {"family": "geometric", "d": 8, "b": beta_b(Fraction(1, 2), Fraction(3, 2), 8)},
        "025d4cd818f4719f39d9e5592bf293c5b5990e3e503f9ed58589af13aa30dd36",
    ),
}


def stdout_sha256(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_seeded_sample_bytes(name):
    spec, digest = MODELS[name]
    assert stdout_sha256(["sample", "--model", json.dumps(spec), "--n", "200", "--seed", "1"]) == digest


STDFS = {  # name: (min-stable stdf, sha256 of its verify report, eval --kind stdf at 0.3,0.7,1.1)
    "independence": (
        {"kind": "independence"},
        "f6e6990590e894ef3abe9c956f7ab74f000f54527e6857d591313bafa0683a98", "2.1",
    ),
    "logistic_0.5": (
        {"kind": "logistic", "theta": 0.5},
        "5433d65f2e1fdeefc3304cefd65fcc4f5f72f6b345934fe48be63299e1788c0e", "1.33790881603",
    ),
    "logistic_1": (  # theta = 1 is independence, sampled as such
        {"kind": "logistic", "theta": 1.0},
        "f6e6990590e894ef3abe9c956f7ab74f000f54527e6857d591313bafa0683a98", "2.1",
    ),
    "negative_logistic_1.5": (
        {"kind": "negative_logistic", "theta": 1.5},
        "fc293f206a7f6822355eba281524d044ce2ecec9804ecf3561236c7c06af8f14", "1.2758181659",
    ),
    "lf_frechet_0.5": (
        {"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}},
        "0a76711ce39a8b457eb9b92d62c790861a19e800074d2b2d7c78f1d950f20c3d", "1.33790881603",
    ),
    "triplet_weibull": (
        MODELS["triplet_weibull"][0]["stdf"],
        "4cba3ecc906bdd37b7b4788c48d087fc0d9e9b6b495ca940439d4193993b12e7", "1.35977684033",
    ),
    "triplet_mo_atom": (
        MODELS["triplet_mo_atom"][0]["stdf"],
        "219e91fbab0e71a89895f96f5062315e5ae8a87549274d98069a352da8b54abf", "1.71244607846",
    ),
}


@pytest.mark.parametrize("name", sorted(STDFS))
def test_minstable_verify_bytes(name):
    stdf, digest, _ = STDFS[name]
    model = json.dumps({"family": "minstable", "d": 3, "stdf": stdf})
    assert stdout_sha256(["verify", "--model", model, "--n", "2000", "--seed", "1"]) == digest


@pytest.mark.parametrize("name", sorted(STDFS))
def test_minstable_stdf_value(name):
    stdf, _, value = STDFS[name]
    model = json.dumps({"family": "minstable", "d": 3, "stdf": stdf})
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["eval", "--model", model, "--kind", "stdf", "--point", "0.3,0.7,1.1"]) == 0
    assert out.getvalue() == value + "\n"


LARGE_VERIFIES = {  # model name: sha256 of its verify report at --n 40000 --seed 1
    "l1": ({"family": "l1", "d": 5, "m": {"family": "gamma", "shape": 2.0}},
           "1055e1dde2a22895cc1e685ea69537fb3907295eb05752bc3b8af3191f999250"),
    "exch_normal": (MODELS["exch_normal"][0],  # cdf mode
                    "3f7daa0f070e871af5ebb86b8104234dd2b5ccd4f421bfaa1d032a8cf56dc26b"),
}


@pytest.mark.parametrize("name", sorted(LARGE_VERIFIES))
def test_large_verify_bytes(name):
    spec, digest = LARGE_VERIFIES[name]
    argv = ["verify", "--model", json.dumps(spec), "--n", "40000", "--seed", "1"]
    assert stdout_sha256(argv) == digest


DIAGNOSES = {  # model name: sha256 of the diagnose output of its seeded 1000-row CSV
    "marshall_olkin": "f3876f7355cb6ca355eb8152953d531d2b7e37a2c81e8da5cfa7c51733e8e8fe",
    "geometric": "e9710f18f29be66a78ec316d9e4ca6ade2425c580ee6e9df972b2ed1774e0fcf",
    "dirichlet_prior": "b363b03df19fe6a7976924ffdaf0cb0cad45579eaf96e184e0f97d453d129db3",
    "exch_normal": "5b1a74ad97e4db4536afd7f764a3034a5eec075dd58b94015ceba15d8131470b",
}


@pytest.mark.parametrize("name", sorted(DIAGNOSES))
def test_diagnose_output_bytes(name, tmp_path):
    path = str(tmp_path / f"{name}.csv")
    spec = json.dumps(MODELS[name][0])
    stdout_sha256(["sample", "--model", spec, "--n", "1000", "--seed", "1", "--out", path])
    tests = "kendall,majorization,radial,ties"
    assert stdout_sha256(["diagnose", path, "--tests", tests]) == DIAGNOSES[name]


CHECKS = {  # name: (model spec, sha256 of the check output)
    "beta23_d2": (
        {"family": "binary", "b": beta_b(Fraction(2), Fraction(3), 2)},
        "de3dc80a9db555da22feaef86cff3316c41ddb5d26d0f0da517bbe8f230a2f61",
    ),
    "beta23_d16": (
        {"family": "binary", "b": beta_b(Fraction(2), Fraction(3), 16)},
        "fadb67b9ad65106371489f3751d4cf46c1f7228f60e6536d0e026a588a64d0b6",
    ),
    "beta23_d40": (
        {"family": "binary", "b": beta_b(Fraction(2), Fraction(3), 40)},
        "de94e25382ee248e2f2e5e4922527e2549405d20f154a760d627c8737c88ba6c",
    ),
    "beta23_half_ones_d12": (
        {"family": "binary", "b": beta_b(Fraction(2), Fraction(3), 12, mix=Fraction(1, 100))},
        "ce95a2b05a972fe3e51cd9644b249bec9dda3e114119f78b8e61eac1623a228a",
    ),
    "point_mass": (
        {"family": "binary", "b": [float(Fraction(3, 10) ** k) for k in range(7)]},
        "f99d37d4e837b4b10c400d1a33795b6fcc51ff0b3eb47b461c711a3e9a2f215b",
    ),
    "not_extendible": (
        {"family": "binary", "b": [1.0, 0.5, 0.2]},
        "de701163edde8637e4f49b1acdb25f2e953a3d1e887b0ec89cb0d7d08df9318d",
    ),
    "d0": (
        {"family": "binary", "b": [1.0]},
        "ea7727ef447687c4600df5f020702acd31a852da5dfd825a006052c035bf2305",
    ),
    "mo_subordinator_d8": (
        {"family": "marshall_olkin", "d": 8, "subordinator": SUBORDINATOR},
        "a0219c8740e0a93047976e1846503ad3f0e1045acef8cae64a40719f8b238a29",
    ),
    "geometric_b_d8": (
        {"family": "geometric", "b": beta_b(Fraction(1, 2), Fraction(3, 2), 8)},
        "72b17d05d87a8ca8cf3356488556e1281112c341c112cd69f45f1acc0a62abb8",
    ),
    "mo_subordinator_d16": (
        {"family": "marshall_olkin", "d": 16, "subordinator": SUBORDINATOR},
        "a0219c8740e0a93047976e1846503ad3f0e1045acef8cae64a40719f8b238a29",
    ),
    "geometric_b_d16": (
        {"family": "geometric", "d": 16, "b": subordinator_b(16)},
        "2da3821df85e1b5b1fd9684e0513f646430e62736a14a5266214d29b8d374678",
    ),
    "binary_p_d6": (
        {"family": "binary", "p": polya_p(Fraction(2), Fraction(3), 6)},
        "e2edc4caa2bcc9e5a4fda7093ed1112b2d1e80e32a914e4156f28ace9728b5f8",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_output_bytes(name):
    spec, digest = CHECKS[name]
    assert stdout_sha256(["check", "--model", json.dumps(spec)]) == digest


# numpy's AVX-512 loops of vector power, exp, expm1 and log1p round some values
# otherwise than its AVX2 and baseline loops: Pareto.sample takes a vector power
# (linf), and sample_sato vector exp, expm1 and log1p (sato).
DISPATCH_DEPENDENT_PINS = {"test_seeded_sample_bytes[linf]", "test_seeded_sample_bytes[sato]"}


def test_pins_without_avx512_fail_only_where_known(tmp_path):
    """The pins of this file rerun with numpy's AVX-512 dispatch switched off
    fail exactly at the known dispatch-dependent ones, so a new pin that
    depends on the dispatch, or a mend of one of these two, shows here."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy >= 2
    if not umath.__cpu_features__.get("AVX512_SKX"):
        pytest.skip("numpy dispatches no AVX-512 loops on this CPU")
    root = Path(__file__).resolve().parents[1]
    here = Path(__file__).resolve().relative_to(root).as_posix()
    report = tmp_path / "pins.xml"
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", here,
                    "--deselect", f"{here}::{test_pins_without_avx512_fail_only_where_known.__name__}",
                    f"--junitxml={report}"],
                   cwd=root, env=env, capture_output=True, timeout=600)
    cases = ElementTree.parse(report).getroot().iter("testcase")
    outcome = {case.get("name"): [child.tag for child in case] for case in cases}
    failed = {name for name, tags in outcome.items() if tags}
    assert failed == DISPATCH_DEPENDENT_PINS
    assert all(outcome[name] == ["failure"] for name in failed)
    assert len(outcome) > len(failed)
