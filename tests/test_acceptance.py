"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest -s tests/test_acceptance.py -v``.

Every criterion pins its sample size, seed and tolerance; statistical
comparisons use three Monte Carlo standard errors plus an absolute floor of
1e-3 unless the criterion states a tighter deterministic tolerance.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import additive_oracle as oracle
import first_passage_oracle as fp
from condiid import cli, diagnostics as dg, extreme_value as ev
from condiid import lack_of_memory as lom, mixtures as mx, moments as mo, shock_models as sk
from condiid.mixing import Beta, Gamma, Pareto, PointMass

N = 100000


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def cli_check_extendible(eps: float) -> bool:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["check", "--model", json.dumps({"family": "binary", "b": [1.0, 0.5, eps]})])
    assert code == 0
    return buf.getvalue().startswith("extendible")


def test_c01_hankel_boundary():
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if cli_check_extendible(mid):
            hi = mid
        else:
            lo = mid
    boundary = 0.5 * (lo + hi)
    # spot-check the verdicts straddling the located boundary through the CLI
    ok = (
        abs(boundary - 0.25) < 1e-6
        and not cli_check_extendible(0.25 - 1e-4)
        and cli_check_extendible(0.25 + 1e-4)
    )
    report(1, "extendibility flips at eps = 1/4", ok, f"(bisected boundary {boundary:.8f})")


def test_c02_binary_equivalence():
    rng = np.random.default_rng(201)
    d = 3
    urn = mo.sample_polya_urn(1, 1, d, N, rng)
    mix = mo.sample_binary_mixture(Beta(1, 1), d, N, rng)
    law = mo.p_from_b((1.0, 0.5, 1.0 / 3.0, 0.25))
    weights = 2 ** np.arange(d)
    urn_freq = np.bincount((urn.data @ weights).astype(int), minlength=8) / N
    mix_freq = np.bincount((mix.data @ weights).astype(int), minlength=8) / N
    ok = True
    detail = []
    for code in range(8):
        k = bin(code).count("1")
        expect = law.p[k]
        se_pair = math.sqrt(
            (urn_freq[code] * (1 - urn_freq[code]) + mix_freq[code] * (1 - mix_freq[code])) / N
        )
        if abs(urn_freq[code] - mix_freq[code]) > 3 * se_pair + 1e-3:
            ok = False
            detail.append(f"pattern {code}: urn vs mixture")
        for freq in (urn_freq[code], mix_freq[code]):
            se = math.sqrt(expect * (1 - expect) / N)
            if abs(freq - expect) > 3 * se + 1e-3:
                ok = False
                detail.append(f"pattern {code}: vs closed form")
    report(2, "urn scheme == Beta(1,1) mixture == inverse differences", ok, "; ".join(detail))


def test_c03_l1_oracle():
    rng = np.random.default_rng(202)
    law = Gamma(1.0)
    d = 3
    sm = mx.sample_l1_ciid(law, d, N, rng)
    emp = (sm.data > 1.0).all(axis=1).mean()
    closed = 0.25  # (1 + 3)^-1
    se = math.sqrt(closed * (1 - closed) / N)
    ok = abs(emp - closed) <= 3 * se
    us = np.asarray(law.laplace(sm.data))
    for u in ([0.5, 0.5, 0.5], [0.25, 0.5, 0.75], [0.9, 0.9, 0.9], [0.1, 0.9, 0.5], [0.3, 0.3, 0.8]):
        cop = mx.archimedean_copula_eval(law, u)
        emp_c = (us <= np.asarray(u)).all(axis=1).mean()
        se_c = math.sqrt(max(cop * (1 - cop), 1e-12) / N)
        ok = ok and abs(emp_c - cop) <= 3 * se_c + 1e-3
    report(3, "l1 mixture survival and Archimedean copula match", ok,
           f"(survival {emp:.4f} vs 0.25)")


def test_c04_marshall_olkin_two_samplers():
    # the death chain against the path stepped across its barriers, which
    # uses neither lack of memory nor the subset rates, and the closed form
    rng = np.random.default_rng(213)
    sub = lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5), (2.5, 0.25)))
    params = lom.exponents(sub.subset_rates(3)[1:])
    chain = lom.sample_mo_ciid(sub, 3, N, rng)
    passage = fp.sample_mo_first_passage(sub, 3, N, rng)
    grid = dg.default_quantile_grid(lambda q: -math.log1p(-q) / params[0], 3)
    ok = True
    for pt in grid:
        p1 = (chain.data > pt).all(axis=1).mean()
        p2 = (passage.data > pt).all(axis=1).mean()
        closed = float(lom.mo_survival(params, pt))
        se_pair = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / N)
        se = math.sqrt(max(closed * (1 - closed), 1e-12) / N)
        ok = ok and abs(p1 - p2) <= 3 * se_pair + 1e-3
        ok = ok and abs(p1 - closed) <= 3 * se + 1e-3
        ok = ok and abs(p2 - closed) <= 3 * se + 1e-3
    report(4, "death-chain and first-passage constructions agree with the closed form", ok)


def test_c05_minstable():
    rng = np.random.default_rng(204)
    theta = 0.5
    direct = ev.sample_logistic_direct(theta, 1.0, 2, N, rng)
    emp = (direct.data > 1.0).all(axis=1).mean()
    closed = math.exp(-math.sqrt(2.0))  # 0.2431...
    se = math.sqrt(closed * (1 - closed) / N)
    ok = abs(emp - closed) <= 3 * se

    spec = ev.logistic(theta)
    for x in ([1.0, 1.0], [0.4, 1.3], [2.0, 0.1]):
        sf = ev.minstable_survival(spec, 1.0, x)
        ok = ok and abs(sf**2 - ev.minstable_survival(spec, 1.0, 2 * np.asarray(x))) <= 1e-12

    # extremal functions against the positive-stable mixture: two exact,
    # independent constructions of the same law
    n_series = 10000
    series = ev.sample_minstable(ev.Triplet(0.0, 1.0, [(ev.Frechet(theta), 1.0)]), 2, n_series, rng)
    ok = ok and "tail_bound" not in series.meta
    for pt in ([0.3, 0.3], [1.0, 1.0], [0.5, 1.5], [2.0, 0.2], [0.8, 0.8]):
        pt = np.asarray(pt)
        p1 = (series.data > pt).all(axis=1).mean()
        p2 = (direct.data > pt).all(axis=1).mean()
        se_pair = math.sqrt(p1 * (1 - p1) / n_series + p2 * (1 - p2) / N)
        ok = ok and abs(p1 - p2) <= 3 * se_pair + 1e-3
    report(5, "logistic sampler, min-stability identity, extremal-functions cross-check", ok,
           f"(survival {emp:.4f} vs {closed:.4f})")


def test_c06_dirichlet_prior():
    rng = np.random.default_rng(205)
    c, d = 1.0, 3
    base = sk.UniformBase()
    sm = sk.sample_dp(c, base, d, N, rng)
    grid = dg.default_quantile_grid(base.ppf, d)
    ok = True
    for pt in grid:
        emp = (sm.data > pt).all(axis=1).mean()
        closed = sk.dp_survival(c, base, pt)
        se = math.sqrt(max(closed * (1 - closed), 1e-12) / N)
        ok = ok and abs(emp - closed) <= 3 * se + 1e-3
    point = (sm.data[:, :2] <= 0.5).all(axis=1).mean()
    se = math.sqrt(0.375 * 0.625 / N)
    ok = ok and abs(point - 0.375) <= 3 * se + 1e-3
    report(6, "urn-scheme sampler matches the ordered-product copula", ok,
           f"(corner value {point:.4f} vs 0.375)")


def test_c07_sato_frailty():
    rng = np.random.default_rng(206)
    alpha = 1.0
    sm = sk.sample_sato(alpha, 2, N, rng)
    ok = True
    for pt in ([0.25, 0.25], [0.5, 0.5], [1.0, 1.0], [1.0, 0.3], [3.0, 3.0]):
        pt = np.asarray(pt)
        emp = (sm.data > pt).all(axis=1).mean()
        closed = float(sk.sato_survival(alpha, pt))
        se = math.sqrt(closed * (1 - closed) / N)
        ok = ok and abs(emp - closed) <= 3 * se + 1e-3
    psi = oracle.sato(alpha)
    rng2 = np.random.default_rng(1)
    for _ in range(20):
        pt = rng2.exponential(1.0, 2)
        ok = ok and abs(sk.sato_survival(alpha, pt) - oracle.additive_survival(psi, pt)) <= 1e-12
    report(7, "exact Sato death-chain sampler reproduces the self-similar closed form", ok)


def test_c08_scarsini_counterexample():
    rng = np.random.default_rng(207)
    sm = dg.scarsini_sample(N, rng)
    emp = (sm.data <= np.array([0.25, 0.75])).all(axis=1).mean()
    ok = abs(emp - 0.125) <= 0.005
    se = math.sqrt(emp * (1 - emp) / N)
    ok = ok and (0.1875 - emp) > 5 * se
    tau = dg.empirical_kendall_tau(sm.data)
    ok = ok and abs(tau) <= 0.01
    report(8, "lower-orthant-dependency violation reproduced", ok,
           f"(P = {emp:.4f} vs product 0.1875, tau = {tau:.4f})")


def test_c09_necessary_condition_sweep():
    rng = np.random.default_rng(208)
    n = N

    def series_sampler(k, r):
        return ev.sample_minstable(
            ev.Triplet(0.3, 1.0, [(ev.MOAtom(PointMass(1.2)), 1.0)]), 2, 10000, r
        )

    families = {
        "exch_normal": lambda k, r: mx.sample_exch_normal(0.0, 1.0, 0.5, k, n, r),
        "spherical": lambda k, r: mx.sample_spherical_ciid(Gamma(2.0), k, n, r),
        "l1": lambda k, r: mx.sample_l1_ciid(Gamma(1.0), k, n, r),
        "linf": lambda k, r: mx.sample_linf_ciid(Pareto(3.0), k, n, r),
        "binary": lambda k, r: mo.sample_binary_mixture(Beta(2, 3), k, n, r),
        "polya": lambda k, r: mo.sample_polya_urn(2, 3, k, n, r),
        "mo_shocks": lambda k, r: lom.sample_mo_shocks(
            lom.ShockRateSpec(d=k, cardinality=(0.3,) * k), k, n, r
        ),
        "mo_ciid": lambda k, r: lom.sample_mo_ciid(
            lom.CompoundPoissonSubordinatorSpec(drift=0.3, jumps=((1.0, 0.5),)), k, n, r
        ),
        "geo_ciid": lambda k, r: fp.sample_geo_ciid(Gamma(1.0), k, n, r),
        "logistic": lambda k, r: ev.sample_logistic_direct(0.5, 1.0, k, n, r),
        "minstable_series": series_sampler,
        "dirichlet_prior": lambda k, r: sk.sample_dp(1.0, sk.UniformBase(), k, n, r),
        "sato": lambda k, r: sk.sample_sato(1.0, k, n, r),
        "scarsini": lambda k, r: dg.scarsini_sample(n, r),
    }
    failures = []
    for name, sampler in families.items():
        sm = sampler(2, rng)
        data = sm.data
        finite = data[np.isfinite(data).all(axis=1)]
        rows = finite.shape[0]
        tau = dg.empirical_kendall_tau(finite[:, :2])
        if tau < -3 * dg.kendall_tau_null_stderr(rows):
            failures.append(f"{name}: tau {tau:.4f}")
        corr = np.corrcoef(finite[:, 0], finite[:, 1])[0, 1]
        if corr < -3.0 / math.sqrt(rows):
            failures.append(f"{name}: corr {corr:.4f}")
        med = float(np.median(finite[:, 0]))
        # the marginal cdf at the median point, pooled over both columns
        # (for discrete laws this is not 1/2)
        p_hat = float((finite <= med).mean())
        if not dg.majorization_check(finite, med, p_hat):
            failures.append(f"{name}: majorization")
    report(9, "positive-dependence conditions across all one-factor samplers",
           not failures, "; ".join(failures))


def test_c10_glivenko_cantelli():
    d = 10000
    sm = mx.sample_linf_ciid(Pareto(2.0), d, 1, np.random.default_rng(209))
    # the row's mixing level is the sampler's first draw from the same seed
    m0 = float(Pareto(2.0).sample(1, np.random.default_rng(209))[0])
    e = dg.empirical_H(sm.data[0])
    dist = e.sup_distance(lambda t: np.clip(np.asarray(t, dtype=float) / m0, 0.0, 1.0))
    ok = dist < 0.03
    report(10, "one long exchangeable row recovers its mixing level", ok,
           f"(sup distance {dist:.4f} with M = {m0:.3f})")
