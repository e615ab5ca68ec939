import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condiid import mixing
from condiid.errors import SpecValidationError, UnsupportedLawError


LAWS = [
    mixing.PointMass(0.7),
    mixing.FiniteDiscrete([0.5, 2.0], [0.3, 0.7]),
    mixing.Gamma(1.8),
    mixing.Beta(2.0, 3.0),
    mixing.Pareto(2.5),
    mixing.PositiveStable(0.6),
    mixing.LogSeries(1.5),
]


@pytest.mark.parametrize("law", [
    *LAWS,
    mixing.PointMass(math.inf),
    mixing.FiniteDiscrete([0.5, math.inf], [0.5, 0.5]),
    mixing.FiniteDiscrete([0.0, math.inf], [0.5, 0.5]),
    mixing.LogSeries(20.0),
], ids=[*(l.family for l in LAWS), "point_mass_inf", "atom_at_inf", "atoms_at_0_and_inf",
        "log_series_q_near_1"])
def test_laplace_at_zero_is_one(law):
    # phi(0) is the total mass: MOAtom's first series coefficient, which
    # makes l(e_k) = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.laplace(0.0) == 1.0
        assert law.laplace(np.array([0.0, 1.0]))[0] == 1.0


@pytest.mark.parametrize("law", [*LAWS, mixing.FiniteDiscrete([0.0, math.inf], [0.5, 0.5])],
                         ids=[*(l.family for l in LAWS), "atoms_at_0_and_inf"])
def test_laplace_keeps_a_nan(law):
    # counting 0 * inf as 0 must not hide a NaN x from laplace_inverse's guard
    assert math.isnan(law.laplace(math.nan))
    assert np.isnan(law.laplace(np.array([math.nan, 1.0]))).tolist() == [True, False]


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.family)
def test_laplace_matches_monte_carlo(law):
    rng = np.random.default_rng(42)
    m = law.sample(400000, rng)
    for x in (0.3, 1.0, 2.5):
        emp = np.exp(-x * m).mean()
        se = np.exp(-x * m).std() / math.sqrt(m.size)
        assert abs(emp - float(law.laplace(x))) <= 4 * se + 1e-4


Q = -math.expm1(-1.5)  # the q of LogSeries(1.5)
MODEL_JSON = [  # literal model JSON of each family, and its Laplace transform at 1
    ({"family": "point_mass", "m": 0.7}, math.exp(-0.7)),
    ({"family": "finite_discrete", "atoms": [0.5, 2], "weights": [0.3, 0.7]},
     0.3 * math.exp(-0.5) + 0.7 * math.exp(-2.0)),
    ({"family": "gamma", "shape": 1.8}, 2.0**-1.8),
    ({"family": "beta", "p": 2, "q": 3.0}, float(mpmath.hyp1f1(2, 5, -1))),
    ({"family": "pareto", "alpha": 2.5}, float(2.5 * mpmath.expint(3.5, 1))),
    ({"family": "positive_stable", "theta": 0.6}, math.exp(-1.0)),
    ({"family": "log_series", "theta": 1.5}, math.log1p(-Q * math.exp(-1.0)) / math.log1p(-Q)),
]


@pytest.mark.parametrize("obj, phi_1", MODEL_JSON, ids=[obj["family"] for obj, _ in MODEL_JSON])
def test_json_round_trip(obj, phi_1):
    # the fields of the model JSON come back as the law's attributes
    law = mixing.mixing_law_from_json(obj)
    assert law.family == obj["family"]
    for key in obj.keys() - {"family"}:
        attr = getattr(law, key)
        assert (attr.tolist() if isinstance(attr, np.ndarray) else attr) == obj[key]
    assert law.laplace(1.0) == pytest.approx(phi_1, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e300)),
                min_size=1, max_size=12),
       st.data())
def test_finite_discrete_scalar_laplace_is_the_array_path(atoms, data):
    # a float and an array keep the rule 0 * inf = 0, bit for bit
    weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(atoms),
                                          max_size=len(atoms)).filter(any)))
    law = mixing.FiniteDiscrete(atoms, weights / weights.sum())
    xs = [0.0, 5e-324, 1e-300, 1.0, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [law.laplace(x) for x in xs]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(scalar, law.laplace(np.array(xs)))


SAME_BITS_LAWS = [  # every law but Gamma, whose float and array pow may round apart
    mixing.PointMass(0.7),
    mixing.PointMass(math.inf),
    mixing.Beta(0.05, 1.0),
    mixing.Beta(2.0, 3.0),
    mixing.Beta(0.3, 1000.0),
    mixing.Pareto(2.5),
    mixing.Pareto(20.0),
    mixing.PositiveStable(0.3),
    mixing.PositiveStable(0.77),
    mixing.LogSeries(1.5),
]


@pytest.mark.parametrize("law", SAME_BITS_LAWS, ids=repr)
def test_scalar_laplace_is_the_array_path(law):
    # the float/array contract of every law that keeps it, from 0 to +inf
    rng = np.random.default_rng(35)
    xs = np.concatenate([[0.0, 5e-324, 1e-300, 1.0, np.finfo(float).max, math.inf],
                         10.0 ** rng.uniform(-300, 300, 300), rng.exponential(1.0, 300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [law.laplace(x) for x in xs.tolist()]
        array = law.laplace(xs)
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(scalar, array)


@pytest.mark.parametrize("seed", range(20))
def test_categorical_is_generator_choice(seed):
    # the same indices as Generator.choice, and the generator left in the same state
    p = np.random.default_rng(1000 + seed).dirichlet(np.full(seed % 5 + 2, 0.7))
    for size in (17, (9, 4)):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(mixing._categorical(p, size, ours), theirs.choice(p.size, size, p=p))
        assert ours.random() == theirs.random()


def test_finite_discrete_weight_validation():
    with pytest.raises(SpecValidationError):
        mixing.FiniteDiscrete([1.0, 2.0], [0.5, 0.6])


def test_stable_index_range():
    with pytest.raises(SpecValidationError):
        mixing.PositiveStable(1.0)


def test_stable_half_matches_levy_closed_form():
    # for index 1/2 the law equals 1/(2 N^2) with N standard normal
    rng = np.random.default_rng(7)
    s = mixing.sample_positive_stable(0.5, 200000, rng)
    n = rng.standard_normal(200000)
    ref = 1.0 / (2.0 * n**2)
    qs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(np.quantile(s, qs), np.quantile(ref, qs), rtol=0.05)


def test_beta_moments_match_density_quadrature():
    from scipy import integrate

    law = mixing.Beta(1.4, 0.9)
    for k in range(5):
        val, _ = integrate.quad(lambda m: m**k * law.density(m), 0, 1)
        assert law.moment(k) == pytest.approx(val, abs=1e-9)


def test_pareto_survival_and_density_consistent():
    from scipy import integrate

    law = mixing.Pareto(1.7)
    for x in (1.0, 1.5, 3.0):
        tail, _ = integrate.quad(law.density, x, np.inf)
        assert tail == pytest.approx(x**-1.7, abs=1e-9)


def test_log_series_tail_is_sampled():
    # at theta = 20 about 40% of the mass lies above m = 100001
    law = mixing.LogSeries(20.0)
    cut = 100001
    tail = 1.0 - math.fsum(law.pmf(m) for m in range(1, cut + 1))
    n = 2000
    share = float((law.sample(n, np.random.default_rng(10)) > cut).mean())
    assert abs(share - tail) <= 3 * math.sqrt(tail * (1 - tail) / n)


def test_log_series_refuses_q_rounding_to_one():
    with pytest.raises(SpecValidationError):
        mixing.LogSeries(40.0)


@pytest.mark.parametrize("theta", [20.0, 30.0])
def test_log_series_pmf_is_the_law_sampled(theta):
    # rng.logseries(q) is normalized by -log(1 - q) of the rounded q, which is
    # off theta by 1e-9 relative at theta = 20 and 5.5e-6 at theta = 30
    law = mixing.LogSeries(theta)
    for m in (1, 2, 10, 1000):
        assert law.pmf(m) == law.q**m / (m * -math.log1p(-law.q))


def test_log_series_pmf_sums_to_one_at_theta_1():
    law = mixing.LogSeries(1.0)
    assert sum(law.pmf(m) for m in range(1, 200)) == pytest.approx(1.0, abs=1e-15)


def test_log_series_pmf_normalizes_and_samples():
    law = mixing.LogSeries(0.8)
    total = sum(law.pmf(m) for m in range(1, 400))
    assert total == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(9)
    s = law.sample(200000, rng)
    assert s.min() >= 1.0
    mean = sum(m * law.pmf(m) for m in range(1, 400))
    assert s.mean() == pytest.approx(mean, rel=0.02)


def test_integrate_both_forms():
    # exp-sinh on (1, inf), and tanh-sinh on (0, 1) with an integrand that is
    # singular at 1 and evaluated from each node's exact distance to 1
    assert mixing.integrate(lambda x, rest: np.exp(-x), 1.0, math.inf) == pytest.approx(
        math.exp(-1.0), rel=1e-15)
    assert mixing.integrate(lambda x, rest: rest**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    both = mixing.integrate(lambda x, rest: np.stack([x, x**2]), 0.0, 3.0)
    assert both == pytest.approx([4.5, 9.0], rel=1e-15)


def test_expect_sums_atoms_in_half_open_interval():
    law = mixing.FiniteDiscrete([0.5, 1.0, 2.0], [0.2, 0.3, 0.5])
    assert law.expect(np.ones_like) == 1.0
    assert law.expect(lambda m: m, lower=0.5) == 0.3 * 1.0 + 0.5 * 2.0
    assert law.expect(lambda m: m, lower=2.0) == 0.0
    assert mixing.PointMass(2.0).expect(np.square, lower=2.0) == 0.0


@pytest.mark.parametrize("law", [mixing.PositiveStable(0.6), mixing.LogSeries(1.5)],
                         ids=lambda l: l.family)
def test_expect_refuses_law_without_density(law):
    with pytest.raises(UnsupportedLawError, match="no density"):
        law.expect(np.ones_like)


FAR = [1e100, 1.7e154, 1e300, np.finfo(float).max]
# Gamma(p+q)/Gamma(q) beyond the doubles, where poch(q, p) x^-p was inf * 0
BIG_BETA = [(171.0, 1.0), (200.0, 1.0), (150.0, 150.0), (1000.0, 1000.0)]


@pytest.mark.parametrize("law", [
    *LAWS,
    mixing.FiniteDiscrete([0.0, 3.0], [0.25, 0.75]),
    mixing.Beta(0.05, 1.0),
    *(mixing.Beta(p, q) for p, q in BIG_BETA),
    mixing.Pareto(0.3),
], ids=[*(l.family for l in LAWS), "atom_at_0", "beta_0.05_1",
        *(f"beta_{p:g}_{q:g}" for p, q in BIG_BETA), "pareto_0.3"])
def test_laplace_at_the_far_end_is_a_probability_without_warnings(law):
    """The inversion kernel probes up to the largest double, where each
    transform must be finite, in [0, 1] and non-increasing, with no warning."""
    assert {l.family for l in LAWS} == set(mixing._FAMILIES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [law.laplace(x) for x in FAR]
        vector = law.laplace(np.array(FAR))
    for values in (scalar, vector.tolist()):
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values, reverse=True)


BETA_P, BETA_Q = [0.05, 0.5, 2.0, 10.0], [0.5, 1.0, 3.0]


@pytest.mark.parametrize("p", BETA_P)
@pytest.mark.parametrize("q", BETA_Q)
def test_beta_laplace_matches_mpmath_at_every_scale(p, q):
    """1F1(p; p+q; -x) against mpmath at 50 digits from 1e-3 to 1e300, on both
    sides of the switch to Kummer's large-x series, wherever mpmath's value
    is a normal double."""
    import mpmath

    law = mixing.Beta(p, q)
    switch = 50.0 + 10.0 * (p + q + p * q)
    xs = np.r_[np.geomspace(1e-3, 1e300, 61), switch, np.nextafter(switch, 0.0),
               np.geomspace(switch, 100 * switch, 9)]
    vector = law.laplace(xs)
    with mpmath.workdps(50):
        for x, got in zip(xs.tolist(), vector.tolist()):
            ref = mpmath.hyp1f1(p, mpmath.mpf(p) + q, -mpmath.mpf(x))
            if ref < np.finfo(float).tiny:
                assert 0.0 <= got <= np.finfo(float).tiny
                continue
            assert got == law.laplace(x)
            assert got == pytest.approx(float(ref), rel=2e-14, abs=0.0)


SMALL_X = [5e-324, 1e-310, 1e-300, 1e-200, 1e-150, 1e-100, 1e-50, 1e-18, 1e-16, 1e-12, 1e-8,
           1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999]


@pytest.mark.parametrize("p", [0.01, 0.05, 0.2, 1.0, 5.0, 20.0, 150.0])
@pytest.mark.parametrize("q", [0.01, 0.5, 1.0, 3.0, 20.0, 150.0])
def test_beta_laplace_below_1_matches_mpmath(p, q):
    """Below x = 1 the Maclaurin series, against mpmath at 50 digits: scipy's
    hyp1f1 was inf for x <= 1e-300 and NaN at 1e-200 for p <= 0.2 and for
    Beta(1, 20), above 1 by up to 1.3e-14, and off by 1.1e-14 up to 1."""
    law = mixing.Beta(p, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = law.laplace(np.array(SMALL_X))
        scalar = [law.laplace(x) for x in SMALL_X]
    assert vector.tolist() == scalar
    with mpmath.workdps(50):
        for x, got in zip(SMALL_X, scalar):
            assert got <= 1.0
            assert abs(got - mpmath.hyp1f1(p, mpmath.mpf(p) + q, -mpmath.mpf(x))) <= 5.5e-16


def test_beta_laplace_asks_hyp1f1_only_below_the_switch(monkeypatch):
    """scipy's hyp1f1 took 0.58 s for Beta(0.05, 1) at x = 2^30 and was NaN
    at 2^36; from the switch x0 = 50 + 10 (p + q + p q) on it is not asked."""
    from scipy import special

    asked = []
    hyp1f1 = special.hyp1f1
    monkeypatch.setattr(special, "hyp1f1", lambda a, b, z: asked.append(np.copy(z)) or hyp1f1(a, b, z))
    law = mixing.Beta(0.05, 1.0)
    values = law.laplace(np.geomspace(1.0, 2.0**200, 50))
    assert np.isfinite(values).all() and (np.diff(values) < 0).all()
    assert law.laplace(2.0**36) == law.laplace(np.array([2.0**36]))[0] > 0.0
    assert all((np.abs(z) < 50.0 + 10.0 * 1.1).all() for z in asked)


@pytest.mark.parametrize("p, q", [(50.0, 1000.0), (200.0, 1000.0), (0.5, 1000.0)])
def test_beta_laplace_large_p_q_near_the_switch(p, q):
    """From x0 = 50 + 10 (p + q) the terms of Kummer's series for Beta(200,
    1000) grew by about e^16 before cancelling; from 50 + 10 (p + q + p q)
    each falls.  mpmath at 50 digits, to the error of scipy's poch(q, p)
    (7e-13 for p = 0.5, q = 1000)."""
    import mpmath

    law = mixing.Beta(p, q)
    xs = np.geomspace(50.0 + 10.0 * (p + q), 1e3 * (50.0 + 10.0 * (p + q + p * q)), 25)
    with mpmath.workdps(50):
        for x, got in zip(xs.tolist(), law.laplace(xs).tolist()):
            ref = mpmath.hyp1f1(p, mpmath.mpf(p) + q, -mpmath.mpf(x), maxterms=10**5)
            if ref < np.finfo(float).tiny:
                assert 0.0 <= got <= np.finfo(float).tiny
            else:
                assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_repr_names_the_constructor_arguments():
    # one law of each mixing family, G kind and shock kind
    from condiid import extreme_value as ev
    from condiid import shock_models as sk

    reprs = {
        mixing.PointMass(0.7): "PointMass(m=0.7)",
        mixing.FiniteDiscrete([0.5, 2], [0.3, 0.7]):
            "FiniteDiscrete(atoms=[0.5, 2.0], weights=[0.3, 0.7])",
        mixing.Gamma(1.8): "Gamma(shape=1.8)",
        mixing.Beta(0.05, 3): "Beta(p=0.05, q=3.0)",
        mixing.Pareto(2.5): "Pareto(alpha=2.5)",
        mixing.PositiveStable(0.6): "PositiveStable(theta=0.6)",
        mixing.LogSeries(1.5): "LogSeries(theta=1.5)",
        ev.Frechet(0.3): "Frechet(theta=0.3)",
        ev.Weibull(2): "Weibull(theta=2.0)",
        ev.MOAtom(1.2): "MOAtom(m=PointMass(m=1.2))",
        ev.StepFunction([0.4, 1.6], [0.5, 1]): "StepFunction(points=[0.4, 1.6], values=[0.5, 1.0])",
        sk.ExponentialShock(0.7): "ExponentialShock(rate=0.7)",
        sk.WeibullShock(1.4): "WeibullShock(shape=1.4, scale=1.0)",
        sk.ParetoShock(2.0, 1.5): "ParetoShock(alpha=2.0, scale=1.5)",
        sk.StepShock([0.5, 1.5], [0.6, 0]): "StepShock(points=(0.5, 1.5), values=(0.6, 0.0))",
    }
    kinds = {*mixing._FAMILIES.values(), *ev._G_KINDS.values(), *sk._SHOCK_KINDS.values()}
    assert {type(law) for law in reprs} == kinds
    assert [repr(law) for law in reprs] == list(reprs.values())
