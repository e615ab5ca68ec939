import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import stdf_oracle as oracle

from condiid import diagnostics as dg
from condiid import extreme_value as ev
from condiid import lack_of_memory as lom
from condiid.errors import SpecValidationError, UnsupportedLawError
from condiid.mixing import Beta, FiniteDiscrete, Gamma, LogSeries, PointMass, PositiveStable


LOGISTIC_HALF = ev.logistic(0.5)


class TestStdfClosedForms:
    def test_logistic_theta_one_is_independence(self):
        x = [1.0, 2.0, 0.5]
        assert ev.stdf_eval(ev.logistic(1.0), x) == pytest.approx(3.5)

    def test_logistic_half_at_ones(self):
        assert ev.stdf_eval(LOGISTIC_HALF, [1.0, 1.0]) == pytest.approx(math.sqrt(2.0))

    def test_negative_logistic_d2_reduction(self):
        theta = 1.3
        spec = ev.negative_logistic(theta)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1, x2 = rng.exponential(1.0, 2) + 0.05
            expect = x1 + x2 - (x1**-theta + x2**-theta) ** (-1.0 / theta)
            assert ev.stdf_eval(spec, [x1, x2]) == pytest.approx(expect, rel=1e-12)

    def test_zero_coordinates_drop_out(self):
        assert ev.stdf_eval(LOGISTIC_HALF, [1.0, 0.0, 1.0]) == pytest.approx(math.sqrt(2.0))
        assert ev.stdf_eval(LOGISTIC_HALF, [0.0, 0.0]) == 0.0

    def test_mo_atom_at_infinity_is_comonotone(self):
        spec = ev.lf(ev.MOAtom(PointMass(math.inf)))
        assert ev.stdf_eval(spec, [0.3, 0.9]) == pytest.approx(0.9)

    def test_mo_atom_matches_lack_of_memory_closed_form(self):
        m = 1.2
        q = math.exp(-m)
        spec = ev.lf(ev.MOAtom(PointMass(m)))
        # matching parameters: psi(k) = (1 - q^k)/(1 - q) at unit marginal rate,
        # so a_k = psi(k) - psi(k-1) = q^(k-1)
        params = tuple(q ** (k - 1) for k in range(1, 4))
        rng = np.random.default_rng(2)
        for _ in range(15):
            x = rng.exponential(0.8, 3)
            assert math.exp(-ev.stdf_eval(spec, x)) == pytest.approx(
                float(lom.mo_survival(params, x)), rel=1e-10
            )

    def test_mo_atom_with_gamma_m_sums_its_laplace_values(self):
        # E[q^i] = E[exp(-i M)] = (1 + i)^-theta for M ~ Gamma(theta)
        rng = np.random.default_rng(5)
        for theta in (0.3, 1.0, 2.5):
            g = ev.MOAtom(Gamma(theta))
            for d in (1, 2, 4, 7):
                x = rng.exponential(1.0, d)
                s = np.sort(x)[::-1]
                gaps = s - np.append(s[1:], 0.0)
                coeff = [sum((1.0 + i) ** -theta for i in range(j)) for j in range(1, d + 1)]
                assert g.ell(x) == pytest.approx(float(np.dot(coeff, gaps)), rel=1e-13)

    def test_mo_atom_with_beta_m_matches_quadrature(self):
        # E[(1 - q^j)/(1 - q)] = E[1 + q + ... + q^(j-1)] over the Beta density
        from scipy import integrate

        p, r = 2.0, 3.0
        x = np.array([1.3, 0.2, 0.7, 0.9])
        s = np.sort(x)[::-1]
        gaps = s - np.append(s[1:], 0.0)
        coeff = [integrate.quad(lambda m: sum(math.exp(-i * m) for i in range(j))
                                * stats.beta.pdf(m, p, r), 0.0, 1.0, epsabs=1e-13)[0]
                 for j in range(1, x.size + 1)]
        assert ev.MOAtom(Beta(p, r)).ell(x) == pytest.approx(float(np.dot(coeff, gaps)), rel=1e-11)

    def test_mo_atom_near_independence_has_no_cancellation(self):
        # M = 1e-9: (1 - q^j)/(1 - q) cancels to 1, 2.0, 3.0, ... in doubles;
        # the exact coefficients are 1, 1.999999999, 2.999999997, ...
        import mpmath

        m = 1e-9
        x = [0.9, 0.1, 0.5, 0.3, 1.7, 0.25, 0.6, 1.1, 0.05, 0.8]
        s = sorted(x, reverse=True) + [0.0]
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                (mpmath.mpf(s[j - 1]) - mpmath.mpf(s[j]))
                * mpmath.fsum(mpmath.exp(-i * mpmath.mpf(m)) for i in range(j))
                for j in range(1, len(x) + 1)
            )
        assert ev.MOAtom(PointMass(m)).ell(np.array(x)) == pytest.approx(float(exact), rel=1e-14)

    def test_triplet_normalization(self):
        tri = ev.Triplet(0.4, 1.1, [(ev.Frechet(0.5), 0.5), (ev.MOAtom(PointMass(1.0)), 0.5)])
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            assert ev.stdf_eval(tri, e) == pytest.approx(1.0, rel=1e-9)


class TestStdfInvariants:
    SPECS = [
        ev.independence(),
        ev.logistic(0.3),
        ev.logistic(0.8),
        ev.negative_logistic(0.7),
        ev.negative_logistic(2.0),
        ev.lf(ev.MOAtom(PointMass(0.9))),
        ev.Triplet(0.2, 0.8, [(ev.Weibull(0.6), 0.5), (ev.Frechet(0.4), 0.5)]),
    ]

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 200:
            spec = self.SPECS[int(rng.integers(len(self.SPECS)))]
            d = int(rng.integers(2, 5))
            x = rng.exponential(1.0, d) + 1e-3
            t = float(rng.exponential(1.0) + 0.05)
            a = ev.stdf_eval(spec, t * x)
            b = t * ev.stdf_eval(spec, x)
            assert abs(a - b) < 1e-9 * max(a, 1e-12)
            count += 1

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for spec in self.SPECS:
            for _ in range(30):
                d = int(rng.integers(1, 5))
                x = rng.exponential(1.0, d)
                val = ev.stdf_eval(spec, x)
                assert val >= x.max() - 1e-9
                assert val <= x.sum() + 1e-9

    def test_lf_quadrature_consistency_frechet(self):
        # the single-G integral for the Frechet atom equals the logistic form
        for theta in (0.3, 0.5, 0.7):
            g = ev.Frechet(theta)
            for x in ([1.0, 1.0], [0.4, 1.7], [2.0, 0.3, 0.9]):
                numeric = oracle.stdf_numeric_lf(g, x)
                closed = ev.stdf_eval(ev.logistic(theta), x)
                assert numeric == pytest.approx(closed, abs=1e-6)

    def test_lf_quadrature_consistency_weibull_and_step(self):
        g = ev.Weibull(0.7)
        for x in ([0.8, 1.7], [1.0, 0.5, 0.25]):
            assert oracle.stdf_numeric_lf(g, x) == pytest.approx(ev.stdf_eval(ev.lf(g), x), abs=1e-6)
        step = ev.StepFunction([0.4, 1.6], [0.5, 1.0])
        for x in ([0.7, 0.4], [1.0, 2.0, 0.2]):
            assert oracle.stdf_numeric_lf(step, x) == pytest.approx(
                ev.stdf_eval(ev.lf(step), x), abs=1e-8
            )

    @pytest.mark.parametrize("x", [[1e308, 1e308], [1.5e308, 1.0], [1e-300, 1e-300]])
    def test_step_stdf_at_extreme_doubles(self, x):
        # l is homogeneous: l(c x) = c l(x); the products c x_k * points no longer overflow
        step = ev.lf(ev.StepFunction([0.4, 1.6], [0.5, 1.0]))
        c = max(x)
        assert ev.stdf_eval(step, x) == pytest.approx(c * ev.stdf_eval(step, np.array(x) / c), rel=1e-15)

    def test_lf_quadrature_consistency_point_mass_mo_atom(self):
        for m in (0.3, 1.2):
            g = ev.MOAtom(PointMass(m))
            for x in ([1.0, 1.0], [0.4, 1.7], [2.0, 0.3, 0.9]):
                assert oracle.stdf_numeric_lf(g, x) == pytest.approx(g.ell(np.asarray(x)), abs=1e-6)

    @pytest.mark.parametrize("g", [ev.Weibull(0.7), ev.Weibull(3.0), ev.MOAtom(PointMass(0.3)),
                                   ev.MOAtom(PointMass(1.2)), ev.StepFunction([0.4, 1.6], [0.5, 1.0])],
                             ids=["weibull_0.7", "weibull_3", "mo_atom_0.3", "mo_atom_1.2", "step"])
    def test_batched_ell_matches_quadrature_and_single_points(self, g):
        # one call over (k, d) points: each value is the reference's, and the
        # bits of the same point evaluated alone
        points = np.array([[1.0, 1.0, 1.0], [0.4, 1.7, 0.0], [2.0, 0.3, 0.9], [1e-3, 5.0, 0.25]])
        batched = g.ell(points)
        assert batched.shape == (4,)
        for x, value in zip(points, batched):
            assert value == g.ell(x)
            assert oracle.stdf_numeric_lf(g, x) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("m", [FiniteDiscrete([0.5, 2.0], [0.5, 0.5]), Gamma(2.0)],
                             ids=["two_atoms", "gamma"])
    def test_quadrature_reference_refuses_m_with_more_atoms(self, m):
        # l averages l_{G_q} over M, and the q-averaged G has another l:
        # 1.4887 against ell 1.3709 at (1, 1) for the two atoms
        g = ev.MOAtom(m)
        for call in (lambda: oracle.log_cdf(g, 1.0), lambda: oracle.support_upper(g),
                     lambda: oracle.jump_points(g), lambda: oracle.stdf_numeric_lf(g, [1.0, 1.0])):
            with pytest.raises(UnsupportedLawError):
                call()


WEIBULL_THETA = st.floats(math.log(0.05), math.log(50.0)).map(math.exp)


def coordinates(max_size):
    return st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=max_size).map(np.array)


class TestWeibullEll:
    """l_G of the Weibull G by the double-exponential rule, at any d: the
    inclusion-exclusion sum it replaces has 2^d - 1 terms."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(theta=WEIBULL_THETA, x=coordinates(40), c=st.floats(1e-3, 1e3))
    def test_homogeneous(self, theta, x, c):
        g = ev.Weibull(theta)
        assert g.ell(c * x) == pytest.approx(c * g.ell(x), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(theta=WEIBULL_THETA, x=coordinates(40))
    def test_between_max_and_sum(self, theta, x):
        val = ev.Weibull(theta).ell(x)
        assert x.max() <= val <= x.sum() * (1.0 + 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(theta=WEIBULL_THETA, x=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)))
    def test_negative_logistic_closed_form_at_d2(self, theta, x):
        x1, x2 = x
        closed = x1 + x2 - (x1 ** (-1.0 / theta) + x2 ** (-1.0 / theta)) ** -theta
        assert ev.Weibull(theta).ell(np.array(x)) == pytest.approx(closed, rel=1e-11)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(theta=WEIBULL_THETA, x=coordinates(12))
    def test_alternating_subset_sum(self, theta, x):
        # sum over nonempty S of (-1)^(|S|+1) (sum_{k in S} x_k^(-1/theta))^(-theta), at 40 digits
        import itertools

        import mpmath

        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            powers = [mpmath.mpf(v) ** (-1 / th) for v in x]
            ref = mpmath.fsum((-1) ** (j + 1) * mpmath.fsum(s) ** -th
                              for j in range(1, x.size + 1)
                              for s in itertools.combinations(powers, j))
        assert ev.Weibull(theta).ell(x) == pytest.approx(float(ref), rel=1e-11)


class TestEvaluators:
    def test_survival_d1_exponential(self):
        assert ev.minstable_survival(LOGISTIC_HALF, 2.0, [1.5]) == pytest.approx(math.exp(-3.0))

    def test_independence_value(self):
        assert ev.minstable_survival(ev.independence(), 1.0, [1.0, 1.0]) == pytest.approx(
            math.exp(-2.0)
        )

    def test_logistic_value(self):
        assert ev.minstable_survival(LOGISTIC_HALF, 1.0, [1.0, 1.0]) == pytest.approx(
            math.exp(-math.sqrt(2.0))
        )

    def test_min_stability_identity(self):
        rng = np.random.default_rng(5)
        for spec in (LOGISTIC_HALF, ev.negative_logistic(1.1), ev.Triplet(0.3, 0.7, [(ev.Frechet(0.6), 1.0)])):
            for _ in range(10):
                x = rng.exponential(1.0, 3)
                t = float(rng.exponential(1.0) + 0.1)
                sf = ev.minstable_survival(spec, 1.0, x)
                assert sf**t == pytest.approx(ev.minstable_survival(spec, 1.0, t * x), abs=1e-12)

    def test_copula_max_stability(self):
        rng = np.random.default_rng(6)
        spec = ev.logistic(0.4)
        for _ in range(10):
            u = rng.random(3)
            t = float(rng.exponential(1.0) + 0.1)
            c = ev.extreme_value_copula_eval(spec, u)
            assert c**t == pytest.approx(ev.extreme_value_copula_eval(spec, u**t), abs=1e-12)

    def test_copula_corner_cases(self):
        assert ev.extreme_value_copula_eval(LOGISTIC_HALF, [0.0, 0.5]) == 0.0
        assert ev.extreme_value_copula_eval(LOGISTIC_HALF, [0.37, 1.0]) == pytest.approx(0.37)
        assert ev.extreme_value_copula_eval(
            LOGISTIC_HALF, [math.exp(-1), math.exp(-1)]
        ) == pytest.approx(math.exp(-math.sqrt(2.0)))

    def test_gumbel_composition(self):
        # logistic stdf composed with exponential margins gives the same value
        # through the copula route
        u = [0.3, 0.7]
        direct = ev.extreme_value_copula_eval(LOGISTIC_HALF, u)
        x = -np.log(u)
        assert direct == pytest.approx(math.exp(-ev.stdf_eval(LOGISTIC_HALF, x)))


class TestDirectLogisticSampler:
    def test_survival_at_ones(self):
        rng = np.random.default_rng(7)
        n = 150000
        sm = ev.sample_logistic_direct(0.5, 1.0, 2, n, rng)
        emp = (sm > 1.0).all(axis=1).mean()
        closed = math.exp(-math.sqrt(2.0))
        assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n) + 1e-3

    def test_margins_exponential(self):
        rng = np.random.default_rng(8)
        sm = ev.sample_logistic_direct(0.6, 1.7, 2, 40000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "expon", args=(0, 1 / 1.7)).pvalue > 0.001

    def test_minimum_rate_from_diagonal(self):
        rng = np.random.default_rng(9)
        theta, rate = 0.5, 1.0
        sm = ev.sample_logistic_direct(theta, rate, 2, 40000, rng)
        mins = sm.min(axis=1)
        assert stats.kstest(mins, "expon", args=(0, 1.0 / (rate * 2**theta))).pvalue > 0.001

    def test_theta_near_one_approaches_independence(self):
        rng = np.random.default_rng(10)
        distances = []
        for theta in (0.5, 0.99):
            sm = ev.sample_logistic_direct(theta, 1.0, 2, 30000, rng)
            emp = (sm > np.array([0.5, 0.5])).all(axis=1).mean()
            distances.append(abs(emp - math.exp(-1.0)))
        assert distances[1] < distances[0]


class TestSeriesSampler:
    def test_drift_dominated_is_nearly_independent(self):
        rng = np.random.default_rng(11)
        tri = ev.Triplet(1.0, 1e-6, [(ev.MOAtom(PointMass(1.0)), 1.0)])
        sm = ev.sample_minstable(tri, 2, 30000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "expon").pvalue > 0.001
        tau = np.corrcoef(sm.T)[0, 1]
        assert abs(tau) < 0.02

    def test_matches_direct_logistic(self):
        rng = np.random.default_rng(12)
        theta = 0.5
        n_series, n_direct = 8000, 100000
        series = ev.sample_extremal(ev.Frechet(theta), 1.0, 2, n_series, rng)
        direct = ev.sample_logistic_direct(theta, 1.0, 2, n_direct, rng)
        for pt in ([0.3, 0.3], [1.0, 1.0], [0.5, 1.5], [2.0, 0.2]):
            pt = np.asarray(pt)
            p1 = (series > pt).all(axis=1).mean()
            p2 = (direct > pt).all(axis=1).mean()
            se = math.sqrt(p1 * (1 - p1) / n_series + p2 * (1 - p2) / n_direct)
            assert abs(p1 - p2) <= 3 * se + 1e-3

    def test_mo_atom_matches_subordinator_sampler(self):
        # two-sampler oracle across modules: the drift and extremal functions
        # of a two-point G atom against the compound-Poisson first-passage
        # sampler
        rng = np.random.default_rng(13)
        m = 1.2
        q = math.exp(-m)
        beta = 1.0 / (1.0 - q)
        sub = lom.CompoundPoissonSubordinatorSpec(drift=0.3, jumps=((m, beta),))
        n = 30000
        drift = rng.standard_exponential((n, 2)) / 0.3
        series = np.minimum(drift, ev.sample_extremal(ev.MOAtom(PointMass(m)), 1.0, 2, n, rng))
        passage = lom.sample_mo_ciid(sub, 2, n, rng)
        for pt in ([0.4, 0.4], [0.8, 0.2], [1.5, 1.0]):
            pt = np.asarray(pt)
            p1 = (series > pt).all(axis=1).mean()
            p2 = (passage > pt).all(axis=1).mean()
            se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)
            assert abs(p1 - p2) <= 3 * se + 1e-3

    def test_survival_matches_evaluator_with_mixture(self):
        rng = np.random.default_rng(14)
        step = ev.StepFunction([0.4, 1.6], [0.5, 1.0])
        tri = ev.Triplet(0.1, 1.3, [(ev.MOAtom(PointMass(1.2)), 0.6), (step, 0.4)])
        n = 20000
        sm = ev.sample_minstable(tri, 3, n, rng)
        for pt in ([0.7, 0.4, 0.2], [0.5, 0.5, 0.5]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = ev.minstable_survival(tri, tri.marginal_rate(), pt)
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 2e-3

    def test_margins_exponential_at_rate_b_plus_c(self):
        rng = np.random.default_rng(15)
        tri = ev.Triplet(0.5, 0.7, [(ev.MOAtom(PointMass(0.8)), 1.0)])
        sm = ev.sample_minstable(tri, 2, 30000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "expon", args=(0, 1 / 1.2)).pvalue > 0.001

    def test_rate_rescaling(self):
        rng = np.random.default_rng(16)
        tri = ev.Triplet(0.5, 0.7, [(ev.MOAtom(PointMass(0.8)), 1.0)])
        sm = ev.sample_minstable(tri, 1, 30000, rng, rate=1.0)
        assert stats.kstest(sm[:, 0], "expon").pvalue > 0.001

    def test_meta_reports_no_truncation(self, monkeypatch):
        # extremal functions take d spectral draws per row on average and
        # truncate nothing
        draws = []
        tilted_draw = ev.Frechet.tilted_draw

        def spy(self, d, m, rng):
            draws.append(m)
            return tilted_draw(self, d, m, rng)

        monkeypatch.setattr(ev.Frechet, "tilted_draw", spy)
        rng = np.random.default_rng(17)
        ev.sample_extremal(ev.Frechet(0.5), 1.0, 3, 20000, rng)
        assert abs(sum(draws) / 20000 - 3.0) < 0.1

    @pytest.mark.parametrize("m_law", [Gamma(1.0), LogSeries(1.5), PositiveStable(0.5)],
                             ids=lambda law: law.family)
    def test_mo_atom_with_unbounded_m_passes_verify(self, m_law):
        # the sampler draws M itself, the closed form sums its Laplace transform
        tri = ev.Triplet(0.2, 0.8, [(ev.MOAtom(m_law), 1.0)])
        grid = [[0.2, 0.2, 0.2], [0.5, 0.1, 0.3], [0.6, 0.6, 0.6], [1.2, 0.4, 0.8]]
        report = dg.mc_verify(lambda n, rng: ev.sample_minstable(tri, 3, n, rng),
                              lambda x: ev.minstable_survival(tri, 1.0, x), grid, 40_000, 18)
        assert report.passed, report.to_json_str()

    def test_finite_discrete_atom_supported(self):
        rng = np.random.default_rng(19)
        m_law = FiniteDiscrete([0.5, 2.0], [0.5, 0.5])
        tri = ev.Triplet(0.2, 0.8, [(ev.MOAtom(m_law), 1.0)])
        n = 30000
        sm = ev.sample_minstable(tri, 2, n, rng)
        pt = np.array([0.6, 0.3])
        emp = (sm > pt).all(axis=1).mean()
        closed = ev.minstable_survival(tri, 1.0, pt)
        se = math.sqrt(closed * (1 - closed) / n)
        assert abs(emp - closed) <= 3 * se + 1e-3

    def test_m_atom_at_zero_is_independence(self):
        # q = exp(-0) = 1 is the independence limit of the two-point atom
        # (ell's coefficients become 1, 2, ..., d); dropping it doubled the
        # margin means
        rng = np.random.default_rng(20)
        tri = ev.Triplet(0.0, 1.0, [(ev.MOAtom(FiniteDiscrete([0.0, 1.0], [0.5, 0.5])), 1.0)])
        n = 20000
        sm = ev.sample_minstable(tri, 3, n, rng)
        for k in range(3):
            assert stats.kstest(sm[:, k], "expon").pvalue > 0.001
        for pt in ([0.3, 0.3, 0.3], [0.5, 1.0, 0.2], [1.0, 1.0, 1.0]):
            closed = ev.minstable_survival(tri, 1.0, pt)
            emp = (sm > np.asarray(pt)).all(axis=1).mean()
            assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n)

    def test_comonotone_atom_gives_equal_coordinates(self):
        # M = inf makes every spectral vector constant, so Z and X are too
        rng = np.random.default_rng(21)
        tri = ev.Triplet(0.0, 1.0, [(ev.MOAtom(PointMass(math.inf)), 1.0)])
        data = ev.sample_minstable(tri, 4, 5000, rng)
        assert (data == data[:, :1]).all()

    @pytest.mark.parametrize("spec", [
        ev.independence(), ev.logistic(1.0), ev.logistic(0.6), ev.negative_logistic(1.5),
    ], ids=["independence", "logistic_1", "logistic_0.6", "negative_logistic"])
    def test_every_stdf_kind_samples(self, spec):
        rng = np.random.default_rng(22)
        n = 20000
        sm = ev.sample_minstable(spec, 3, n, rng, rate=1.5)
        for k in range(3):
            assert stats.kstest(sm[:, k], "expon", args=(0, 1 / 1.5)).pvalue > 0.001
        for pt in ([0.2, 0.2, 0.2], [0.1, 0.4, 0.7]):
            closed = ev.minstable_survival(spec, 1.5, pt)
            emp = (sm > np.asarray(pt)).all(axis=1).mean()
            assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n)


class TestPartByPart:
    def test_parts_are_drawn_in_order_and_minimized(self):
        # X is the componentwise minimum of the drift and of one min-stable
        # law per atom, each at its share s b or s c w of the rate
        tri = ev.Triplet(0.4, 1.2, [(ev.Frechet(0.6), 0.25), (ev.Weibull(0.5), 0.75)])
        rate, n = 2.0, 300
        s = rate / 1.6
        rng = np.random.default_rng(4)
        expect = rng.standard_exponential((n, 3)) / (s * 0.4)
        expect = np.minimum(expect, ev.sample_logistic_direct(0.6, s * 1.2 * 0.25, 3, n, rng))
        expect = np.minimum(expect, ev.sample_extremal(ev.Weibull(0.5), s * 1.2 * 0.75, 3, n, rng))
        assert np.array_equal(ev.sample_minstable(tri, 3, n, np.random.default_rng(4), rate=rate), expect)

    def test_finite_mo_atom_is_the_subordinator_death_chain(self):
        # jump (M, rate p / (1 - e^-M)) per atom; M = 0 is drift, M = inf kill
        m_law = FiniteDiscrete([0.0, 0.7, math.inf], [0.2, 0.5, 0.3])
        sub = lom.CompoundPoissonSubordinatorSpec(
            drift=1.3 * 0.2, kill=1.3 * 0.3, jumps=((0.7, 1.3 * 0.5 / -math.expm1(-0.7)),))
        got = ev.sample_minstable(ev.lf(ev.MOAtom(m_law)), 4, 500, np.random.default_rng(3), rate=1.3)
        assert np.array_equal(got, lom.sample_mo_ciid(sub, 4, 500, np.random.default_rng(3)))

    @pytest.mark.parametrize("g", [ev.Weibull(0.5), ev.MOAtom(Gamma(1.0)),
                                   ev.StepFunction([0.4, 1.6], [0.5, 1.0])],
                             ids=["weibull", "mo_atom_gamma", "step"])
    def test_other_atoms_take_extremal_functions(self, g):
        got = ev.sample_minstable(ev.lf(g), 3, 500, np.random.default_rng(3), rate=1.3)
        assert np.array_equal(got, ev.sample_extremal(g, 1.3, 3, 500, np.random.default_rng(3)))

    def test_extremal_functions_of_an_mo_atom_at_zero_and_inf(self):
        # the death chain takes these atoms in the sampler, so the spectral
        # vectors e_k (q = 1) and constant (q = 0) are checked here
        g = ev.MOAtom(FiniteDiscrete([0.0, 0.7, math.inf], [0.2, 0.5, 0.3]))
        n = 30000
        sm = ev.sample_extremal(g, 1.0, 3, n, np.random.default_rng(23))
        for k in range(3):
            assert stats.kstest(sm[:, k], "expon").pvalue > 0.001
        for pt in ([0.3, 0.3, 0.3], [0.5, 1.0, 0.2], [1.0, 1.0, 1.0]):
            closed = ev.minstable_survival(ev.lf(g), 1.0, pt)
            emp = (sm > np.asarray(pt)).all(axis=1).mean()
            assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n)


class TestTieMass:
    """At d = 2, drift b and one MO atom with law M give the bivariate
    Marshall-Olkin rates s b + s c phi(1) of each single death and
    s c (1 - phi(1)) of the common one, phi(1) = E[exp(-M)], so
    P(X_1 = X_2) = c (1 - phi(1)) / (2b + c (1 + phi(1)))."""

    @pytest.mark.parametrize("m_law", [PointMass(1.2), FiniteDiscrete([0.5, 2.0], [0.4, 0.6]), Gamma(1.0)],
                             ids=lambda law: law.family)
    def test_tie_frequency(self, m_law):
        b, c, n = 0.3, 1.0, 200_000
        tri = ev.Triplet(b, c, [(ev.MOAtom(m_law), 1.0)])
        x = ev.sample_minstable(tri, 2, n, np.random.default_rng(5))
        phi = m_law.laplace(1.0)
        closed = c * (1 - phi) / (2 * b + c * (1 + phi))
        emp = (x[:, 0] == x[:, 1]).mean()
        assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n)

    @pytest.mark.parametrize("g", [ev.Frechet(0.5), ev.Weibull(0.5)], ids=["frechet", "weibull"])
    def test_continuous_atoms_make_no_ties(self, g):
        x = ev.sample_minstable(ev.Triplet(0.3, 1.0, [(g, 1.0)]), 2, 20000, np.random.default_rng(6))
        assert not (x[:, 0] == x[:, 1]).any()


@st.composite
def g_atoms(draw):
    """One unit-mean G of each of the four kinds."""
    kind = draw(st.sampled_from(["frechet", "weibull", "mo_atom", "step"]))
    if kind == "frechet":
        return ev.Frechet(draw(st.floats(0.15, 0.85)))
    if kind == "weibull":
        return ev.Weibull(draw(st.floats(0.2, 2.5)))
    if kind == "mo_atom":
        ms = draw(st.lists(st.sampled_from([0.0, 0.3, 1.2, 3.0, math.inf]),
                           min_size=1, max_size=3, unique=True))
        if len(ms) == 1 and ms[0] > 0:
            return ev.MOAtom(PointMass(ms[0]))
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(ms), max_size=len(ms))))
        return ev.MOAtom(FiniteDiscrete(ms, w / w.sum()))
    size = draw(st.integers(1, 3))
    mass = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=size, max_size=size)))
    mass /= mass.sum()
    points = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=size, max_size=size)))
    if size > 1 and draw(st.booleans()):
        points -= points[0]  # an atom at 0
    values = np.cumsum(mass)
    values[-1] = 1.0
    return ev.StepFunction(points / (mass @ points), values)


@st.composite
def triplets(draw):
    atoms = draw(st.lists(g_atoms(), min_size=1, max_size=3))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms))))
    b = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    return ev.Triplet(b, draw(st.floats(0.2, 2.0)), list(zip(atoms, w / w.sum())))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tri=triplets(), d=st.integers(1, 5), rate=st.one_of(st.none(), st.floats(0.5, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_extremal_functions_match_closed_form(tri, d, rate, seed):
    # every margin is Exp(rate) and orthants match exp(-rate * l(x))
    rate = tri.marginal_rate() if rate is None else rate
    n = 20000
    sm = ev.sample_minstable(tri, d, n, np.random.default_rng(seed), rate=rate)
    for k in range(d):
        assert stats.kstest(sm[:, k], "expon", args=(0, 1 / rate)).pvalue > 1e-4
    for q in (np.full(d, 0.4), np.linspace(0.1, 0.9, d)):
        pt = q / rate
        closed = ev.minstable_survival(tri, rate, pt)
        emp = (sm > pt).all(axis=1).mean()
        assert abs(emp - closed) <= 4 * math.sqrt(closed * (1 - closed) / n) + 1e-3


def triplet_parts(tri):
    """b, c and each atom as (class and parameters of its G, weight)."""
    return tri.b, tri.c, [(repr(g), w) for g, w in tri.atoms]


def negative_logistic_l(theta, x):
    """sum over non-empty subsets I of (-1)^(|I|+1) (sum_I x_i^-theta)^(-1/theta)."""
    return sum((-1) ** (k + 1) * sum(v**-theta for v in s) ** (-1.0 / theta)
               for k in range(1, len(x) + 1) for s in itertools.combinations(x, k))


def mo_l(phi, x):
    """E[l_{G_q}(x)] = sum_j x_[j] phi(j - 1) over x sorted decreasingly, phi the
    Laplace transform of M, q = exp(-M)."""
    return sum(v * phi(j) for j, v in enumerate(sorted(x, reverse=True)))


def test_stdf_json_round_trip():
    # literal model JSON of each stdf kind and G kind: its triplet, and l at x
    x = [0.7, 1.3, 0.4]
    two_atoms = lambda j: 0.5 * math.exp(-0.5 * j) + 0.5 * math.exp(-2.0 * j)
    step_mean_max = sum(max(a * y for a, y in zip(x, ys)) / 8
                        for ys in itertools.product([0.4, 1.6], repeat=3))
    cases = [
        ({"kind": "independence"}, (1.0, 0.0, []), sum(x)),
        ({"kind": "logistic", "theta": 0.4}, (0.0, 1.0, [("Frechet(theta=0.4)", 1.0)]),
         sum(v**2.5 for v in x) ** 0.4),
        ({"kind": "negative_logistic", "theta": 1.5},
         (0.0, 1.0, [(f"Weibull(theta={1 / 1.5})", 1.0)]), negative_logistic_l(1.5, x)),
        ({"kind": "lf", "g": {"kind": "frechet", "theta": 0.3}},
         (0.0, 1.0, [("Frechet(theta=0.3)", 1.0)]), sum(v ** (1 / 0.3) for v in x) ** 0.3),
        ({"kind": "lf", "g": {"kind": "step", "points": [0.4, 1.6], "values": [0.5, 1]}},
         (0.0, 1.0, [("StepFunction(points=[0.4, 1.6], values=[0.5, 1.0])", 1.0)]),
         step_mean_max),
        ({"kind": "lf", "g": {"kind": "mo_atom", "m": {"family": "finite_discrete",
                                                      "atoms": [0.5, 2], "weights": [0.5, 0.5]}}},
         (0.0, 1.0, [("MOAtom(m=FiniteDiscrete(atoms=[0.5, 2.0], weights=[0.5, 0.5]))", 1.0)]),
         mo_l(two_atoms, x)),
        ({"kind": "triplet", "b": 0.2, "c": 0.8,
          "atoms": [{"g": {"kind": "mo_atom", "m": 1}, "weight": 0.4},
                    {"g": {"kind": "weibull", "theta": 0.5}, "weight": 0.6}]},
         (0.2, 0.8, [("MOAtom(m=PointMass(m=1.0))", 0.4), ("Weibull(theta=0.5)", 0.6)]),
         0.2 * sum(x) + 0.8 * (0.4 * mo_l(lambda j: math.exp(-j), x)
                               + 0.6 * negative_logistic_l(2.0, x))),
    ]
    for obj, parts, ell in cases:
        tri = ev.stdf_from_json(obj)
        assert triplet_parts(tri) == parts
        assert ev.stdf_eval(tri, x) == pytest.approx(ell, rel=1e-12)


@pytest.mark.parametrize("obj, spec", [
    ({"kind": "independence"}, ev.Triplet(1.0)),
    ({"kind": "logistic", "theta": 1}, ev.Triplet(1.0)),
    ({"kind": "logistic", "theta": 0.4}, ev.Triplet(0.0, 1.0, [(ev.Frechet(0.4), 1.0)])),
    ({"kind": "negative_logistic", "theta": 2.0}, ev.Triplet(0.0, 1.0, [(ev.Weibull(0.5), 1.0)])),
    ({"kind": "lf", "g": {"kind": "mo_atom", "m": 1.2}},
     ev.Triplet(0.0, 1.0, [(ev.MOAtom(PointMass(1.2)), 1.0)])),
    ({"kind": "triplet", "c": 1.0, "atoms": [{"g": {"kind": "frechet", "theta": 0.3},
                                              "weight": 1}]},
     ev.Triplet(0.0, 1.0, [(ev.Frechet(0.3), 1.0)])),
], ids=["independence", "logistic_1", "logistic", "negative_logistic", "lf", "triplet_no_b"])
def test_named_stdf_kinds_are_triplets(obj, spec):
    tri = ev.stdf_from_json(obj)
    assert isinstance(tri, ev.Triplet)
    assert triplet_parts(tri) == triplet_parts(spec)


@pytest.mark.parametrize("obj, message", [
    ({"kind": "logistic", "theta": 0.5, "foo": 1}, "stdf.foo is not a field of kind 'logistic'"),
    ({"kind": "independence", "theta": 0.5}, "stdf.theta is not a field of kind 'independence'"),
    ({"kind": "logistic", "theta": "x"}, "stdf.theta must be a finite number, got 'x'"),
    ({"kind": "lf", "g": {"kind": "frechet", "theta": "x"}},
     "stdf.g.theta must be a finite number, got 'x'"),
    ({"kind": "lf", "g": {"kind": "weibull", "theta": 0.5, "scale": 1.0}},
     "stdf.g.scale is not a field of kind 'weibull'"),
    ({"kind": "lf", "g": {"kind": "mo_atom", "m": None}}, "stdf.g.m must be a finite number"),
    ({"kind": "lf", "g": {"kind": "step", "points": [1.0, "x"], "values": [0.5, 1.0]}},
     "stdf.g.points[1] must be a finite number"),
    ({"kind": "lf", "g": {"kind": ["frechet"]}}, "unknown G kind ['frechet'] at stdf.g.kind"),
    ({"kind": "triplet", "b": "x", "c": 1.0}, "stdf.b must be a finite number, got 'x'"),
    ({"kind": "triplet", "c": 1.0, "atoms": [{"g": {"kind": "frechet", "theta": 0.5},
                                              "weight": True}]},
     "stdf.atoms[0].weight must be a finite number, got True"),
    ({"kind": {"logistic": 0.5}}, "unknown stdf kind"),
], ids=["unknown_field", "independence_field", "theta_string", "g_theta_string", "g_unknown_field",
        "mo_atom_null", "step_point_string", "g_kind_list", "b_string", "weight_bool",
        "kind_object"])
def test_malformed_stdf_json_names_its_path(obj, message):
    with pytest.raises(SpecValidationError) as info:
        ev.stdf_from_json(obj)
    assert message in str(info.value)


def test_invalid_parameters():
    with pytest.raises(SpecValidationError):
        ev.logistic(1.2)
    with pytest.raises(SpecValidationError):
        ev.negative_logistic(0.0)
    with pytest.raises(SpecValidationError):
        ev.Triplet(-0.1, 1.0, [(ev.Frechet(0.5), 1.0)])
    with pytest.raises(SpecValidationError):
        ev.Triplet(0.0, 1.0, [(ev.Frechet(0.5), 0.5)])  # weights must sum to 1
    with pytest.raises(SpecValidationError):
        ev.Triplet(0.0, 0.0)  # b + c must be positive
    with pytest.raises(SpecValidationError):
        ev.Triplet(0.5, 1.0)  # c > 0 needs an atom
    with pytest.raises(SpecValidationError):
        ev.Triplet(0.5, 0.0, [(ev.Frechet(0.5), 1.0)])  # c = 0 takes none
    with pytest.raises(SpecValidationError):
        ev.StepFunction([0.4, 1.6], [0.5, 0.9])  # must reach 1


def test_drift_only_triplet_is_independence():
    tri = ev.Triplet(0.7, 0.0)
    assert ev.stdf_eval(tri, [0.3, 1.1, 0.6]) == 0.3 + 1.1 + 0.6
    assert tri.marginal_rate() == 0.7
    assert (tri.b, tri.c, tri.atoms) == (0.7, 0.0, ())
