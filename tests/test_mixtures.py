import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from condiid import mixtures as mx
from condiid.diagnostics import default_quantile_grid
from condiid.errors import SpecValidationError, UnsupportedLawError
from condiid.inverse import monotone_inverse
from condiid.mixing import (Beta, FiniteDiscrete, Gamma, LogSeries, MixingLaw, Pareto,
                            PointMass, PositiveStable)


class NanAbove4(MixingLaw):
    """A law whose Laplace transform is e^-x below 4 and NaN from 4 on."""

    family = "nan_above_4"

    def laplace(self, x):
        return math.exp(-x) if x < 4.0 else math.nan

    def params(self):
        return {}


class TestExchNormal:
    def test_rho_zero_columns_uncorrelated(self):
        rng = np.random.default_rng(0)
        sm = mx.sample_exch_normal(0.0, 1.0, 0.0, 2, 60000, rng)
        corr = np.corrcoef(sm.T)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(60000) + 1e-3

    def test_rho_one_columns_identical(self):
        rng = np.random.default_rng(1)
        sm = mx.sample_exch_normal(0.5, 2.0, 1.0, 3, 100, rng)
        assert np.allclose(sm, sm[:, :1])

    def test_rho_half_pairwise_correlation(self):
        rng = np.random.default_rng(2)
        sm = mx.sample_exch_normal(0.0, 1.0, 0.5, 2, 200000, rng)
        corr = np.corrcoef(sm.T)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)

    def test_rho_out_of_range_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SpecValidationError):
            mx.sample_exch_normal(0.0, 1.0, -0.2, 2, 10, rng)

    def test_cdf_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        sm = mx.sample_exch_normal(0.1, 1.3, 0.4, 3, 200000, rng)
        pt = np.array([0.3, -0.2, 0.8])
        emp = (sm <= pt).all(axis=1).mean()
        assert mx.exch_normal_cdf(0.1, 1.3, 0.4, pt) == pytest.approx(emp, abs=0.005)


class TestSphericalCiid:
    def test_unit_mixing_gives_standard_normal(self):
        rng = np.random.default_rng(8)
        sm = mx.sample_spherical_ciid(PointMass(1.0), 2, 50000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "norm").pvalue > 0.001

    def test_scale_mixing(self):
        rng = np.random.default_rng(9)
        c = 2.5
        sm = mx.sample_spherical_ciid(PointMass(c), 2, 50000, rng)
        assert sm.std() == pytest.approx(c, rel=0.02)

    def test_rotational_invariance_two_sample(self):
        rng = np.random.default_rng(10)
        sm = mx.sample_spherical_ciid(Gamma(2.0), 2, 40000, rng)
        rotated = (sm[:, 0] + sm[:, 1]) / math.sqrt(2.0)
        marginal = mx.sample_spherical_ciid(Gamma(2.0), 2, 40000, rng)[:, 0]
        assert stats.ks_2samp(rotated, marginal).pvalue > 0.001

    def test_characteristic_probe_depends_on_norm_only(self):
        # cos-probe at two directions of equal length
        rng = np.random.default_rng(11)
        sm = mx.sample_spherical_ciid(Gamma(1.5), 2, 200000, rng)
        a = 0.9
        u1 = np.array([a, 0.0])
        u2 = np.array([a / math.sqrt(2), a / math.sqrt(2)])
        c1 = np.cos(sm @ u1)
        c2 = np.cos(sm @ u2)
        diff = c1.mean() - c2.mean()
        se = math.sqrt((c1.var() + c2.var()) / len(sm))
        assert abs(diff) <= 3 * se + 1e-3


class TestWilliamson:
    def test_point_mass_closed_form(self):
        r, d = 2.0, 4
        for x in (0.0, 0.5, 1.9, 2.0, 3.0):
            assert mx.williamson_transform(PointMass(r), d, x) == pytest.approx(
                max(1 - x / r, 0.0) ** (d - 1)
            )

    def test_finite_discrete_hand_value(self):
        law = FiniteDiscrete([1.0, 2.0], [0.5, 0.5])
        assert mx.williamson_transform(law, 2, 1.0) == pytest.approx(0.25)

    def test_at_zero(self):
        assert mx.williamson_transform(Gamma(2.0), 3, 0.0) == 1.0

    def test_quadrature_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        law = Gamma(2.0)
        r = law.sample(400000, rng)
        for x in (0.5, 1.5):
            emp = (np.maximum(1 - x / r, 0.0) ** 2).mean()
            assert mx.williamson_transform(law, 3, x) == pytest.approx(emp, abs=0.003)

    def test_non_increasing_in_x(self):
        vals = [mx.williamson_transform(Beta(2, 1), 3, x) for x in np.linspace(0, 1.2, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_laplace_transform_passes_d_monotone_probes(self):
        # (-1)^d * (d-th forward difference) of a completely monotone function
        # is non-negative; probe at ten points per order
        law = Gamma(1.5)
        h = 0.05
        for d in range(1, 6):
            for x in np.linspace(0.0, 3.0, 10):
                forward = sum(
                    (-1) ** (d - i) * math.comb(d, i) * float(law.laplace(x + i * h))
                    for i in range(d + 1)
                )
                assert (-1) ** d * forward >= -1e-12


class TestL1Family:
    def test_l1_symmetric_survival_matches_williamson(self):
        rng = np.random.default_rng(13)
        law = Gamma(3.0)
        d, n = 3, 150000
        # R * S with S uniform on the unit simplex
        data = law.sample(n, rng)[:, None] * rng.dirichlet(np.ones(d), n)
        for pt in ([0.5, 0.4, 0.3], [0.2, 0.9, 0.1]):
            pt = np.asarray(pt)
            emp = (data > pt).all(axis=1).mean()
            closed = mx.williamson_transform(law, d, float(pt.sum()))
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_l1_ciid_unit_mixing_iid_exponential(self):
        rng = np.random.default_rng(14)
        sm = mx.sample_l1_ciid(PointMass(1.0), 2, 50000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "expon").pvalue > 0.001

    def test_l1_ciid_gamma_value(self):
        assert mx.l1_ciid_survival(Gamma(1.0), [1.0, 1.0]) == pytest.approx(1.0 / 3.0)

    def test_marginal_survival_is_laplace_transform(self):
        rng = np.random.default_rng(15)
        law = Gamma(2.0)
        sm = mx.sample_l1_ciid(law, 1, 200000, rng)
        for x in (0.3, 1.0):
            emp = (sm[:, 0] > x).mean()
            assert emp == pytest.approx(float(law.laplace(x)), abs=0.004)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_survival_grid_all_dimensions(self, d):
        rng = np.random.default_rng(16 + d)
        law = Gamma(1.0)
        n = 100000
        sm = mx.sample_l1_ciid(law, d, n, rng)
        rng2 = np.random.default_rng(99)
        for _ in range(20):
            pt = rng2.exponential(0.5, size=d)
            emp = (sm > pt).all(axis=1).mean()
            closed = mx.l1_ciid_survival(law, pt)
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3


def test_l1_sampler_memory_is_its_output():
    """The sampler divides its draw in place: no second n x d array."""
    tracemalloc.start()
    try:
        out = mx.sample_l1_ciid(Gamma(2.0), 5, 200_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * out.nbytes


def test_l1_sample_is_column_major():
    out = mx.sample_l1_ciid(Gamma(2.0), 4, 1000, np.random.default_rng(0))
    assert out.shape == (1000, 4) and out.flags.f_contiguous


class TestArchimedean:
    def test_zero_coordinate(self):
        assert mx.archimedean_copula_eval(Gamma(1.0), [0.0, 0.5]) == 0.0

    def test_gamma_one_hand_value(self):
        assert mx.archimedean_copula_eval(Gamma(1.0), [0.5, 0.5]) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_margins(self):
        for u in (0.2, 0.7):
            val = mx.archimedean_copula_eval(Gamma(2.0), [u, 1.0, 1.0])
            assert val == pytest.approx(u, abs=1e-9)

    def test_generator_inverse_round_trip(self):
        law = Gamma(0.7)
        for u in (0.05, 0.3, 0.9):
            assert float(law.laplace(mx.laplace_inverse(law, u))) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("shape", [0.05, 0.7, 1.0, 2.0, 7.5])
    def test_gamma_inverse_is_the_bisection_in_closed_form(self, shape, monkeypatch):
        law = Gamma(shape)
        us = np.r_[np.geomspace(1e-4, 0.5, 60), 1.0 - np.geomspace(1e-12, 0.5, 60)].tolist()
        bisected = [monotone_inverse(lambda t: law.laplace(t) <= u) for u in us]
        monkeypatch.setattr(Gamma, "laplace", lambda self, x: pytest.fail("phi evaluated"))
        for u, x in zip(us, bisected):
            assert abs(mx.laplace_inverse(law, u) - x) <= 1e-12 * max(1.0, x)
        assert mx.laplace_inverse(law, 1.0) == 0.0
        assert mx.laplace_inverse(law, 0.0) == math.inf

    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.9, 0.999])
    def test_positive_stable_inverse_is_the_bisection_in_closed_form(self, theta, monkeypatch):
        law = PositiveStable(theta)
        us = np.r_[np.geomspace(1e-300, 0.5, 60), 1.0 - np.geomspace(1e-12, 0.5, 60)].tolist()
        bisected = [monotone_inverse(lambda t: law.laplace(t) <= u) for u in us]
        monkeypatch.setattr(PositiveStable, "laplace", lambda self, x: pytest.fail("phi evaluated"))
        for u, x in zip(us, bisected):
            assert abs(mx.laplace_inverse(law, u) - x) <= 1e-12 * max(1.0, x)
        assert mx.laplace_inverse(law, 1.0) == 0.0
        assert mx.laplace_inverse(law, 0.0) == math.inf

    def test_positive_stable_inverse_beyond_the_doubles_is_inf(self):
        assert mx.laplace_inverse(PositiveStable(0.001), 1e-3) == math.inf  # x = 6.9**1000

    def test_gamma_inverse_beyond_the_doubles_is_inf(self):
        assert mx.laplace_inverse(Gamma(0.5), 1e-300) == math.inf  # x = 1e600
        assert mx.laplace_inverse(Gamma(2.0), 1e-300) == pytest.approx(1e150, rel=1e-14)

    def test_generator_inverse_at_atom_at_zero(self):
        # phi(x) = (1 + e^-x) / 2 stays above 1/2 but rounds onto it near x = 37
        law = FiniteDiscrete([0.0, 1.0], [0.5, 0.5])
        assert mx.laplace_inverse(law, 0.5) == math.inf
        assert mx.laplace_inverse(law, 0.4) == math.inf
        assert mx.laplace_inverse(law, 0.6) == pytest.approx(math.log(5.0), rel=1e-11)

    @staticmethod
    def copula_point_by_point(law, point):
        """The copula at one point, each coordinate inverted on its own."""
        if 0.0 in point:
            return 0.0
        total = sum(mx.laplace_inverse(law, v) for v in point)
        return 0.0 if math.isinf(total) else float(law.laplace(total))

    @pytest.mark.parametrize("law", [
        Pareto(2.0), Gamma(2.0), FiniteDiscrete([0.5, 1.0, 2.0], [0.2, 0.3, 0.5]), LogSeries(1.0),
    ], ids=["pareto", "gamma", "finite_discrete", "log_series"])
    def test_each_distinct_value_is_inverted_once(self, law, monkeypatch):
        """A default grid repeats its five quantiles: five inversions, and the
        bits of the point-by-point evaluation.  A point with a zero coordinate
        inverts none of its coordinates."""
        grid = default_quantile_grid(lambda q: q, 12)
        grid = np.r_[grid, [[0.0] + [0.3] * 11]]
        expected = np.array([self.copula_point_by_point(law, p) for p in grid.tolist()])
        inverse, calls = mx.laplace_inverse, []
        monkeypatch.setattr(mx, "laplace_inverse",
                            lambda law, u: calls.append(u) or inverse(law, u))
        out = mx.archimedean_copula_eval(law, grid)
        assert sorted(calls) == [0.1, 0.25, 0.5, 0.75, 0.9]
        assert out.tobytes() == expected.tobytes()

    def test_nan_laplace_transform_is_refused_by_name(self):
        # NaN <= u is False: the bisection would climb on it to inf
        with pytest.raises(UnsupportedLawError,
                           match=r"^NanAbove4\(\): the Laplace transform is NaN at x = "):
            mx.laplace_inverse(NanAbove4(), 1e-6)

    @pytest.mark.parametrize("law", [Beta(0.05, 1.0), Beta(0.05, 3.0)], ids=repr)
    def test_inverse_above_two_to_the_300_is_finite(self, law):
        """A bracket grown by at most 300 doublings gave inf, or met the NaN
        of hyp1f1 at x = 2^36 after seconds of calls."""
        x = mx.laplace_inverse(law, 1e-6)
        assert 1e90 < x < math.inf
        assert law.laplace(x) <= 1e-6 < law.laplace(math.nextafter(x, 0.0))
        assert mx.archimedean_copula_eval(law, [1e-6, 1.0]) == pytest.approx(1e-6, rel=1e-12)

    def test_empirical_copula_matches_evaluator(self):
        rng = np.random.default_rng(20)
        law = Gamma(1.0)
        d, n = 2, 150000
        xs = mx.sample_l1_ciid(law, d, n, rng)
        us = np.asarray(law.laplace(xs))
        for u in ([0.3, 0.6], [0.5, 0.5], [0.8, 0.2], [0.9, 0.9], [0.25, 0.75]):
            emp = (us <= np.asarray(u)).all(axis=1).mean()
            closed = mx.archimedean_copula_eval(law, u)
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_frank_third_moment_expression_negative(self):
        # radial-symmetry obstruction: the centered third moment of H_{1/2}
        # is strictly negative for the log-series generator
        for theta in (0.5, 1.0, 2.0, 5.0):
            law = LogSeries(theta)
            half = mx.laplace_inverse(law, 0.5)
            val = float(law.laplace(3 * half)) - 1.5 * float(law.laplace(2 * half)) + 0.25
            assert val < 0.0


class TestGnedin:
    def test_pareto_closed_form(self):
        law = Pareto(1.5)
        for d in (1, 2, 3):
            for x in (0.0, 0.5, 1.0, 2.0):
                expect = law.alpha / (d + law.alpha) * max(1.0, x) ** (-d - law.alpha)
                assert mx.gnedin_g(law, d, x) == pytest.approx(expect, rel=1e-9)

    def test_unit_point_mass(self):
        assert mx.gnedin_g(PointMass(1.0), 2, 0.5) == pytest.approx(1.0)
        assert mx.gnedin_g(PointMass(1.0), 2, 1.5) == 0.0

    def test_normalization(self):
        for law in (Pareto(2.0), Gamma(2.0)):
            for d in (1, 2, 3):
                fn = lambda x: d * x ** (d - 1) * mx.gnedin_g(law, d, x)
                head, _ = integrate.quad(fn, 0, 1, limit=300)
                tail, _ = integrate.quad(fn, 1, np.inf, limit=300)
                assert head + tail == pytest.approx(1.0, abs=1e-6)

    def test_margining_recursion(self):
        law = Pareto(1.3)
        for x in (0.3, 0.8, 1.7):
            lhs = mx.gnedin_g(law, 1, x)
            tail, _ = integrate.quad(lambda u: mx.gnedin_g(law, 2, u), x, np.inf, limit=300)
            assert lhs == pytest.approx(tail + x * mx.gnedin_g(law, 2, x), abs=1e-8)

    def test_beta_negative_moment_at_zero(self):
        # g_d(0) = E[M^-d] = p/(p - d) for Beta(p, 1), and diverges for p <= d,
        # although M^-d overflows at the rule's nodes next to 0
        assert mx.gnedin_g(Beta(12.0, 1.0), 10, 0.0) == pytest.approx(6.0, rel=1e-12)
        assert mx.gnedin_g(Beta(5.0, 1.0), 2, 0.0) == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert mx.gnedin_g(Beta(1.5, 1.0), 2, 0.0) == math.inf

    def test_non_increasing(self):
        vals = [mx.gnedin_g(Gamma(2.0), 2, x) for x in np.linspace(0, 4, 15)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLinf:
    def test_survival_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        law = Pareto(3.0)
        sm = mx.sample_linf_ciid(law, 2, 150000, rng)
        for pt in ([0.4, 0.8], [1.0, 0.2]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = mx.linf_ciid_survival(law, pt)
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_rows_conditionally_uniform(self):
        rng = np.random.default_rng(22)
        sm = mx.sample_linf_ciid(PointMass(2.0), 3, 20000, rng)
        assert sm.max() <= 2.0
        assert stats.kstest(sm.ravel() / 2.0, "uniform").pvalue > 0.001

    def test_sampled_g2_non_increasing_by_isotonic_residual(self):
        rng = np.random.default_rng(23)
        law = Pareto(2.0)
        sm = mx.sample_linf_ciid(law, 2, 200000, rng)
        m = sm.max(axis=1)
        hi = np.quantile(m, 0.99)
        counts, edges = np.histogram(m, bins=30, range=(0.0, hi))
        centers = 0.5 * (edges[1:] + edges[:-1])
        width = edges[1] - edges[0]
        # f_max(x) = 2 x g_2(x), so g2_hat = density / (2x)
        g2_hat = counts / (len(sm) * width) / (2.0 * centers)
        fit = optimize.isotonic_regression(g2_hat, weights=counts + 1.0, increasing=False).x
        resid = np.sqrt(np.mean((g2_hat - fit) ** 2)) / g2_hat.mean()
        assert resid < 0.05

    def test_marginal_cdf(self):
        """One minus the survival at a one-coordinate point."""
        law = Pareto(1.0)
        for x in (0.3, 0.9, 2.0):
            assert 1.0 - mx.linf_ciid_survival(law, [x]) == pytest.approx(
                mx.pareto_uniform_marginal_cdf(1.0, x), abs=1e-9
            )


class TestParetoUniformCopula:
    def test_normalization_and_margins(self):
        assert mx.pareto_uniform_copula(1.0, 1.0, 1.0) == 1.0
        for u in (0.2, 0.8):
            assert mx.pareto_uniform_copula(1.3, u, 1.0) == pytest.approx(u)
        assert mx.pareto_uniform_copula(2.0, 0.0, 0.7) == 0.0

    def test_lower_branch_product_form(self):
        alpha = 1.0
        u1, u2 = 0.3, 0.4  # both below alpha/(1+alpha) = 0.5
        expect = (1 + alpha) ** 2 / (alpha * (alpha + 2)) * u1 * u2
        assert mx.pareto_uniform_copula(alpha, u1, u2) == pytest.approx(expect)

    def test_branches_are_continuous(self):
        alpha = 1.7
        split = alpha / (1 + alpha)
        for other in (0.2, split, 0.9):
            lo = mx.pareto_uniform_copula(alpha, split - 1e-9, other)
            hi = mx.pareto_uniform_copula(alpha, split + 1e-9, other)
            assert lo == pytest.approx(hi, abs=1e-6)

    def test_copula_matches_transformed_samples(self):
        rng = np.random.default_rng(24)
        alpha = 1.0
        sm = mx.sample_linf_ciid(Pareto(alpha), 2, 200000, rng)
        us = np.vectorize(lambda v: mx.pareto_uniform_marginal_cdf(alpha, v))(sm)
        for u in ([0.3, 0.4], [0.5, 0.9], [0.85, 0.85]):
            emp = (us <= np.asarray(u)).all(axis=1).mean()
            closed = mx.pareto_uniform_copula(alpha, *u)
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 2e-3

    def test_upper_tail_dependence(self):
        rng = np.random.default_rng(25)
        alpha = 1.0
        sm = mx.sample_linf_ciid(Pareto(alpha), 2, 400000, rng)
        x = np.quantile(sm[:, 1], 0.995)
        cond = (sm[:, 0] > x)[sm[:, 1] > x].mean()
        assert cond == pytest.approx(2.0 / (2.0 + alpha), abs=0.05)


def truncated_negative_moment(law, j, x):
    """E[M^{-j}; M > x] at 40 digits, in closed form: an upper incomplete
    gamma function, an incomplete beta function in 1 - M, or a Pareto power."""
    import mpmath

    x = mpmath.mpf(x)
    if isinstance(law, Gamma):
        return mpmath.gammainc(law.shape - j, x) / mpmath.gamma(law.shape)
    if isinstance(law, Beta):
        if x >= 1:
            return mpmath.mpf(0)
        return mpmath.betainc(law.q, law.p - j, 0, 1 - x) / mpmath.beta(law.p, law.q)
    return law.alpha / (law.alpha + j) * max(x, 1) ** (-law.alpha - j)


MPMATH_LAWS = [Gamma(2.0), Gamma(0.5), Gamma(0.1), Beta(2.0, 3.0), Beta(0.5, 0.5), Beta(2.0, 0.3),
               Beta(0.1, 0.1), Pareto(3.0), Pareto(0.7), Pareto(0.3)]


@pytest.mark.parametrize("law", MPMATH_LAWS, ids=repr)
class TestMpmathOracle:
    """The M-expectations of the linf and l1 families against 40-digit
    references that expand the integrand in powers of 1/M, at points below
    and above Pareto's support end 1 and at its marginal kink x = 1.  The
    shapes 0.1 and Pareto(0.3) need the rule's nodes far out at both ends."""

    def test_linf_survival(self, law):
        import mpmath

        with mpmath.workdps(40):
            for x in ([0.2, 0.5, 0.7], [0.3, 1.4, 2.5], [1.0, 0.4]):
                coeff = [mpmath.mpf(1)]  # prod_k (1 - x_k t), lowest power first
                for xk in x:
                    coeff = [a - xk * b for a, b in zip(coeff + [0], [0] + coeff)]
                ref = mpmath.fsum(c * truncated_negative_moment(law, j, max(x))
                                  for j, c in enumerate(coeff))
                assert mx.linf_ciid_survival(law, x) == pytest.approx(float(ref), rel=1e-9)

    def test_linf_marginal_cdf(self, law):
        import mpmath

        with mpmath.workdps(40):
            for x in (0.3, 1.0, 2.5):
                ref = 1 - truncated_negative_moment(law, 0, x) + x * truncated_negative_moment(law, 1, x)
                assert 1.0 - mx.linf_ciid_survival(law, [x]) == pytest.approx(float(ref), rel=1e-9)

    def test_linf_marginal_survival_far_out(self, law):
        """E[1 - x/M; M > x], which the inversion for a quantile probes up to
        the largest double.  1 - P(M <= x) - x E[1/M; M > x] was 5e-4 for
        Pareto(2.5) at x = 1e10, where the survival is 2.9e-26, and negative
        at 1e50.  The exp-sinh nodes x + X lost X below x 2^-53 and gave
        Pareto(3) half its survival at 1e50; at the scale of x, as x + x X,
        the survival is exact to 1e-12 up to x = 1e150.  At 1e300 the density
        of Pareto(0.3) underflows to 0, and so does the survival."""
        import mpmath

        with mpmath.workdps(40):
            for x in (10.0, 1e3, 1e10, 1e50, 1e150, 1e300):
                ref = truncated_negative_moment(law, 0, x) - x * truncated_negative_moment(law, 1, x)
                got = mx.linf_ciid_survival(law, [x])
                if ref < np.finfo(float).tiny:
                    assert 0.0 <= got <= np.finfo(float).tiny
                elif x <= 1e150:
                    assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)
                else:
                    assert 0.0 <= got <= float(ref)

    def test_williamson_transform(self, law):
        import mpmath

        with mpmath.workdps(40):
            for d in (2, 5):
                for x in (0.3, 1.0, 2.5):
                    ref = mpmath.fsum(math.comb(d - 1, j) * (-mpmath.mpf(x)) ** j
                                      * truncated_negative_moment(law, j, x) for j in range(d))
                    assert mx.williamson_transform(law, d, x) == pytest.approx(float(ref), rel=1e-9)


@pytest.mark.parametrize("alpha", [3.0, 0.7])
def test_pareto_laplace_against_mpmath(alpha):
    # phi(x) = alpha x^alpha Gamma(-alpha, x)
    import mpmath

    law = Pareto(alpha)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for x in (1e-8, 1e-3, 1.0, 30.0):
            ref = a * mpmath.mpf(x) ** a * mpmath.gammainc(-a, x)
            assert law.laplace(x) == pytest.approx(float(ref), rel=1e-9)


def mpmath_laplace(law, x):
    """E[exp(-x M)] in mpmath, in closed form for each law."""
    import mpmath

    if isinstance(law, Beta):
        return mpmath.hyp1f1(law.p, mpmath.mpf(law.p) + law.q, -x, maxterms=10**5)
    if isinstance(law, Pareto):
        return law.alpha * x ** law.alpha * mpmath.gammainc(-law.alpha, x)
    if isinstance(law, LogSeries):
        return mpmath.log1p(-law.q * mpmath.exp(-x)) / mpmath.log1p(-law.q)
    return mpmath.fsum(w * mpmath.exp(-x * m) for m, w in zip(law.atoms.tolist(), law.weights.tolist()))


MAX = np.finfo(float).max
# Gamma(p+q)/Gamma(q) is beyond the doubles for the last three Beta laws
BIG_BETA = [Beta(200.0, 1.0), Beta(150.0, 150.0), Beta(1000.0, 1000.0)]
INVERSE_LAWS = [Beta(0.05, 1.0), Beta(2.0, 3.0), Beta(0.5, 0.5), Beta(10.0, 3.0), *BIG_BETA,
                Pareto(2.0), Pareto(0.3), LogSeries(1.0),
                FiniteDiscrete([0.5, 1.0, 2.0], [0.2, 0.3, 0.5])]


@pytest.mark.parametrize("law", INVERSE_LAWS, ids=repr)
def test_laplace_inverse_against_mpmath_findroot(law):
    """The least double with phi(x) <= u against the root of log phi(e^t) =
    log u that mpmath finds on a bracket, where that root is a double; where
    phi stays above u up to the largest double, the inverse is inf.
    Pareto(0.3) leaves out u = 0.9: its phi near x = 2e-4 is off by about
    1e-8 (the exp-sinh rule at small alpha and x), which the elasticity
    0.03 makes 3e-7 in x."""
    import mpmath

    pareto_03 = isinstance(law, Pareto) and law.alpha == 0.3
    us = [0.3, 1e-6, 1e-100, 1e-300] + ([] if pareto_03 else [0.9])
    with mpmath.workdps(40):
        for u in us:
            x = mx.laplace_inverse(law, u)
            top = 1e4 if mpmath_laplace(law, mpmath.mpf(1e4)) < u else MAX
            if mpmath_laplace(law, mpmath.mpf(top)) > u:
                assert x == math.inf
                continue
            f = lambda t: mpmath.log(mpmath_laplace(law, mpmath.exp(t))) - mpmath.log(u)
            root = mpmath.exp(mpmath.findroot(f, (mpmath.log(1e-30), mpmath.log(top)),
                                              solver="illinois", maxsteps=500))
            assert x == pytest.approx(float(root), rel=1e-13, abs=0.0)


COPULA_LAWS = [Gamma(2.0), Pareto(2.0), Beta(0.05, 1.0), Beta(2.0, 3.0), *BIG_BETA,
               Pareto(0.3), LogSeries(1.0)]


@pytest.mark.parametrize("law", COPULA_LAWS, ids=repr)
@pytest.mark.parametrize("u", [1e-300, 1e-100, 1e-6, 0.3])
def test_archimedean_margin_is_uniform(law, u):
    """C(u, 1) = phi(phi^-1(u)) = u, as each margin is uniform.  Where phi
    stays above u at the largest double, no double is phi^-1(u): Beta(0.05,
    1) has phi = 3.8e-16 there, so u = 1e-100 and 1e-300 give inf and a
    copula of 0, within u of the truth."""
    value = mx.archimedean_copula_eval(law, [u, 1.0])
    if law.laplace(MAX) > u:
        assert mx.laplace_inverse(law, u) == math.inf and value == 0.0
    else:
        assert value == pytest.approx(u, rel=1e-12, abs=0.0)
