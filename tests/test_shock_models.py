import json
import math

import numpy as np
import pytest
from scipy import stats

import additive_oracle as oracle
from test_cli import run as cli_run
from condiid import lack_of_memory as lom
from condiid import shock_models as sk
from condiid.errors import DimensionCapError, SpecValidationError


EXP_SPEC = sk.ShockSurvivalSpec(
    (sk.ExponentialShock(0.3), sk.ExponentialShock(0.2), sk.ExponentialShock(0.1))
)


class TestShockLaws:
    LAWS = [
        sk.ExponentialShock(0.7),
        sk.WeibullShock(1.4, 0.8),
        sk.ParetoShock(2.0, 1.5),
        sk.StepShock((0.5, 1.5, 3.0), (0.6, 0.2, 0.0)),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
    def test_sample_matches_survival(self, law):
        rng = np.random.default_rng(50)
        e = law.sample(200000, rng)
        for x in (0.3, 1.0, 2.0):
            emp = (e > x).mean()
            assert emp == pytest.approx(float(law.survival(x)), abs=0.004)

    def test_zero_rate_never_fires(self):
        rng = np.random.default_rng(51)
        assert np.isinf(sk.ExponentialShock(0.0).sample(10, rng)).all()
        assert sk.ExponentialShock(0.0).survival(np.inf) == 1.0
        assert sk.ExponentialShock(0.0).survival([0.0, np.inf]).tolist() == [1.0, 1.0]

    def test_step_mass_at_infinity(self):
        rng = np.random.default_rng(52)
        law = sk.StepShock((1.0,), (0.25,))
        e = law.sample(100000, rng)
        assert np.isinf(e).mean() == pytest.approx(0.25, abs=0.005)

    def test_json_round_trip(self):
        # literal model JSON of each kind, the law it reads as and its survival at 1
        for obj, law, survival_1 in [
            ({"kind": "exponential", "rate": 0.7}, sk.ExponentialShock(0.7), math.exp(-0.7)),
            ({"kind": "weibull", "shape": 1.4, "scale": 0.8}, sk.WeibullShock(1.4, 0.8),
             math.exp(-(1.25**1.4))),
            ({"kind": "weibull", "shape": 1.4}, sk.WeibullShock(1.4, 1.0), math.exp(-1.0)),
            ({"kind": "pareto", "alpha": 2.0, "scale": 1.5}, sk.ParetoShock(2.0, 1.5), 0.36),
            ({"kind": "step", "points": [0.5, 1.5, 3], "values": [0.6, 0.2, 0]},
             sk.StepShock((0.5, 1.5, 3.0), (0.6, 0.2, 0.0)), 0.6),
        ]:
            back = sk.shock_from_json(obj)
            assert back == law
            assert back.survival(1.0) == pytest.approx(survival_1, rel=1e-15)


class TestExshock:
    @pytest.mark.parametrize("point", [[-math.inf, 1.0, 1.0], [-1e308, -1e308, 0.0],
                                       [0.5, -0.1, 0.2]])
    def test_negative_coordinates_rejected(self, point):
        # the CLI's one domain check refuses the point; exshock_survival checks nothing
        shocks = [{"kind": "exponential", "rate": rate} for rate in (0.3, 0.2, 0.1)]
        model = json.dumps({"family": "exshock", "shocks": shocks})
        code, out, err = cli_run(["eval", "--model", model, "--point", json.dumps(point)])
        assert (code, out) == (1, "")
        assert err == f"error: survival point {point} lies outside the domain [0, inf]^d\n"

    @pytest.mark.parametrize("shocks, point", [
        ((sk.ExponentialShock(1.0),), [math.inf]),
        ((sk.ExponentialShock(1.0),), [800.0]),
        ((sk.ExponentialShock(1.0), sk.ExponentialShock(0.0)), [800.0, 0.0]),
    ], ids=["d1_inf", "d1_800", "d2_800"])
    def test_survival_below_the_least_double_is_zero(self, shocks, point):
        # exp(-800) is below the least double, so the survival is 0, not a floor
        assert sk.exshock_survival(sk.ShockSurvivalSpec(shocks), point) == 0.0

    def test_sample_is_column_major(self):
        out = sk.exshock_sample(EXP_SPEC, 3, 1000, np.random.default_rng(0))
        assert out.shape == (1000, 3) and out.flags.f_contiguous

    def test_exponential_case_reduces_to_lack_of_memory(self):
        lspec = lom.ShockRateSpec(d=3, cardinality=(0.3, 0.2, 0.1))
        params = lom.exponents(lspec.cardinality)
        rng = np.random.default_rng(53)
        for _ in range(20):
            pt = rng.exponential(1.0, 3)
            assert sk.exshock_survival(EXP_SPEC, pt) == pytest.approx(
                float(lom.mo_survival(params, pt)), rel=1e-10
            )

    def test_dimension_cap(self):
        spec = sk.ShockSurvivalSpec((sk.ExponentialShock(0.1),) * 21)
        with pytest.raises(DimensionCapError):
            sk.exshock_sample(spec, 21, 10, np.random.default_rng(0))

    def test_sampler_matches_survival(self):
        rng = np.random.default_rng(54)
        spec = sk.ShockSurvivalSpec(
            (sk.WeibullShock(1.5, 1.0), sk.ExponentialShock(0.2), sk.ParetoShock(1.5, 2.0))
        )
        sm = sk.exshock_sample(spec, 3, 100000, rng)
        for pt in ([0.5, 0.3, 0.8], [0.2, 0.2, 0.2]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(sk.exshock_survival(spec, pt))
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_copula_consistency_with_survival(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            pt = rng.exponential(1.5, 3)
            us = np.array([float(sk.exshock_marginal_survival(EXP_SPEC, v)) for v in pt])
            assert sk.exshock_copula_eval(EXP_SPEC, us) == pytest.approx(
                float(sk.exshock_survival(EXP_SPEC, pt)), abs=1e-9
            )

    def test_idiosyncratic_only_is_independence_copula(self):
        spec = sk.ShockSurvivalSpec(
            (sk.ExponentialShock(0.7), sk.ExponentialShock(0.0), sk.ExponentialShock(0.0))
        )
        u = np.array([0.3, 0.6, 0.9])
        assert sk.exshock_copula_eval(spec, u) == pytest.approx(float(np.prod(u)), abs=1e-9)

    def test_global_only_is_comonotone_copula(self):
        spec = sk.ShockSurvivalSpec(
            (sk.ExponentialShock(0.0), sk.ExponentialShock(0.0), sk.ExponentialShock(0.5))
        )
        u = np.array([0.3, 0.6, 0.9])
        assert sk.exshock_copula_eval(spec, u) == pytest.approx(0.3, abs=1e-9)

    def test_each_distinct_value_is_inverted_once(self, monkeypatch):
        """The sorted points share the values of a default grid: one marginal
        inversion per distinct value above each point's least one, and the bits
        of the point-by-point evaluation."""
        spec = sk.ShockSurvivalSpec((sk.WeibullShock(1.5, 1.0), sk.ExponentialShock(0.2),
                                     sk.ParetoShock(1.5, 2.0), sk.ExponentialShock(0.1)))
        qs = (0.1, 0.25, 0.5, 0.75, 0.9)
        grid = np.array([[q] * 4 for q in qs] + [[qs[(i + j) % 5] for j in range(4)]
                                                 for i in range(5)] + [[0.3, 0.0, 0.6, 0.9]])

        def point_by_point(u):
            s = np.sort(u)
            if s[0] == 0.0:
                return 0.0
            value = float(s[0])
            for k in range(2, 5):
                x = sk.exshock_marginal_inverse(spec, float(s[k - 1]))
                value *= float(np.exp(sk._log_g(spec, k, x)))
            return value

        expected = np.array([point_by_point(u) for u in grid])
        inverse, calls = sk.exshock_marginal_inverse, []
        monkeypatch.setattr(sk, "exshock_marginal_inverse",
                            lambda spec, u: calls.append(u) or inverse(spec, u))
        out = sk.exshock_copula_eval(spec, grid)
        assert sorted(calls) == list(qs)
        assert out.tobytes() == expected.tobytes()

    def test_marginal_inverse_far_out_is_exact_and_quiet(self):
        """Survival (1 + 2x)^-0.001 stays above u = 0.3 on every double (0.49
        at the largest), so the inversion probes up to the largest, where
        1 + x / 0.5 overflowed to a survival of 0.  At u = 0.9 the inverse is
        (0.9^-1000 - 1) / 2 = 3.4e45, beyond the 2^300 a bracket grown by
        doubling reached."""
        spec = sk.ShockSurvivalSpec([sk.ParetoShock(alpha=0.001, scale=0.5),
                                     sk.ExponentialShock(rate=0.0)])
        assert sk.exshock_marginal_inverse(spec, 0.3) == math.inf
        x = sk.exshock_marginal_inverse(spec, 0.9)
        assert x == pytest.approx((0.9**-1000 - 1.0) / 2.0, rel=1e-9)
        assert sk.exshock_marginal_survival(spec, x) <= 0.9
        # exp(-(x / 0.5)^0.001) is 0.131 at the largest double, where x / 0.5
        # overflowed to a survival of 0 and an inverse of 9.0e307 at u = 0.1
        weibull, top = sk.WeibullShock(shape=0.001, scale=0.5), np.finfo(float).max
        assert weibull.survival(top) == pytest.approx(
            math.exp(-math.exp(0.001 * (math.log(top) - math.log(0.5)))), rel=1e-14, abs=0.0)
        spec = sk.ShockSurvivalSpec([weibull, sk.ExponentialShock(rate=0.0)])
        assert sk.exshock_marginal_inverse(spec, 0.1) == math.inf
        assert sk.exshock_marginal_inverse(spec, 0.2) == pytest.approx(
            0.5 * math.exp(1000.0 * math.log(-math.log(0.2))), rel=1e-9)

    def test_diagonal_matches_empirical_copula(self):
        rng = np.random.default_rng(56)
        sm = sk.exshock_sample(EXP_SPEC, 3, 150000, rng)
        for u in (0.25, 0.5, 0.75):
            x = sk.exshock_marginal_inverse(EXP_SPEC, u)
            emp = (sm > x).all(axis=1).mean()
            closed = sk.exshock_copula_eval(EXP_SPEC, np.full(3, u))
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3


class TestAdditiveFamilies:
    def test_levy_piece_reduces_to_ordered_gap_form(self):
        sub = lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5),))
        psi = oracle.levy(sub)
        params = lom.exponents(sub.subset_rates(3)[1:])
        rng = np.random.default_rng(57)
        for _ in range(20):
            pt = rng.exponential(1.0, 3)
            assert oracle.additive_survival(psi, pt) == pytest.approx(
                float(lom.mo_survival(params, pt)), rel=1e-10
            )

    def test_at_zero(self):
        assert oracle.additive_survival(oracle.sato(2.0), [0.0, 0.0]) == 1.0

    def test_d1_marginal_definition(self):
        psi = oracle.dirichlet_prior(1.5, sk.UniformBase())
        for x in (0.2, 0.7):
            assert oracle.additive_survival(psi, [x]) == pytest.approx(
                math.exp(-psi(x, 1)), rel=1e-12
            )

    def test_non_increasing_and_exchangeable(self):
        psi = oracle.dirichlet_prior(0.8, sk.UniformBase())
        rng = np.random.default_rng(58)
        prev = None
        for x in np.linspace(0.05, 0.9, 8):
            val = oracle.additive_survival(psi, [x, x, x])
            if prev is not None:
                assert val <= prev + 1e-12
            prev = val
        for _ in range(10):
            pt = rng.random(3)
            base = oracle.additive_survival(psi, pt)
            assert oracle.additive_survival(psi, pt[::-1]) == pytest.approx(base, rel=1e-12)

    def test_increment_exponents_are_bernstein_like(self):
        # psi_t - psi_s must have completely monotone finite differences
        psi = oracle.dirichlet_prior(1.2, sk.UniformBase())
        s, t = 0.3, 0.6
        h = 0.25
        xs = np.linspace(0.5, 4.0, 8)
        diff = lambda x: psi(t, x) - psi(s, x)
        for x in xs:
            d1 = (diff(x + h) - diff(x - h)) / (2 * h)
            d2 = (diff(x + h) - 2 * diff(x) + diff(x - h)) / h**2
            assert d1 >= -1e-9
            assert d2 <= 1e-9


class TestDirichletPrior:
    def test_psi_closed_form_matches_integral(self):
        psi = oracle.dirichlet_prior(1.7, sk.UniformBase())
        quad = oracle.dirichlet_prior_quad(1.7, sk.UniformBase())
        for t in (0.2, 0.5, 0.9):
            for x in (1, 2, 3.5):
                assert psi(t, x) == pytest.approx(quad(t, x), abs=1e-7)

    def test_copula_hand_value(self):
        assert sk.dp_copula_eval(1.0, [0.5, 0.5]) == pytest.approx(0.375)

    def test_copula_d3_hand_value(self):
        assert sk.dp_copula_eval(1.0, [0.3, 0.5, 0.7]) == pytest.approx(0.3 * 0.75 * 0.9)

    def test_zero_coordinate(self):
        assert sk.dp_copula_eval(2.0, [0.0, 0.5]) == 0.0

    def test_limits(self):
        u = [0.3, 0.5, 0.7]
        assert sk.dp_copula_eval(1e8, u) == pytest.approx(float(np.prod(u)), abs=1e-6)
        assert sk.dp_copula_eval(1e-8, u) == pytest.approx(min(u), abs=1e-6)

    @pytest.mark.parametrize("base", [sk.UniformBase(), sk.ExponentialBase(1.0),
                                      sk.NormalBase(0.0, 1.0)], ids=lambda b: b.family)
    def test_additive_survival_equals_copula_form(self, base):
        psi = oracle.dirichlet_prior(1.7, base)
        rng = np.random.default_rng(59)
        for _ in range(10):
            pt = rng.random(3)
            assert oracle.additive_survival(psi, pt) == pytest.approx(
                sk.dp_survival(1.7, base, pt), rel=1e-9
            )

    def test_urn_sampler_against_copula(self):
        rng = np.random.default_rng(60)
        c, n = 1.0, 150000
        sm = sk.sample_dp(c, sk.UniformBase(), 2, n, rng)
        emp = (sm <= 0.5).all(axis=1).mean()
        assert emp == pytest.approx(0.375, abs=3 * math.sqrt(0.375 * 0.625 / n) + 1e-3)

    def test_urn_sampler_survival_grid(self):
        rng = np.random.default_rng(61)
        c, n = 2.5, 100000
        base = sk.ExponentialBase(1.0)
        sm = sk.sample_dp(c, base, 3, n, rng)
        for pt in ([0.5, 0.2, 1.0], [0.1, 0.1, 0.1]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = sk.dp_survival(c, base, pt)
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_concentration_limits_in_samples(self):
        rng = np.random.default_rng(62)
        tight = sk.sample_dp(1e-6, sk.UniformBase(), 3, 2000, rng)
        assert (tight == tight[:, :1]).mean() > 0.99
        loose = sk.sample_dp(1e6, sk.UniformBase(), 2, 50000, rng)
        corr = np.corrcoef(loose.T)[0, 1]
        assert abs(corr) < 0.02

    def test_radial_symmetry_contrast(self):
        from condiid.diagnostics import radial_symmetry_test

        rng = np.random.default_rng(63)
        dp = sk.sample_dp(1.0, sk.UniformBase(), 2, 40000, rng)
        assert radial_symmetry_test(dp, 0.5)
        mo = lom.sample_mo_shocks(
            lom.ShockRateSpec(d=2, cardinality=(0.5, 0.5)), 2, 40000, rng
        )
        assert not radial_symmetry_test(mo, float(np.median(mo)))


class TestSato:
    def test_d1_closed_form(self):
        assert sk.sato_survival(1.0, [1.0]) == pytest.approx(0.5)
        assert sk.sato_survival(2.0, [3.0]) == pytest.approx(16 ** (-1.0))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_no_overflow_at_the_largest_doubles(self, alpha):
        import mpmath

        x = [1e308] * 3
        with mpmath.workdps(50):
            s = mpmath.mpf(1e308)
            exact = ((2 * s + 1) / (3 * s + 1) * (s + 1) / (2 * s + 1) / (s + 1)) ** alpha
        # 1/3e308 is subnormal, with 49 significant bits
        assert sk.sato_survival(alpha, x) == pytest.approx(float(exact), rel=1e-12)
        assert sk.sato_survival(alpha, [1e308, np.inf, 1.0]) == 0.0

    def test_agrees_with_additive_on_grid(self):
        rng = np.random.default_rng(64)
        for alpha in (0.7, 1.0, 2.3):
            for _ in range(10):
                pt = rng.exponential(1.0, 3)
                assert sk.sato_survival(alpha, pt) == pytest.approx(
                    oracle.additive_survival(oracle.sato(alpha), pt), abs=1e-12
                )

    def test_inversion_sampler_reproduces_survival(self):
        from condiid.diagnostics import conditional_inversion_sampler

        rng = np.random.default_rng(65)
        alpha, n = 1.0, 60000
        sm = conditional_inversion_sampler(lambda pts: sk.sato_survival(alpha, pts), 2, n, rng)
        for pt in ([0.5, 0.5], [1.0, 0.3], [2.0, 2.0]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(sk.sato_survival(alpha, pt))
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_margins_are_shifted_pareto(self):
        from condiid.diagnostics import conditional_inversion_sampler

        rng = np.random.default_rng(66)
        sm = conditional_inversion_sampler(lambda pts: sk.sato_survival(1.0, pts), 2, 30000, rng)
        # survival (1+x)^-1 equals a Lomax law
        assert stats.kstest(sm[:, 0], "lomax", args=(1.0,)).pvalue > 0.001

    @pytest.mark.parametrize("alpha", [0.3, 1.05, 3.0])
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_exact_sampler_reproduces_survival(self, d, alpha):
        from condiid.diagnostics import default_quantile_grid

        n = 20000
        sm = sk.sample_sato(alpha, d, n, np.random.default_rng(67))
        grid = default_quantile_grid(lambda q: (1.0 - q) ** (-1.0 / alpha) - 1.0, d)
        for pt in grid:
            emp = (sm > pt).all(axis=1).mean()
            closed = float(sk.sato_survival(alpha, pt))
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_exact_sampler_ties_on_the_diagonal(self):
        # alpha = 1, d = 2: the singular part of the law has mass 2 ln 2 - 1
        n = 100000
        sm = sk.sample_sato(1.0, 2, n, np.random.default_rng(68))
        share = (sm[:, 0] == sm[:, 1]).mean()
        exact = 2 * math.log(2) - 1
        assert abs(share - exact) <= 3 * math.sqrt(exact * (1 - exact) / n)

    class FirstWait:
        """A generator whose first standard exponential draw, the first wait of row 0, is ``wait``."""

        def __init__(self, seed, wait):
            self.rng, self.wait = np.random.default_rng(seed), wait

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_exponential(self, size):
            out = self.rng.standard_exponential(size)
            if self.wait is not None:
                out.flat[0], self.wait = self.wait, None
            return out

    def test_exact_sampler_leaves_time_zero_on_a_zero_barrier(self):
        # an exponential draw of exactly 0.0 has probability 2^-53; force one
        # as the first wait, which puts the first death at t = 0
        with np.errstate(all="raise"):
            sm = sk.sample_sato(1.0, 2, 3, self.FirstWait(70, 0.0))
        assert sm[0].min() == np.finfo(float).tiny
        assert np.isfinite(sm).all() and (sm > 0).all()

    def test_exact_sampler_where_a_jump_kills_all(self):
        # a first wait of 50 puts the first death at t1 = expm1(50)/3, whose
        # jump kills each one alive with probability 1 - exp(-t1*Y), 1.0 in doubles
        with np.errstate(all="raise"):
            sm = sk.sample_sato(1.0, 3, 3, self.FirstWait(72, 50.0))
        assert (sm[0] == math.expm1(50.0) / 3).all()
        assert np.isfinite(sm).all() and (sm > 0).all()

    def test_exact_sampler_overflows_the_first_death_to_inf(self):
        # a first wait of 800 > 709.78*alpha overflows exp(800) at t0 = 0: the
        # first death is at inf, where the jump kills all, not at 0*inf = nan
        with np.errstate(all="raise"):
            sm = sk.sample_sato(1.0, 3, 3, self.FirstWait(73, 800.0))
        assert np.isinf(sm[0]).all()
        assert np.isfinite(sm[1:]).all() and (sm > 0).all()

    def test_exact_sampler_draws_inf_at_tiny_alpha(self):
        # at alpha = 0.01 a row's first wait exceeds 709.78*alpha with
        # probability exp(-7.0978), about 8e-4: some of 20 000 rows die at inf
        with np.errstate(all="raise"):
            sm = sk.sample_sato(0.01, 3, 20_000, np.random.default_rng(74))
        assert not np.isnan(sm).any() and (sm > 0).all()
        assert np.isinf(sm).any()

    def test_exact_sampler_verifies_at_small_alpha(self):
        # at alpha = 0.05 most first jumps kill every component with probability 1.0
        from condiid.diagnostics import default_quantile_grid, mc_verify

        alpha = 0.05
        grid = default_quantile_grid(lambda q: (1.0 - q) ** (-1.0 / alpha) - 1.0, 5)
        with np.errstate(all="raise"):
            report = mc_verify(lambda n, rng: sk.sample_sato(alpha, 5, n, rng),
                               lambda g: sk.sato_survival(alpha, g), grid, 20_000, 71)
        assert report.passed

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_exact_sampler_verifies_at_d40(self, alpha):
        from condiid.diagnostics import default_quantile_grid, mc_verify

        grid = default_quantile_grid(lambda q: (1.0 - q) ** (-1.0 / alpha) - 1.0, 40)
        report = mc_verify(lambda n, rng: sk.sample_sato(alpha, 40, n, rng),
                           lambda g: sk.sato_survival(alpha, g), grid, 20_000, 1)
        assert report.passed

    def test_exact_sampler_rejects_non_positive_alpha(self):
        with pytest.raises(SpecValidationError):
            sk.sample_sato(0.0, 2, 10, np.random.default_rng(69))


def test_invalid_specs():
    with pytest.raises(SpecValidationError):
        sk.ShockSurvivalSpec(())
    with pytest.raises(SpecValidationError):
        sk.sato_survival(-1.0, [0.5])
    with pytest.raises(SpecValidationError):
        sk.StepShock((1.0, 0.5), (0.5, 0.2))
