import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import first_passage_oracle as fp
from test_cli import run as cli_run
from test_moments import bareiss_det, exact_hankel_matrices
from condiid import cli, diagnostics as dg, lack_of_memory as lom, moments as mo
from condiid import shock_models as sk
from condiid.errors import NotDMonotoneError, SpecValidationError, UndecidedVerdictError
from condiid.mixing import Beta, Gamma, PointMass
from condiid.moments import HANKEL_TOL, moment_sequence


def exp_rates_spec(*rates):
    return lom.ShockRateSpec(d=len(rates), cardinality=rates)


class TestSurvivalForms:
    def test_d2_expansion_by_hand(self):
        params = lom.exponents_from_b((1.0, 0.6, 0.5))
        x1, x2 = 0.7, 0.3
        hand = 0.6 ** (x1 - x2) * 0.5**x2
        assert lom.mo_survival(params, [x1, x2]) == pytest.approx(hand, rel=1e-12)
        assert lom.mo_survival(params, [x2, x1]) == pytest.approx(hand, rel=1e-12)

    def test_at_zero(self):
        params = lom.exponents_from_b((1.0, 0.6, 0.5))
        assert lom.mo_survival(params, [0.0, 0.0]) == 1.0

    def test_iid_case_factorizes(self):
        q = 0.7
        params = lom.exponents_from_b((1.0, q, q**2, q**3))
        x = np.array([0.3, 1.1, 0.6])
        assert lom.mo_survival(params, x) == pytest.approx(q ** x.sum(), rel=1e-12)

    def test_geo_survival_d1_geometric(self):
        for n in range(5):
            assert lom.geo_survival((1.0, 0.65), [n]) == pytest.approx(0.65**n)

    def test_geo_rejects_non_integers(self):
        with pytest.raises(SpecValidationError):
            lom.geo_survival((1.0, 0.65, 0.45), [0.5, 1.0])

    def test_flavor_validation(self):
        with pytest.raises(NotDMonotoneError):  # log-convexity broken: a negative rate
            lom.rates_from_exponents(lom.exponents_from_b((1.0, 0.9, 0.5)))
        with pytest.raises(NotDMonotoneError, match="geometric parameters b must be d-monotone"):
            cli.build_model({"family": "geometric", "b": [1.0, 0.2, 0.5]})

    def test_negative_coordinates_rejected(self):
        # the CLI's one domain check refuses the point; mo_survival checks nothing
        model = json.dumps({"family": "marshall_olkin", "b": [1.0, 0.6, 0.5]})
        code, out, err = cli_run(["eval", "--model", model, "--point=-0.1,0.2"])
        assert (code, out) == (1, "")
        assert err == "error: survival point [-0.1, 0.2] lies outside the domain [0, inf]^d\n"

    def test_overflowing_exponent_gives_zero(self):
        # gap * log b_1 is below the least double: the survival is 0, with no warning
        assert lom.mo_survival(lom.exponents((2.0, 0.5)), [1.7e308, 1.0]) == 0.0
        assert lom.geo_survival((1.0, 0.3, 0.2), [1.7e308, 1.0]) == 0.0


class TestReparameterizations:
    def test_global_shock_only(self):
        lam2 = 0.8
        a = lom.exponents((0.0, lam2))
        assert a == (lam2, 0.0)
        # the survival function collapses to exp(-lam2 * max(x))
        assert lom.mo_survival(a, [0.3, 0.9]) == pytest.approx(math.exp(-lam2 * 0.9))

    def test_idiosyncratic_only_factorizes(self):
        lam1 = 0.7
        a = lom.exponents((lam1, 0.0))
        assert a == (lam1, lam1)
        assert lom.mo_survival(a, [0.4, 0.6]) == pytest.approx(math.exp(-lam1 * 1.0))

    def test_d1(self):
        assert lom.exponents((0.5,)) == (0.5,)

    def test_lambda_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            rates = tuple(rng.random(d) * 0.8)
            if sum(rates) == 0:
                continue
            spec = exp_rates_spec(*rates)
            back = lom.rates_from_exponents(lom.exponents(spec.cardinality))
            assert np.allclose(back.cardinality, rates, atol=1e-10)

    def test_geometric_round_trip(self):
        # p[m] of a round that shocks one fixed subset of m components, and
        # back through the b of the round's law, whose ones are the spared ones
        rng = np.random.default_rng(32)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            p = rng.random(d + 1)
            p = p / sum(math.comb(d, k) * p[k] for k in range(d + 1))
            b = mo.b_from_p(mo.BinaryExchangeableLaw(tuple(p[::-1])))
            back = mo.p_from_b(b).p[::-1]
            assert np.allclose(back, p, atol=1e-10)

    def test_bernstein_rates_non_negative(self):
        # b_k = exp(-psi(k)) of a subordinator: its rates are the subset rates
        sub = lom.CompoundPoissonSubordinatorSpec(drift=0.2, kill=0.05, jumps=((0.7, 0.4),))
        b = [1.0] + [math.exp(-sub.laplace_exponent(k)) for k in range(1, 5)]
        rates = lom.rates_from_exponents(lom.exponents_from_b(b))
        assert all(v >= 0 for v in rates.cardinality)
        assert rates.cardinality == pytest.approx(sub.subset_rates(4)[1:], rel=1e-12, abs=1e-15)


class TestShockSamplers:
    def test_mo_shocks_match_closed_form(self):
        rng = np.random.default_rng(33)
        spec = exp_rates_spec(0.3, 0.2, 0.1)
        params = lom.exponents(spec.cardinality)
        sm = lom.sample_mo_shocks(spec, 3, 120000, rng)
        for pt in ([0.5, 0.3, 0.8], [1.0, 1.0, 1.0], [0.1, 0.2, 0.05]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(lom.mo_survival(params, pt))
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_exchangeable_spec_beyond_cap_samples(self):
        rng = np.random.default_rng(35)
        spec = lom.ShockRateSpec(d=21, cardinality=(0.1,) * 21)
        sm = lom.sample_mo_shocks(spec, 21, 10, rng)
        assert sm.shape == (10, 21)
        assert np.isfinite(sm).all() and (sm > 0).all()

    def test_geo_shocks_match_closed_form(self):
        rng = np.random.default_rng(36)
        law = mo.BinaryExchangeableLaw((0.15, 0.2, 0.45))  # a round spares both with 0.45
        b = mo.b_from_p(law).values
        sm = lom.sample_geo_shocks(law, 2, 120000, rng)
        assert sm.min() >= 1.0
        for pt in ([1, 1], [2, 1], [3, 4], [0, 0]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(lom.geo_survival(b, pt))
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_geo_shocks_refuse_a_law_that_never_hits(self, d):
        # every round spares every component: the law by name, not a numpy error
        law = mo.BinaryExchangeableLaw((0.0,) * d + (1.0,))
        with pytest.raises(SpecValidationError, match="every component needs positive hit"):
            lom.sample_geo_shocks(law, law.d, 10, np.random.default_rng(1))

    def test_geo_shocks_refuse_another_dimension(self):
        law = mo.BinaryExchangeableLaw((0.15, 0.2, 0.45))
        with pytest.raises(SpecValidationError, match="law dimension 2 != requested 3"):
            lom.sample_geo_shocks(law, 3, 10, np.random.default_rng(1))


def _binomial_weights(d, weights):
    """Per-subset probabilities p_m from the total weight of each cardinality m."""
    total = sum(weights)
    return [w / total / math.comb(d, m) for m, w in enumerate(weights)]


def _mo_model(d):
    # most rate on the full set, as in the verify benchmark
    return [1e-3 / math.comb(d - 1, j) for j in range(d - 1)] + [0.05]


def _shock_definition_survival(values, x, discrete):
    """P(X > x) straight from the shocks, with values[m] per subset of m.

    Exponential: the subsets of size m whose largest argument is the i-th
    smallest, s_i, number C(i-1, m-1) and each survives s_i with
    exp(-lambda_m s_i).  Geometric: a round avoids a fixed set of a
    components with b_a = sum_m C(d-a, m) p_m, and the rounds in
    (s_{i-1}, s_i] must avoid the d-i+1 components with the largest arguments.
    """
    s = np.sort(np.asarray(x, dtype=float))
    d = s.size
    if discrete:
        b = [sum(math.comb(d - a, m) * values[m] for m in range(d - a + 1)) for a in range(d + 1)]
        gaps = np.diff(s, prepend=0.0)
        return math.prod(b[d - i] ** gaps[i] for i in range(d))
    log_sf = -sum(
        s[i] * sum(math.comb(i, m - 1) * values[m] for m in range(1, i + 2)) for i in range(d)
    )
    return math.exp(log_sf)


class TestDeathChain:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=50),
                    min_size=1, max_size=10))
    def test_total_death_rate_exact(self, lam):
        d = len(lam)
        values = [Fraction(0)] + lam  # values[m] == lambda_m
        w = lom._death_rates(values, d)
        for k in range(d + 1):
            expected = sum(values[m] * (math.comb(d, m) - math.comb(d - k, m))
                           for m in range(1, d + 1))
            assert sum(w[k][1:]) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=50),
                    min_size=2, max_size=11).filter(any))
    def test_round_probabilities_sum_to_one_exact(self, weights):
        d = len(weights) - 1
        w = lom._death_rates(_binomial_weights(d, weights), d)
        for k in range(d + 1):
            assert sum(w[k]) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=50),
                    min_size=1, max_size=41))
    @example([Fraction(k % 7, 3) for k in range(41)])
    def test_death_rates_by_definition_exact(self, values):
        d = len(values) - 1
        expected = [[math.comb(k, j) * sum(math.comb(d - k, i) * values[j + i]
                                           for i in range(d - k + 1)) if j <= k else 0
                     for j in range(d + 1)] for k in range(d + 1)]
        assert lom._death_rates(values, d) == expected

    def test_sample_is_column_major(self):
        rng = np.random.default_rng(3)
        one_by_one = lambda k, t: (t + rng.standard_exponential(k.size), np.ones_like(k))
        data, steps = lom._death_chain(one_by_one, 4, 1000, rng)
        assert (data.shape, steps) == ((1000, 4), 4)
        assert data.flags.f_contiguous

    def test_death_order_is_uniform(self):
        # a drift alone kills one component per step, so every row dies in one
        # of the 3! orders, each with probability 1/6
        n = 60_000
        sub = lom.CompoundPoissonSubordinatorSpec(drift=1.0)
        x = lom.sample_mo_ciid(sub, 3, n, np.random.default_rng(54))
        assert (np.diff(np.sort(x, axis=1), axis=1) > 0).all()
        orders, counts = np.unique(x.argsort(axis=1), axis=0, return_counts=True)
        assert len(orders) == 6
        p = 1 / 6
        assert (abs(counts / n - p) <= 4 * math.sqrt(p * (1 - p) / n)).all()

    def test_tie_probability_exponential(self):
        lam1, lam2, n = 0.3, 0.5, 100_000
        spec = lom.ShockRateSpec(d=2, cardinality=(lam1, lam2))
        x = lom.sample_mo_shocks(spec, 2, n, np.random.default_rng(51))
        p = lam2 / (2 * lam1 + lam2)
        assert abs((x[:, 0] == x[:, 1]).mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_tie_probability_geometric(self):
        p0, p1, p2, n = 0.25, 0.2, 0.35, 100_000
        law = mo.BinaryExchangeableLaw((p2, p1, p0))
        x = lom.sample_geo_shocks(law, 2, n, np.random.default_rng(52))
        p = p2 / (2 * p1 + p2)
        assert abs((x[:, 0] == x[:, 1]).mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("family", ["marshall_olkin", "geometric"])
    def test_closed_form_on_default_grid_d15(self, family):
        d = 15
        if family == "marshall_olkin":
            spec = {"family": family, "d": d, "rates": _mo_model(d)}
            values, discrete = [0.0] + spec["rates"], False
        else:
            spec = {"family": family, "d": d,
                    "p": _binomial_weights(d, [0.2] + [0.4 / (d - 1)] * (d - 1) + [0.4])}
            values, discrete = spec["p"], True
        model = cli.build_model(spec)
        grid = model.default_grid()
        closed = model.evaluate("survival", grid)
        for pt, value in zip(grid, closed):  # the test's oracle agrees with mo_survival / geo_survival
            assert _shock_definition_survival(values, pt, discrete) == pytest.approx(value, rel=1e-9)
        report = dg.mc_verify(model.sampler, model.evals["survival"], grid, 20_000, 1)
        assert report.passed

    @pytest.mark.parametrize("discrete", [False, True])
    def test_closed_form_on_default_grid_d40(self, discrete):
        # beyond the subset cap; the closed form is written from the shocks,
        # independently of mo_survival / geo_survival
        d = 40
        if discrete:
            values = _binomial_weights(d, [0.2] + [0.4 / (d - 1)] * (d - 1) + [0.4])
            law = mo.BinaryExchangeableLaw(tuple(values[::-1]))
            b1 = sum(math.comb(d - 1, m) * values[m] for m in range(d))
            ppf = lambda q: max(0.0, math.ceil(math.log1p(-q) / math.log(b1)))
            sampler = lambda n, rng: lom.sample_geo_shocks(law, d, n, rng)
        else:
            values = [0.0] + _mo_model(d)
            spec = lom.ShockRateSpec(d=d, cardinality=tuple(values[1:]))
            rate1 = sum(math.comb(d - 1, m - 1) * values[m] for m in range(1, d + 1))
            ppf = lambda q: -math.log1p(-q) / rate1
            sampler = lambda n, rng: lom.sample_mo_shocks(spec, d, n, rng)
        grid = dg.default_quantile_grid(ppf, d)
        report = dg.mc_verify(
            sampler, lambda g: np.array([_shock_definition_survival(values, x, discrete) for x in g]),
            grid, 20_000, 1,
        )
        assert report.passed
        assert min(report.closed) > report.abs_floor  # no point passes on the floor alone


    @settings(max_examples=60, deadline=None)
    @given(st.fractions(0, 3, max_denominator=20), st.fractions(0, 3, max_denominator=20),
           st.lists(st.tuples(st.fractions(0, 1, max_denominator=30).filter(lambda q: q < 1),
                              st.fractions(0, 5, max_denominator=20).filter(bool)), max_size=3),
           st.integers(1, 12))
    def test_subordinator_rates_exact(self, drift, kill, jumps, d):
        # q = exp(-size) rational: with k alive, j die at rate
        # C(k, j) sum_i r_i (1 - q_i)^j q_i^(k-j), plus the drift's k when j = 1
        # and the kill when j = k, which sum to psi(k)
        lam = lom._subset_rates(drift, kill, [(q, 1 - q, r) for q, r in jumps], d)
        w = lom._death_rates(lam, d)
        for k in range(1, d + 1):
            psi = drift * k + kill + sum(r * (1 - q**k) for q, r in jumps)
            assert sum(w[k][1:]) == psi
            for j in range(1, k + 1):
                jump_rate = math.comb(k, j) * sum(r * (1 - q) ** j * q ** (k - j) for q, r in jumps)
                assert w[k][j] == jump_rate + (drift * k if j == 1 else 0) + (kill if j == k else 0)

    def test_subordinator_tie_share_d2(self):
        # both die at once at rate w[2][2] = 2 psi(1) - psi(2) of the total psi(2)
        sub = lom.CompoundPoissonSubordinatorSpec(drift=0.4, kill=0.1, jumps=((0.65, 1.0),))
        n = 100_000
        x = lom.sample_mo_ciid(sub, 2, n, np.random.default_rng(53))
        psi1, psi2 = sub.laplace_exponent(1.0), sub.laplace_exponent(2.0)
        p = (2 * psi1 - psi2) / psi2
        assert abs((x[:, 0] == x[:, 1]).mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)


barriers = st.lists(
    st.one_of(st.floats(0.0, 50.0), st.integers(0, 100).map(lambda k: k / 2)),
    min_size=1, max_size=8,
)


class TestFirstPassage:
    """Deterministic paths, whose passage times are known exactly."""

    @staticmethod
    def constant_step(wait, jump):
        return lambda t: (np.full(t.size, wait), np.full(t.size, jump))

    @settings(max_examples=100, deadline=None)
    @given(barriers, st.floats(0.1, 10.0))
    def test_pure_drift(self, eps, mu):
        eps = np.array([eps, eps[::-1]])
        x, _ = fp.first_passage(eps, self.constant_step(math.inf, 0.0), mu)
        assert (x == eps / mu).all()

    @settings(max_examples=100, deadline=None)
    @given(barriers, st.floats(0.1, 10.0), st.floats(0.01, 20.0))
    def test_drift_killed_at_t(self, eps, mu, kill_t):
        eps = np.array([eps])
        x, _ = fp.first_passage(eps, self.constant_step(kill_t, math.inf), mu)
        assert (x == np.minimum(eps / mu, kill_t)).all()

    @settings(max_examples=100, deadline=None)
    @given(barriers)
    def test_half_steps_pass_strictly(self, eps):
        # Z_t = floor(t) / 2 exceeds eps first at t = floor(2 eps) + 1; a
        # barrier on the lattice is not passed by the step that reaches it;
        # the row retires with its last barrier, after that many steps
        eps = np.array([eps])
        x, steps = fp.first_passage(eps, self.constant_step(1.0, 0.5), 0.0)
        assert (x == np.floor(2 * eps) + 1).all()
        assert steps == x.max()

    @settings(max_examples=100, deadline=None)
    @given(barriers)
    def test_unit_drift_and_unit_jumps(self, eps):
        # Z_t = t + floor(t): the drift passes eps in [2k, 2k+1) at eps - k,
        # the jump at time k+1 passes eps in [2k+1, 2k+2)
        eps = np.array(eps)
        k = np.floor(eps / 2)
        expect = np.where(eps < 2 * k + 1, eps - k, k + 1)
        x, _ = fp.first_passage(eps[None, :], self.constant_step(1.0, 1.0), 1.0)
        assert np.allclose(x[0], expect, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sampler", [
        lambda rng: lom.sample_mo_ciid(
            lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5),)),
            4, 2000, rng),
        lambda rng: fp.sample_geo_ciid(Gamma(1.0), 4, 2000, rng),
        lambda rng: sk.sample_sato(1.05, 4, 2000, rng),
    ], ids=["mo_ciid", "geo_ciid", "sato"])
    def test_wrappers_record_lockstep_steps(self, sampler, monkeypatch):
        # the death chain takes at most d steps; the oracle's walk steps
        # until its last barrier is passed
        chain_steps = []
        death_chain = lom._death_chain

        def spy(*args):
            data, steps = death_chain(*args)
            chain_steps.append(steps)
            return data, steps

        monkeypatch.setattr(lom, "_death_chain", spy)
        monkeypatch.setattr(sk, "_death_chain", spy)
        out = sampler(np.random.default_rng(3))
        if chain_steps:
            assert len(chain_steps) == 1 and 1 <= chain_steps[0] <= out.shape[1]
        else:
            _, steps = out
            assert 0 < steps < 200


class TestSubordinatorSampler:
    SUB = lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5), (2.5, 0.25)))

    def test_pure_drift_gives_iid_exponentials(self):
        rng = np.random.default_rng(37)
        sub = lom.CompoundPoissonSubordinatorSpec(drift=1.0)
        sm = lom.sample_mo_ciid(sub, 2, 30000, rng)
        for k in range(2):
            assert stats.kstest(sm[:, k], "expon").pvalue > 0.001
        from condiid.diagnostics import tie_frequency

        assert tie_frequency(sm) == 0.0

    def test_pure_kill_comonotone(self):
        rng = np.random.default_rng(38)
        sub = lom.CompoundPoissonSubordinatorSpec(kill=0.5)
        sm = lom.sample_mo_ciid(sub, 3, 5000, rng)
        assert (sm == sm[:, :1]).all()
        assert stats.kstest(sm[:, 0], "expon", args=(0, 2.0)).pvalue > 0.001

    def test_survival_matches_bernstein_closed_form(self):
        rng = np.random.default_rng(39)
        params = lom.exponents(self.SUB.subset_rates(3)[1:])
        sm = lom.sample_mo_ciid(self.SUB, 3, 100000, rng)
        for pt in ([0.5, 0.3, 0.8], [0.2, 0.2, 0.2], [1.5, 0.1, 0.7]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(lom.mo_survival(params, pt))
            se = math.sqrt(closed * (1 - closed) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_jumps_generate_ties(self):
        from condiid.diagnostics import tie_frequency

        rng = np.random.default_rng(40)
        sm = lom.sample_mo_ciid(self.SUB, 2, 20000, rng)
        assert tie_frequency(sm) > 0.1

    def test_two_sampler_equivalence(self):
        # the shock rates recovered from b_k = exp(-psi(k)) and the path's
        # closed-form subset rates give one law
        rng = np.random.default_rng(41)
        b = [1.0] + [math.exp(-self.SUB.laplace_exponent(k)) for k in range(1, 4)]
        rates = lom.rates_from_exponents(lom.exponents_from_b(b))
        n = 60000
        shocks = lom.sample_mo_shocks(rates, 3, n, rng)
        passage = lom.sample_mo_ciid(self.SUB, 3, n, rng)
        rng2 = np.random.default_rng(1)
        for _ in range(10):
            pt = rng2.exponential(0.8, size=3)
            p1 = (shocks > pt).all(axis=1).mean()
            p2 = (passage > pt).all(axis=1).mean()
            se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)
            assert abs(p1 - p2) <= 3 * se + 1e-3

    @pytest.mark.parametrize("d", [5, 40])
    def test_verify_against_closed_form(self, d):
        spec = {"family": "marshall_olkin", "d": d, "subordinator": {
            "drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}}
        model = cli.build_model(spec)
        report = dg.mc_verify(model.sampler, model.evals["survival"], model.default_grid(),
                              20_000, 1)
        assert report.passed

    def test_lack_of_memory_probe(self):
        rng = np.random.default_rng(42)
        sm = lom.sample_mo_ciid(self.SUB, 2, 200000, rng)
        t, x = 0.4, np.array([0.5, 0.3])
        alive = (sm > t).all(axis=1)
        residual = (sm[alive] > t + x).all(axis=1).mean()
        fresh = (sm > x).all(axis=1).mean()
        se = math.sqrt(residual * (1 - residual) / alive.sum() + fresh * (1 - fresh) / len(sm))
        assert abs(residual - fresh) <= 3 * se + 1e-3

    def test_minimum_is_exponential(self):
        rng = np.random.default_rng(43)
        sm = lom.sample_mo_ciid(self.SUB, 3, 30000, rng)
        rate = self.SUB.laplace_exponent(3)
        finite = sm.min(axis=1)
        finite = finite[np.isfinite(finite)]
        assert stats.kstest(finite, "expon", args=(0, 1.0 / rate)).pvalue > 0.001

    def test_degenerate_rejected(self):
        rng = np.random.default_rng(44)
        with pytest.raises(SpecValidationError):
            lom.sample_mo_ciid(lom.CompoundPoissonSubordinatorSpec(), 2, 10, rng)

    @pytest.mark.parametrize("d", [28, 32, 40])
    def test_rounded_b_is_refused_at_large_d(self, d):
        # b_k = exp(-psi(k)) is log-d-monotone by construction; the absolute
        # tolerance of the d-monotone test refuses its rounded values at large
        # d, and double precision cannot decide the Hankel test of a_k/a_1
        sub = lom.CompoundPoissonSubordinatorSpec(drift=0.4, kill=0.1, jumps=((0.65, 1.0),))
        a = lom.exponents(sub.subset_rates(d)[1:])
        assert len(a) == d and min(a) > 0
        b = [1.0] + [math.exp(-sub.laplace_exponent(k)) for k in range(1, d + 1)]
        with pytest.raises(NotDMonotoneError):
            lom.rates_from_exponents(lom.exponents_from_b(b))
        with pytest.raises(UndecidedVerdictError):  # a refusal, never a silent verdict
            lom.is_ciid_extendible(a)


class TestGeoCiid:
    def test_survival_matches_step_transform(self):
        rng = np.random.default_rng(45)
        law = Gamma(1.0)
        d, n = 2, 100000
        b = tuple(float(law.laplace(k)) for k in range(d + 1))
        sm, _ = fp.sample_geo_ciid(law, d, n, rng)
        assert sm.min() >= 1.0
        for pt in ([1, 1], [2, 0], [3, 3]):
            pt = np.asarray(pt)
            emp = (sm > pt).all(axis=1).mean()
            closed = float(lom.geo_survival((1.0,) + b[1:], pt))
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_integer_valued(self):
        rng = np.random.default_rng(46)
        sm, _ = fp.sample_geo_ciid(PointMass(0.5), 3, 2000, rng)
        assert np.isfinite(sm).all()
        assert (sm == np.rint(sm)).all()

    def test_zero_step_law_rejected(self):
        rng = np.random.default_rng(47)
        with pytest.raises(SpecValidationError):
            fp.sample_geo_ciid(PointMass(1e-20), 2, 10, rng)


class TestExtendibility:
    def test_bernstein_sequence_extendible(self):
        values = tuple(1.0 / (1.0 + k) for k in range(5))  # exp(-Psi(k)), Psi = log(1+x)
        params = lom.exponents_from_b(values)
        assert lom.is_ciid_extendible(params).extendible

    def test_discrete_interval_counterexample(self):
        params = mo.MonotoneSequence((1.0, 0.5, 0.2))
        assert not lom.is_ciid_extendible(params).extendible
        params2 = mo.MonotoneSequence((1.0, 0.5, 0.3))
        assert lom.is_ciid_extendible(params2).extendible

    def test_power_sequence_extendible(self):
        m = 0.6
        params = mo.MonotoneSequence(tuple(m**k for k in range(5)))
        assert lom.is_ciid_extendible(params).extendible

    def test_constant_sequence_trivially_extendible(self):
        params = lom.exponents_from_b((1.0, 1.0, 1.0))
        assert lom.is_ciid_extendible(params).extendible

    @pytest.mark.parametrize("flavor", ["continuous", "discrete"])
    def test_degree_zero(self, flavor):
        params = () if flavor == "continuous" else mo.MonotoneSequence((1.0,))
        verdict = lom.is_ciid_extendible(params)
        assert verdict.extendible and verdict.hankel_values == () and verdict.min_hankel == 0.0

    def test_degree_one(self):
        # discrete: (1, b_1) itself; continuous: the normalized sequence (1,), which has no
        # determinants
        verdict = lom.is_ciid_extendible(mo.MonotoneSequence((1.0, 0.25)))
        assert verdict.extendible and verdict.hankel_values == (0.25, 0.75)
        verdict = lom.is_ciid_extendible(lom.exponents_from_b((1.0, 0.25)))
        assert verdict.extendible and verdict.hankel_values == ()

    def test_point_mass_at_0_3_is_on_the_boundary(self):
        # discrete: b_k = 0.3^k; continuous: psi(k) = (1 - 0.3^k) / 0.7, one jump of size
        # log(10/3), so that a_k / a_1 = 0.3^(k-1).  Both are the moments of a point
        # mass at 0.3, whose Hankel matrices of size 2 or more are singular.
        discrete = mo.MonotoneSequence(tuple(float(Fraction(3, 10) ** k) for k in range(7)))
        verdict = lom.is_ciid_extendible(discrete)
        assert verdict.extendible
        assert verdict.hankel_values[:4] == pytest.approx((0.3, 0.7, 0.0, 0.21), abs=1e-12)
        assert max(abs(h) for h in verdict.hankel_values[4:]) < 1e-12
        # the exponents come from logs of b, so their singular determinants are
        # rounding noise: a negative one may be a law just past the boundary
        continuous = lom.exponents_from_b(tuple(math.exp(-(1.0 - 0.3**k) / 0.7) for k in range(8)))
        with pytest.raises(UndecidedVerdictError, match="hat_3 .* does not decide its sign"):
            lom.is_ciid_extendible(continuous)


class TestBetaFamily:
    """Geometric-law b with the Beta(p, q) moments: always extendible."""

    @staticmethod
    def bseq(p, q, d):
        return moment_sequence(Beta(p, q), d)

    def test_uniform_case(self):
        params = self.bseq(1.0, 1.0, 3)
        assert params.values == pytest.approx((1.0, 0.5, 1 / 3, 0.25))

    def test_always_monotone_and_extendible(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            p, q = rng.random(2) * 3 + 0.2
            params = self.bseq(p, q, 5)
            assert lom.is_ciid_extendible(params).extendible

    def test_degenerate_dimension(self):
        assert self.bseq(2.0, 1.0, 0).values == (1.0,)


def test_subordinator_json_round_trip():
    obj = {"drift": 0.3, "kill": 0.1, "jumps": [{"size": 1.0, "rate": 0.5}]}
    sub = lom.CompoundPoissonSubordinatorSpec.from_json(obj)
    assert sub == lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5),))
    assert sub.laplace_exponent(1.0) == pytest.approx(0.1 + 0.3 - 0.5 * math.expm1(-1.0), rel=1e-15)


def exact_psi(rates) -> list:
    """Psi(0..d) of exponential shock rates, taken as the exact Fractions of
    the doubles: Psi(k) = sum_m (C(d, m) - C(d-k, m)) lambda_m, the rate of the
    shocks that hit one of k fixed components."""
    lam, d = [Fraction(v) for v in rates], len(rates)
    return [sum((math.comb(d, m) - math.comb(d - k, m)) * lam[m - 1] for m in range(1, d + 1))
            for k in range(d + 1)]


def reference_survival(psi, x) -> float:
    """exp(-sum_k Psi(k) (x_(k) - x_(k+1))) over x sorted in decreasing order,
    in mpmath at 50 digits."""
    s = sorted((Fraction(v) for v in x), reverse=True) + [Fraction(0)]
    with mpmath.workdps(50):
        expo = sum(psi[k] * (s[k - 1] - s[k]) for k in range(1, len(s)))
        return float(mpmath.exp(-mpmath.mpf(expo.numerator) / expo.denominator))


def exact_verdict(psi):
    """(extendible, near) of a_k/a_1 by the exact Hankel determinants:
    extendible iff none is negative, near iff one is within HANKEL_TOL times
    its matrix's largest |entry| of 0, where double precision may not decide
    its sign."""
    a = [psi[k] - psi[k - 1] for k in range(1, len(psi))]
    extendible, near = True, False
    for mat in exact_hankel_matrices([v / a[0] for v in a]):
        det = bareiss_det(mat)
        extendible = extendible and det >= 0
        near = near or abs(det) <= Fraction(HANKEL_TOL) * max(abs(x) for row in mat for x in row)
    return extendible, near


def harmonic_rates(d):
    return [1 / (k + 1) for k in range(d)]


class TestExponents:
    """The exponential law held by a_1..a_d: survival and check against exact
    Psi, at d where b_k = exp(-Psi(k)) leaves the range of doubles."""

    def test_iid_rates_are_extendible(self):
        # two iid exponentials: a = (0.3, 0.3), a_k/a_1 the moments of a point mass at 1
        model = '{"family":"marshall_olkin","rates":[0.3,0]}'
        code, out, err = cli_run(["check", "--model", model])
        assert (code, err) == (0, "") and out.startswith("extendible\n")

    def test_survival_where_b_underflows(self):
        model = '{"family":"marshall_olkin","rates":[0,700]}'
        code, out, _ = cli_run(["eval", "--model", model, "--point", "0.01,0.01"])
        assert code == 0 and out == "0.000911881965555\n"
        assert float(out) == pytest.approx(reference_survival(exact_psi([0, 700]), [0.01] * 2),
                                           rel=1e-12)

    def test_harmonic_rates_at_d12(self):
        # Psi(12) ~ 762: b_12 = exp(-762) is 0 in double precision
        model = json.dumps({"family": "marshall_olkin", "rates": harmonic_rates(12)})
        code, out, _ = cli_run(["eval", "--model", model, "--point", ",".join(["0.001"] * 12)])
        assert code == 0 and out == "0.466862789394\n"
        assert float(out) == pytest.approx(
            reference_survival(exact_psi(harmonic_rates(12)), [0.001] * 12), rel=1e-11)
        code, out, _ = cli_run(["check", "--model", model])
        assert code == 0 and out.startswith("extendible\n")
        assert exact_verdict(exact_psi(harmonic_rates(12)))[0] is True
        code, out, _ = cli_run(["verify", "--model", model, "--seed", "1", "--n", "20000"])
        assert code == 0 and json.loads(out)["passed"] is True

    def test_harmonic_rates_sample_at_d20(self):
        model = json.dumps({"family": "marshall_olkin", "rates": harmonic_rates(20)})
        code, out, err = cli_run(["sample", "--model", model, "--n", "5", "--seed", "1"])
        assert (code, err) == (0, "") and len(out.splitlines()) == 6

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-6, 1e6), st.integers(2, 8), st.lists(st.floats(0, 5), min_size=8,
                                                             max_size=8))
    def test_idiosyncratic_rates_are_iid(self, lam, d, t):
        model = cli.build_model({"family": "marshall_olkin", "rates": [lam] + [0.0] * (d - 1)})
        assert model.check().extendible
        x = np.array(t[:d]) / lam
        assert model.evaluate("survival", [x])[0] == pytest.approx(
            reference_survival(exact_psi([lam] + [0.0] * (d - 1)), x), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 24).flatmap(lambda d: st.tuples(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=d, max_size=d)
        .filter(any),
        st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))),
        st.floats(0.0, 50.0))
    def test_survival_and_verdict_are_exact(self, case, level):
        rates, t = case
        psi = exact_psi(rates)
        model = cli.build_model({"family": "marshall_olkin", "rates": rates})
        # sum_k a_k x_(k) <= level, so the survival stays a normal double
        x = np.array(t) * (level / float(psi[-1]))
        assert model.evaluate("survival", [x])[0] == pytest.approx(reference_survival(psi, x),
                                                                   rel=1e-12)
        extendible, near = exact_verdict(psi)
        try:
            assert model.check().extendible is extendible
        except UndecidedVerdictError:
            assert near  # refused only where an exact determinant is within the tolerance

    def test_negative_determinant_within_the_tolerance_is_refused(self):
        # hat_6 of a_k/a_1 is -2.1256e-12, exactly and in double precision
        # alike: within HANKEL_TOL of 0, yet not the boundary
        rates = [0.0, 0.6254560036688074, 0.5517189551771184, 0.5774790075515719,
                 0.8610032712295707, 0.5529182165627552, 0.47264843947350643,
                 0.4088772361778465, 0.09962954695591432, 0.8074833626712313, 0.0,
                 0.6034696294169016, 0.060572197083155796, 0.22218834895626594,
                 0.9885195421784823, 0.3774321391314525, 0.0, 0.0, 0.87553833728344,
                 0.7507114732838188]
        assert exact_verdict(exact_psi(rates)) == (False, True)
        model = json.dumps({"family": "marshall_olkin", "rates": rates})
        code, out, err = cli_run(["check", "--model", model])
        assert (code, out) == (1, "")
        assert "hat_6" in err and "-2.1255" in err and "does not decide its sign" in err

