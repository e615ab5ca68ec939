import functools
import io
import json
import math
import tracemalloc
import warnings
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from condiid import cli
from condiid import diagnostics as dg
from condiid import mixtures as mx
from condiid import sample
from condiid.errors import NonMonotoneConditionalError, SpecValidationError
from condiid.mixing import Gamma, Pareto


def pair_count_tau(pairs) -> Fraction:
    """(concordant - discordant) / (n choose 2) over all pairs, exactly."""
    x, y = pairs[:, 0], pairs[:, 1]
    sx = (x[:, None] > x).astype(int) - (x[:, None] < x)
    sy = (y[:, None] > y).astype(int) - (y[:, None] < y)
    n = len(pairs)
    return Fraction(int(np.sum(sx * sy)) // 2, n * (n - 1) // 2)


@st.composite
def tied_pairs(draw):
    """n x 2 samples, 2 <= n <= 400, of small integers: ties in x, y and (x, y)."""
    n = draw(st.integers(2, 400))
    cols = [draw(hnp.arrays(np.int64, n, elements=st.integers(0, draw(st.integers(1, 6)))))
            for _ in range(2)]
    return np.c_[cols[0], cols[1]].astype(float)


def orthant_hits_oracle(rows, grid, mode):
    """Per-row count of the rows in each grid point's orthant, in plain Python."""
    inside = (lambda x, g: x > g) if mode == "survival" else (lambda x, g: x <= g)
    return [sum(all(inside(x, g) for x, g in zip(row, point)) for row in rows)
            for point in grid]


@st.composite
def tied_samples(draw):
    """(sample, grid): sample values drawn from the grid's coordinates and +-inf."""
    d = draw(st.integers(1, 6))
    coord = st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, math.inf])
    grid = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12))
    values = sorted({g for point in grid for g in point} | {math.inf, -math.inf})
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=d, max_size=d),
                         min_size=1, max_size=50))
    return rows, grid


def block_rows(d):
    """Rows per block of the orthant count at dimension d."""
    return dg._COUNT_BLOCK_BYTES // (8 * d)


@st.composite
def blocked_samples(draw):
    """(sample, grid) with n at and around multiples of the count's block.

    A grid of up to ten points plus the origin; rows are random grid
    coordinates and +-inf, exact copies of a grid point, and copies nudged one
    ulp up, and every 0.0 entry may be -0.0.  The sample is C- or
    Fortran-ordered.
    """
    d = draw(st.sampled_from([1, 2, 5, 40]))
    b = block_rows(d)
    n = draw(st.sampled_from([1, b - 1, b, b + 1, 3 * b + 7]))
    coord = st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, math.inf, -math.inf])
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=10))
    grid = np.array([*points, [0.0] * d])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.r_[grid.ravel(), math.inf, -math.inf]
    data = rng.choice(values, size=(n, d))
    kind = rng.integers(0, 3, size=n)
    copies = grid[rng.integers(0, len(grid), size=n)]
    data[kind == 1] = copies[kind == 1]
    data[kind == 2] = np.nextafter(copies[kind == 2], math.inf)
    data[(data == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    if draw(st.booleans()):
        data = np.asfortranarray(data)
    return data, grid


@st.composite
def laid_out_samples(draw):
    """(sample, grid): a tied sample held in one of six layouts, and a grid
    that mixes points with all coordinates equal and other points.

    Sample values are grid coordinates and +-inf.  The sample is C- or
    Fortran-ordered, and either whole, every other row of a larger array
    (``data[::2]``) or the column-reversed view of one (``data[:, ::-1]``).
    """
    d = draw(st.integers(1, 6))
    coord = st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, -0.0, math.inf,
                                                                        -math.inf])
    mixed = draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=6))
    equal = [[c] * d for c in draw(st.lists(coord, max_size=5))]
    grid = draw(st.permutations(mixed + equal).filter(len))
    values = sorted({g for point in grid for g in point} | {math.inf, -math.inf})
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=d, max_size=d),
                         min_size=1, max_size=40))
    order = draw(st.sampled_from("CF"))
    view = draw(st.sampled_from(["whole", "every_other_row", "columns_reversed"]))
    data = np.array(rows, dtype=float)
    if view == "every_other_row":  # the skipped rows are ones that every point would count
        full = np.full((2 * len(rows), d), -math.inf)
        full[::2] = data
        data = np.asarray(full, order=order)[::2]
    elif view == "columns_reversed":
        data = np.asarray(data[:, ::-1], order=order)[:, ::-1]
    else:
        data = np.asarray(data, order=order)
    return data, np.array(grid, dtype=float)


class TestKendallTau:
    def test_comonotone(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert dg.empirical_kendall_tau(np.c_[x, 3 * x + 1]) == 1.0

    def test_antitone(self):
        x = np.random.default_rng(1).standard_normal(500)
        assert dg.empirical_kendall_tau(np.c_[x, -x]) == -1.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        pairs = rng.random((20000, 2))
        tau = dg.empirical_kendall_tau(pairs)
        assert abs(tau) <= 3 * dg.kendall_tau_null_stderr(20000)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pairs = rng.integers(0, 4, size=(30, 2)).astype(float)
            assert dg.empirical_kendall_tau(pairs) == float(pair_count_tau(pairs))

    @settings(max_examples=150, deadline=None)
    @given(tied_pairs())
    def test_matches_pair_count_with_ties(self, pairs):
        assert dg.empirical_kendall_tau(pairs) == float(pair_count_tau(pairs))

    def test_infinite_and_signed_zero_values_tie(self):
        pairs = np.array([[1.0, math.inf], [2.0, math.inf], [3.0, 1.0],
                          [-0.0, -math.inf], [0.0, -math.inf], [math.inf, 0.0]])
        assert dg.empirical_kendall_tau(pairs) == float(pair_count_tau(pairs))

    def test_matches_scipy_on_continuous_data(self):
        rng = np.random.default_rng(4)
        pairs = rng.standard_normal((3000, 2))
        ours = dg.empirical_kendall_tau(pairs)
        ref = stats.kendalltau(pairs[:, 0], pairs[:, 1]).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(SpecValidationError):
            dg.empirical_kendall_tau([[1.0, 2.0]])


class TestMajorization:
    def test_hand_bound_value(self):
        assert dg.binomial_orderstat_bound(1, 2, 0.5) == pytest.approx(0.75)

    def test_iid_case_passes_with_near_equality(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((50000, 3))
        assert dg.majorization_check(data, 0.0, 0.5)

    def test_comonotone_case_strict_inequality(self):
        rng = np.random.default_rng(6)
        data = np.repeat(rng.standard_normal((50000, 1)), 2, axis=1)
        # lhs at n=1 is 1/2 against the iid bound 3/4
        below = (data <= 0.0).sum(axis=1)
        assert np.minimum(1, below).mean() == pytest.approx(0.5, abs=0.01)
        assert dg.majorization_check(data, 0.0, 0.5)

    def test_spherical_mixture_passes(self):
        rng = np.random.default_rng(7)
        sm = mx.sample_spherical_ciid(Gamma(2.0), 4, 40000, rng)
        med = float(np.median(sm))
        assert dg.majorization_check(sm, med, 0.5)

    def test_violation_detected(self):
        # antithetic columns push order-statistic mass the wrong way
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50000)
        data = np.c_[x, -x]
        assert not dg.majorization_check(data, 0.0, 0.5)


class TestRadialSymmetry:
    def test_normal_passes(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((40000, 2)) + 1.5
        assert dg.radial_symmetry_test(data, 1.5)

    def test_exponential_fails(self):
        rng = np.random.default_rng(10)
        data = rng.exponential(size=(40000, 2))
        assert not dg.radial_symmetry_test(data, float(np.median(data)))


class TestTies:
    def test_continuous_has_none(self):
        rng = np.random.default_rng(11)
        assert dg.tie_frequency(rng.standard_normal((10000, 3))) == 0.0

    def test_comonotone_has_all(self):
        rng = np.random.default_rng(12)
        data = np.repeat(rng.standard_normal((1000, 1)), 2, axis=1)
        assert dg.tie_frequency(data) == 1.0

    def test_ties_at_infinity(self, tmp_path):
        # components killed by one shared shock tie at +inf; inf - inf is no test
        path = tmp_path / "inf.csv"
        path.write_text("x1,x2,x3\ninf,inf,1.0\n1.0,2.0,3.0\n0.5,inf,inf\n")
        out = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out):
            warnings.simplefilter("error")
            assert cli.main(["diagnose", str(path), "--tests", "ties"]) == 0
        assert json.loads(out.getvalue())["tie_frequency"] == 2 / 3


class TestScarsini:
    def test_cdf_values(self):
        assert dg.scarsini_cdf(0.25, 0.75) == pytest.approx(0.125)
        assert dg.scarsini_cdf(1.0, 1.0) == 1.0
        assert dg.scarsini_cdf(0.5, 0.5) == pytest.approx(0.25)

    def test_sampler_matches_cdf(self):
        rng = np.random.default_rng(13)
        sm = dg.scarsini_sample(150000, rng)
        for pt in ([0.25, 0.75], [0.5, 0.5], [0.9, 0.2]):
            emp = (sm <= np.asarray(pt)).all(axis=1).mean()
            closed = dg.scarsini_cdf(*pt)
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / len(sm))
            assert abs(emp - closed) <= 3 * se + 1e-3

    def test_margins_uniform(self):
        rng = np.random.default_rng(14)
        sm = dg.scarsini_sample(40000, rng)
        assert stats.kstest(sm[:, 0], "uniform").pvalue > 0.001

    def test_orthant_dependency_violated(self):
        rng = np.random.default_rng(15)
        sm = dg.scarsini_sample(100000, rng)
        emp = (sm <= np.array([0.25, 0.75])).all(axis=1).mean()
        product = 0.25 * 0.75
        se = math.sqrt(emp * (1 - emp) / len(sm))
        assert product - emp > 5 * se

    def test_kendall_tau_zero(self):
        rng = np.random.default_rng(16)
        sm = dg.scarsini_sample(100000, rng)
        assert abs(dg.empirical_kendall_tau(sm)) < 0.01


class TestEmpiricalH:
    def test_step_values(self):
        e = dg.empirical_H([0.1, 0.4, 0.4, 0.9])
        assert e(0.05) == 0.0
        assert e(0.4) == 0.75
        assert e(2.0) == 1.0

    def test_sup_distance_exact(self):
        e = dg.empirical_H([0.5])
        # one atom at 0.5 vs the uniform df: largest gap approaches 0.5
        assert e.sup_distance(lambda t: np.clip(t, 0, 1)) == pytest.approx(0.5)

    def test_glivenko_cantelli_on_one_row(self):
        sm = mx.sample_linf_ciid(Pareto(2.0), 10000, 1, np.random.default_rng(17))
        row = sm[0]  # one exchangeable row of dimension 10^4
        e = dg.empirical_H(row)
        # the row's mixing level is the sampler's first draw from the same seed
        m0 = float(Pareto(2.0).sample(1, np.random.default_rng(17))[0])
        dist = e.sup_distance(lambda t: np.clip(np.asarray(t, dtype=float) / m0, 0, 1))
        assert dist < 2.0 / math.sqrt(10000)


class TestConditionalInversion:
    def test_clayton_type_survival_dual_route(self):
        # oracle: the one-factor gamma construction samples the same law exactly
        rng = np.random.default_rng(18)
        theta, n = 1.0, 60000
        surv = lambda pts: (1.0 + np.asarray(pts, dtype=float).sum(axis=-1)) ** (-theta)
        inv = dg.conditional_inversion_sampler(surv, 2, n, rng)
        direct = mx.sample_l1_ciid(Gamma(theta), 2, n, rng)
        for pt in ([0.5, 0.5], [1.0, 0.2], [0.1, 2.0]):
            pt = np.asarray(pt)
            p1 = (inv > pt).all(axis=1).mean()
            p2 = (direct > pt).all(axis=1).mean()
            closed = float(surv(pt))
            se = math.sqrt(closed * (1 - closed) / n)
            assert abs(p1 - closed) <= 3 * se + 1e-3
            assert abs(p2 - closed) <= 3 * se + 1e-3

    def test_d3(self):
        rng = np.random.default_rng(19)
        theta, n = 1.5, 30000
        surv = lambda pts: (1.0 + np.asarray(pts, dtype=float).sum(axis=-1)) ** (-theta)
        sm = dg.conditional_inversion_sampler(surv, 3, n, rng)
        pt = np.array([0.4, 0.3, 0.6])
        closed = float(surv(pt))
        emp = (sm > pt).all(axis=1).mean()
        assert abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / n) + 2e-3

    def test_d1_pure_inversion(self):
        rng = np.random.default_rng(20)
        surv = lambda pts: np.exp(-np.asarray(pts, dtype=float).sum(axis=-1))
        sm = dg.conditional_inversion_sampler(surv, 1, 30000, rng)
        assert stats.kstest(sm[:, 0], "expon").pvalue > 0.001

    def test_invalid_survival_detected(self):
        rng = np.random.default_rng(21)

        def bogus(pts):
            pts = np.asarray(pts, dtype=float)
            # increasing in the second coordinate: not a survival function
            return np.exp(-pts[..., 0]) * (1.0 - np.exp(-pts[..., 1] - 0.2))

        with pytest.raises(NonMonotoneConditionalError):
            dg.conditional_inversion_sampler(bogus, 2, 100, rng)

    def test_dimension_cap(self):
        rng = np.random.default_rng(22)
        with pytest.raises(SpecValidationError):
            dg.conditional_inversion_sampler(lambda p: 1.0, 4, 10, rng)


class TestMcVerify:
    @staticmethod
    def sampler(n, rng):
        return mx.sample_l1_ciid(Gamma(1.0), 2, n, rng)

    @staticmethod
    def survival(g):
        return mx.l1_ciid_survival(Gamma(1.0), g)

    def test_pass_and_determinism(self):
        grid = dg.default_quantile_grid(lambda q: q / (1 - q), 2)
        r1 = dg.mc_verify(self.sampler, self.survival, grid, 30000, 7)
        r2 = dg.mc_verify(self.sampler, self.survival, grid, 30000, 7)
        assert r1.passed
        assert r1.to_json_str() == r2.to_json_str()

    def test_threads_change_partition_not_correctness(self):
        grid = dg.default_quantile_grid(lambda q: q / (1 - q), 2)
        r4 = dg.mc_verify(self.sampler, self.survival, grid, 30000, 7, threads=4)
        assert r4.passed
        r4b = dg.mc_verify(self.sampler, self.survival, grid, 30000, 7, threads=4)
        assert r4.to_json_str() == r4b.to_json_str()

    def test_detects_wrong_closed_form(self):
        grid = np.array([[1.0, 1.0]])
        bad = lambda g: np.full(len(g), 0.5)
        r = dg.mc_verify(self.sampler, bad, grid, 30000, 7)
        assert not r.passed

    @pytest.mark.parametrize("closed", [lambda g: 0.5, lambda g: np.full((len(g), 1), 0.5),
                                        lambda g: np.full(len(g) + 1, 0.5)],
                             ids=["scalar", "column", "one_more"])
    def test_closed_form_of_another_shape_is_refused(self, closed):
        # the closed form gets the whole grid in one call and must give one value per point
        grid = np.array([[1.0, 1.0], [0.5, 2.0]])
        with pytest.raises(SpecValidationError, match=r"for a grid of 2 points; expected \(2,\)"):
            dg.mc_verify(self.sampler, closed, grid, 100, 7)

    def test_closed_form_gets_the_grid_in_one_call(self):
        calls = []
        grid = dg.default_quantile_grid(lambda q: q / (1 - q), 2)
        dg.mc_verify(self.sampler, lambda g: calls.append(g.copy()) or self.survival(g), grid,
                     1000, 7)
        assert len(calls) == 1 and np.array_equal(calls[0], grid)

    def test_report_with_nan_is_not_written_as_json(self):
        report = dg.mc_verify(self.sampler, lambda g: np.full(len(g), math.nan),
                              np.array([[1.0, 1.0]]), 100, 7)
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json_str()

    def test_band_on_closed_form_value(self):
        # 1 of 300 rows above a point whose closed value is 0.02: z = -2.06
        # against the closed-form standard error, inside the 3-sigma band;
        # the empirical one, sqrt(emp (1 - emp) / n), is 2.4 times narrower
        def sampler(n, rng):
            data = np.zeros((n, 1))
            data[0] = 1.0
            return data

        r = dg.mc_verify(sampler, lambda g: np.full(len(g), 0.02), np.array([[0.5]]), 300, 1)
        assert r.empirical == (1 / 300,)
        assert r.stderr == (math.sqrt(0.02 * 0.98 / 300),)
        assert r.passed

    def test_thread_streams_independent_across_seeds(self):
        # with streams seeded seed + i, seed 7 thread 1 drew seed 8 thread 0's rows
        first = {}

        def sampler(n, rng):
            u = rng.random((n, 1))
            first.setdefault(seed, []).append(float(u[0, 0]))
            return u

        for seed in (7, 8):
            dg.mc_verify(sampler, lambda g: np.full(len(g), 0.5), np.array([[0.5]]), 1000, seed,
                         threads=2)
        assert len(set(first[7]) | set(first[8])) == 4

    def test_cdf_mode(self):
        sampler = lambda n, rng: rng.random((n, 2))
        cdf = lambda g: np.prod(np.clip(g, 0, 1), axis=1)
        grid = np.array([[0.3, 0.8], [0.5, 0.5]])
        r = dg.mc_verify(sampler, cdf, grid, 30000, 11, mode="cdf")
        assert r.passed

    @settings(max_examples=200, deadline=None)
    @given(tied_samples(), st.sampled_from(["survival", "cdf"]))
    def test_orthant_hits_match_per_row_oracle(self, case, mode):
        rows, grid = case
        hits = dg._orthant_hits(np.array(rows, dtype=float), np.array(grid, dtype=float), mode)
        assert hits.tolist() == orthant_hits_oracle(rows, grid, mode)

    @settings(max_examples=40, deadline=None)
    @given(tied_samples(), st.sampled_from(["survival", "cdf"]))
    def test_threaded_hits_match_oracle_on_all_streams(self, case, mode):
        rows, grid = case
        values = sorted({g for point in grid for g in point} | {math.inf, -math.inf})
        chunks = []

        def sampler(n, rng):
            out = rng.choice(values, size=(n, len(grid[0])))
            chunks.append(out)
            return out

        n = 3 * len(rows)
        r = dg.mc_verify(sampler, lambda g: np.full(len(g), 0.5), grid, n, 5, threads=3, mode=mode)
        assert len(chunks) == 3
        sample = np.concatenate(chunks).tolist()
        assert len(sample) == n
        assert r.empirical == tuple(h / n for h in orthant_hits_oracle(sample, grid, mode))

    def test_threaded_l1_verify_counts_the_concatenated_streams(self):
        spec = {"family": "l1", "d": 3, "m": {"family": "gamma", "shape": 2.0}}
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["verify", "--model", json.dumps(spec), "--n", "3001", "--seed", "4",
                      "--threads", "2"])
        report = json.loads(out.getvalue())
        streams = np.random.SeedSequence(4).spawn(2)
        rows = np.concatenate([mx.sample_l1_ciid(Gamma(2.0), 3, size, np.random.default_rng(s))
                               for s, size in zip(streams, (1500, 1501))])
        hits = orthant_hits_oracle(rows.tolist(), report["grid"], "survival")
        assert report["empirical"] == [h / 3001 for h in hits]

    def test_counting_memory_is_one_copy_of_the_sample(self):
        data = np.random.default_rng(0).random((100_000, 5))
        grid = np.random.default_rng(1).random((100, 5))
        tracemalloc.start()
        try:
            dg.mc_verify(lambda n, rng: data[:n], lambda g: np.full(len(g), 0.5), grid, data.shape[0], 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * data.nbytes

    @staticmethod
    def counted(blocks, grid, mode):
        """Rows of all ``blocks`` in each grid point's orthant, by plain numpy."""
        inside = np.greater if mode == "survival" else np.less_equal
        return [sum(int(inside(b, point).all(axis=1).sum()) for b in blocks) for point in grid]

    @staticmethod
    def verified(model, n, seed, mode):
        return dg.mc_verify(model.sampler, functools.partial(model.evaluate, mode),
                            model.default_grid(), n, seed, mode=mode)

    @pytest.mark.parametrize("spec, mode", [
        ({"family": "exch_normal", "rho": 0.5, "d": 4}, "cdf"),
        ({"family": "l1", "d": 4, "m": {"family": "gamma", "shape": 2.0}}, "survival"),
    ], ids=["exch_normal", "l1"])
    def test_a_stream_above_a_block_counts_blocks_of_one_generator(self, spec, mode):
        """Above BLOCK_BYTES the stream is drawn in blocks: its counts are those
        of the blocks drawn by hand from one Generator, not of re-seeded ones."""
        model = cli.build_model(spec)
        rows = sample.BLOCK_BYTES // (8 * model.d)
        sizes = (rows, rows, 5000)
        report = self.verified(model, sum(sizes), 3, mode)
        rng = np.random.default_rng(3)
        blocks = [model.sampler(m, rng) for m in sizes]
        assert not np.array_equal(blocks[0][:10], blocks[1][:10])
        grid = model.default_grid()
        n = sum(sizes)
        assert report.empirical == tuple(h / n for h in self.counted(blocks, grid, mode))
        reseeded = [model.sampler(m, np.random.default_rng(3)) for m in sizes]
        assert report.empirical != tuple(h / n for h in self.counted(reseeded, grid, mode))
        assert report.passed

    def test_each_thread_stream_is_drawn_in_blocks_from_its_own_seed(self):
        model = cli.build_model({"family": "l1", "d": 4, "m": {"family": "gamma", "shape": 2.0}})
        rows = sample.BLOCK_BYTES // (8 * model.d)
        grid = model.default_grid()
        report = dg.mc_verify(model.sampler, functools.partial(model.evaluate, "survival"), grid,
                              3 * (rows + 1000), 5, threads=3)
        blocks = []
        for stream in np.random.SeedSequence(5).spawn(3):
            rng = np.random.default_rng(stream)
            blocks += [model.sampler(rows, rng), model.sampler(1000, rng)]
        n = 3 * (rows + 1000)
        assert report.empirical == tuple(h / n for h in self.counted(blocks, grid, "survival"))

    def test_verify_memory_does_not_grow_with_n(self):
        """l1 at n = 2e5, d = 40 is a 64 MB sample; verify peaks below four blocks."""
        model = cli.build_model({"family": "l1", "d": 40, "m": {"family": "gamma", "shape": 2.0}})
        self.verified(model, 10, 1, "survival")  # loads what the run uses
        tracemalloc.start()
        try:
            report = self.verified(model, 200_000, 1, "survival")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n == 200_000
        assert peak < 4 * sample.BLOCK_BYTES

    @settings(max_examples=60, deadline=None)
    @given(blocked_samples(), st.sampled_from(["survival", "cdf"]))
    def test_blocked_hits_match_whole_sample_oracle(self, case, mode):
        data, grid = case
        inside = np.greater if mode == "survival" else np.less_equal
        expected = [int(inside(data, point).all(axis=1).sum()) for point in grid]
        assert dg._orthant_hits(data, grid, mode).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(laid_out_samples(), st.sampled_from(["survival", "cdf"]))
    def test_hits_match_oracle_in_every_layout(self, case, mode):
        data, grid = case
        expected = orthant_hits_oracle(data.tolist(), grid.tolist(), mode)
        assert dg._orthant_hits(data, grid, mode).tolist() == expected

    def test_column_major_sample_is_counted_without_a_copy(self):
        data = np.asfortranarray(np.random.default_rng(0).random((200_000, 5)))
        grid = np.r_[np.random.default_rng(1).random((5, 5)), np.full((5, 5), 0.5)]
        tracemalloc.start()
        try:
            dg._orthant_hits(data, grid, "survival")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3e6

    def test_counting_memory_is_one_block(self):
        data = np.random.default_rng(0).random((200_000, 5))
        grid = np.random.default_rng(1).random((10, 5))
        tracemalloc.start()
        try:
            dg._orthant_hits(data, grid, "survival")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_default_grid_shape(self):
        grid = dg.default_quantile_grid(lambda q: q, 3)
        assert grid.shape == (10, 3)
        grid1 = dg.default_quantile_grid(lambda q: q, 1)
        assert grid1.shape == (5, 1)
