import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condiid import lack_of_memory as lom
from condiid import moments as mo
from condiid.errors import NonPositiveEntryError, NotDMonotoneError, SpecValidationError
from condiid.mixing import Beta, FiniteDiscrete, PointMass


def reference_difference(v, j, k):
    """nabla^j v_k as the left-to-right sum of its terms, started from 0."""
    return sum((-1) ** i * math.comb(j, i) * v[k + i] for i in range(j + 1))


ULP = Fraction(1, 2**1074)  # every double is an integer multiple of it


def exact_table(v):
    """The exact difference table nabla^{d-k} v_k of the doubles v and each
    entry's error bound d * eps * sum_i C(d-k, i) |v_{k+i}|, in units of ULP."""
    d, n = len(v) - 1, [int(Fraction(x) / ULP) for x in v]
    exact = [reference_difference(n, d - k, k) for k in range(d + 1)]
    bound = [d * Fraction(sys.float_info.epsilon)
             * sum(math.comb(d - k, i) * abs(n[k + i]) for i in range(d - k + 1))
             for k in range(d + 1)]
    return exact, bound


@st.composite
def unit_sequences(draw):
    """(1, b_1..b_d), d <= 60: moments of a law with at most four atoms in
    [0, 1], d-monotone before rounding, or entries drawn from [0, 1]."""
    d = draw(st.integers(0, 60))
    if draw(st.booleans()):
        atoms = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(atoms), max_size=len(atoms)))
        return [1.0] + [sum(w * x**k for w, x in zip(weights, atoms)) / sum(weights)
                        for k in range(1, d + 1)]
    return [1.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))


class TestDifferenceTable:
    """The difference table against the left-to-right sum it replaces, bit
    for bit, and against exact rational differences of the same doubles."""

    def test_second_difference_by_hand(self):
        # 1 - 2*(1/2) + 1/4, then 1/2 - 1/4, then 1/4
        assert mo._top_differences((1, 0.5, 0.25)).tolist() == [0.25, 0.25, 0.25]

    def test_order_zero_is_identity(self):
        seq = (1.0, 0.7, 0.3)
        for k in range(3):
            assert mo._top_differences(seq[k : k + 1])[0] == seq[k]

    def test_constant_sequence_vanishes(self):
        assert mo._top_differences((1.0, 1.0, 1.0)).tolist() == [0.0, 0.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(v=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=61), data=st.data())
    def test_bits_of_the_left_to_right_sum(self, v, data):
        d = len(v) - 1
        table = mo._top_differences(v)
        assert [x.hex() for x in table.tolist()] == [
            float(reference_difference(v, d - k, k)).hex() for k in range(d + 1)
        ]
        exact, bound = exact_table(v)
        assert all(abs(Fraction(x) / ULP - e) <= r for x, e, r in zip(table.tolist(), exact, bound))
        k = data.draw(st.integers(0, d))
        j = data.draw(st.integers(0, d - k))
        sub = mo._top_differences(v[k : k + j + 1])[0]
        assert sub.hex() == float(reference_difference(v, j, k)).hex()

    @settings(max_examples=200, deadline=None)
    @given(b=unit_sequences(), data=st.data())
    def test_d_monotone_verdict_is_exact_where_the_bound_decides(self, b, data):
        d = len(b) - 1
        exact, bound = exact_table(b)
        tol = Fraction(mo.MONOTONE_TOL) / ULP
        if all(abs(e + tol) > r for e, r in zip(exact, bound)):
            assert mo.is_d_monotone(b) == all(e >= -tol for e in exact)
        k = data.draw(st.integers(0, d))
        j = data.draw(st.integers(0, d - k))
        assert mo._top_differences(b[k : k + j + 1])[0].hex() == float(
            reference_difference(b, j, k)).hex()


def is_log_d_monotone(b) -> bool:
    """Whether the exponential law with survival-form parameters b is accepted."""
    try:
        lom.rates_from_exponents(lom.exponents_from_b(b))
    except NotDMonotoneError:
        return False
    return True


class TestMonotonicity:
    def test_geometric_is_d_monotone(self):
        assert mo.is_d_monotone((1, 0.5, 0.25))

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_interval_family(self, eps):
        assert mo.is_d_monotone((1.0, 0.5, eps))

    def test_increasing_fails(self):
        assert not mo.is_d_monotone((1.0, 1.0, 1.5))

    # b is log-d-monotone iff the difference table of its exponents
    # a_k = -log(b_k / b_(k-1)), the shock rates, is non-negative

    def test_log_geometric(self):
        q = 0.37
        assert is_log_d_monotone(tuple(q**k for k in range(5)))

    def test_log_counterexample_by_hand(self):
        # nabla^2 log b_0 = 0 - 2*log(0.9) + log(0.5) ~ -0.482
        assert not is_log_d_monotone((1.0, 0.9, 0.5))

    def test_log_requires_positive_entries(self):
        with pytest.raises(NonPositiveEntryError):
            is_log_d_monotone((1.0, 0.5, 0.0))

    def test_degenerate_point_mass_at_zero(self):
        assert mo.is_d_monotone((1.0, 0.0, 0.0))


class TestLogDCorrespondence:
    """(b_0..b_{d-1}) is (d-1)-monotone iff the exp-cumulative transform
    (1, e^{-b_0}, ..., e^{-sum b_i}) is log-d-monotone; exact identity."""

    @staticmethod
    def transform(b):
        sums = np.concatenate([[0.0], np.cumsum(b)])
        return tuple(np.exp(-sums))

    def test_equivalence_on_random_sequences(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                p = rng.random(d)
                p = p / sum(math.comb(d - 1, k) * p[k] for k in range(d))
                b = mo.b_from_p(mo.BinaryExchangeableLaw(tuple(p))).values
            else:
                b = (1.0,) + tuple(rng.random(d - 1) * 1.2)
            stats = mo._top_differences(b[:d])  # nabla^{d-1-k} b_k, k < d
            if min(abs(s) for s in stats) < 1e-9:
                continue  # stay away from the exact boundary
            lhs = mo.is_d_monotone(b)
            rhs = is_log_d_monotone(self.transform(b))
            assert lhs == rhs, (b, lhs, rhs)
            checked += 1

    def test_subsequences_inherit_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            p = rng.random(d + 1)
            p = p / sum(math.comb(d, k) * p[k] for k in range(d + 1))
            b = mo.b_from_p(mo.BinaryExchangeableLaw(tuple(p))).values
            assert mo.is_d_monotone(b[:-1])
            if b[1] > 0:
                tail = tuple(v / b[1] for v in b[1:])
                assert mo.is_d_monotone((1.0,) + tail[1:])


class TestHausdorffExtendible:
    def test_known_interval(self):
        assert mo.hausdorff_extendible((1.0, 0.5, 0.3)).extendible
        assert not mo.hausdorff_extendible((1.0, 0.5, 0.2)).extendible

    def test_boundary_counts_as_extendible(self):
        verdict = mo.hausdorff_extendible((1.0, 0.5, 0.25))
        assert verdict.extendible

    def test_point_mass_moments(self):
        for m in (0.0, 0.3, 1.0):
            seq = tuple(m**k for k in range(5))
            assert mo.hausdorff_extendible((1.0,) + seq[1:]).extendible

    def test_flip_located_by_bisection(self):
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if mo.hausdorff_extendible((1.0, 0.5, mid)).extendible:
                hi = mid
            else:
                lo = mid
        assert abs(hi - 0.25) < 1e-6

    def test_requires_d_monotone(self):
        with pytest.raises(NotDMonotoneError):
            mo.hausdorff_extendible((1.0, 0.2, 0.5))

    def test_witness_realizes_moments(self):
        seq = mo.moment_sequence(Beta(1, 1), 4)
        assert mo.hausdorff_extendible(seq).extendible
        witness = mo.discrete_witness(seq)
        for k, target in enumerate(seq.values):
            assert witness.moment(k) == pytest.approx(target, abs=1e-9)

    def test_verdict_json(self):
        v = mo.hausdorff_extendible((1.0, 0.5, 0.3))
        js = v.to_json()
        assert js["extendible"] is True
        assert js["min_hankel"] == pytest.approx(0.05)

    def test_degree_zero_has_no_determinants(self):
        v = mo.hausdorff_extendible((1.0,))
        assert v.extendible and v.hankel_values == () and v.min_hankel == 0.0

    def test_degree_one(self):
        # hat_1 = b_1, check_1 = nabla b_0 = 1 - b_1
        v = mo.hausdorff_extendible((1.0, 0.25))
        assert v.extendible and v.hankel_values == (0.25, 0.75) and v.min_hankel == 0.25

    def test_point_mass_at_0_3_is_on_the_boundary(self):
        # every Hankel matrix of size 2 or more is singular: rank one
        v = mo.hausdorff_extendible(tuple(float(Fraction(3, 10) ** k) for k in range(7)))
        assert v.extendible
        assert v.hankel_values[:4] == pytest.approx((0.3, 0.7, 0.0, 0.21), abs=1e-15)
        assert max(abs(h) for h in v.hankel_values[4:]) < 1e-15
        assert len(v.hankel_values) == 12

    def test_one_det_call_per_matrix_size(self, monkeypatch):
        calls = []
        det = np.linalg.det

        def counting_det(a):
            calls.append(a.shape)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting_det)
        for d in range(1, 13):
            calls.clear()
            mo.hausdorff_extendible(beta_moments(2, 3, d))
            sizes = [shape[-1] for shape in calls]
            assert sizes == list(range(1, d // 2 + 2))
            assert sum(shape[0] for shape in calls) == 2 * d

    def test_nan_determinant_does_not_flip_the_verdict(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "det", lambda a: np.full(a.shape[:-2], np.nan))
        v = mo.hausdorff_extendible((1.0, 0.5, 0.2))
        assert v.extendible and all(math.isnan(h) for h in v.hankel_values)


def beta_moments(a, b, d):
    """E[M^k] = prod_{j<k} (a + j) / (a + b + j) of M ~ Beta(a, b), exact, then rounded."""
    out, m = [], Fraction(1)
    for k in range(d + 1):
        out.append(float(m))
        m *= Fraction(a + k) / (a + b + k)
    return tuple(out)


@st.composite
def finite_laws(draw):
    """k <= 4 distinct atoms i/q in (0, 1), q <= 5, with integer weight ratios.

    Finer grids are not drawn: rounding the moments to doubles alone moves 4
    atoms 1/10 apart by 1.5e-10 (the recursion run in exact arithmetic on
    the rounded moments), so no 1e-10 recovery is possible there.
    """
    q = draw(st.integers(2, 5))
    nums = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=4, unique=True))
    ints = draw(st.lists(st.integers(1, 9), min_size=len(nums), max_size=len(nums)))
    return [Fraction(i, q) for i in sorted(nums)], [Fraction(w, sum(ints)) for w in ints]


def bareiss_det(rows) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination with row swaps."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[-1][-1]


def exact_hankel_matrices(b) -> list:
    """hat_n and check_n, n = 1..d, built entry by entry from exact b."""
    nab = [b[i] - b[i + 1] for i in range(len(b) - 1)]
    out = []
    for n in range(1, len(b)):
        l = n // 2
        if n % 2 == 0:
            out += [[[b[i + j] for j in range(l + 1)] for i in range(l + 1)],
                    [[nab[1 + i + j] for j in range(l)] for i in range(l)]]
        else:
            out += [[[b[1 + i + j] for j in range(l + 1)] for i in range(l + 1)],
                    [[nab[i + j] for j in range(l + 1)] for i in range(l + 1)]]
    return out


@st.composite
def rational_law_moments(draw):
    """The doubles nearest to b_0..b_d, d <= 12, of a law with at most five
    atoms i/q in [0, 1], q <= 12; in half the draws one b_j is then scaled by
    1 + eps, |eps| between 1e-5 and 0.1."""
    q = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(0, q), min_size=1, max_size=5, unique=True))
    ints = draw(st.lists(st.integers(1, 9), min_size=len(nums), max_size=len(nums)))
    d = draw(st.integers(0, 12))
    b = [float(sum(Fraction(w, sum(ints)) * Fraction(x, q) ** k for x, w in zip(nums, ints)))
         for k in range(d + 1)]
    if d and draw(st.booleans()):
        j = draw(st.integers(1, d))
        b[j] *= 1 + draw(st.sampled_from([-0.1, -1e-2, -1e-3, -1e-5, 1e-5, 1e-3, 1e-2, 0.1]))
    return b


class TestExtendibilityOracle:
    @settings(max_examples=300, deadline=None)
    @given(b=rational_law_moments())
    def test_verdict_matches_exact_determinants(self, b):
        # the exact determinants of the same doubles decide wherever each of
        # them clears +-1e-6 * scale^size, scale its matrix's largest |entry|
        if not mo.is_d_monotone(b):
            with pytest.raises(NotDMonotoneError):
                mo.hausdorff_extendible(b)
            return
        dets = []
        for mat in exact_hankel_matrices([Fraction(v) for v in b]):
            scale = max(abs(x) for row in mat for x in row)
            det = bareiss_det(mat)
            if abs(det) <= Fraction(1e-6) * scale ** len(mat):
                return  # too close to zero for double-precision input to decide
            dets.append(det)
        assert mo.hausdorff_extendible(b).extendible == all(det > 0 for det in dets)


class TestDiscreteWitness:
    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
    def test_beta_at_odd_degree_is_gauss_jacobi(self, a, b):
        # b_0..b_{2n-1} of Beta(a, b) fix the n-point Gauss rule of the weight
        # t^(a-1) (1-t)^(b-1): Gauss-Jacobi with (alpha, beta) = (b-1, a-1) on
        # [-1, 1], mapped to [0, 1].  Rounding the moments to doubles moves
        # the rule by up to 20-40 times more per extra node (4.7e-7 at n = 8),
        # so the bound grows as 30^(n-1).
        from scipy.special import roots_jacobi

        for n in range(1, 9):
            got = mo.discrete_witness(beta_moments(a, b, 2 * n - 1))
            x, w = roots_jacobi(n, float(b) - 1, float(a) - 1)
            tol = 1e-15 * 30.0 ** (n - 1)
            np.testing.assert_allclose(got.atoms, (1 + x) / 2, rtol=0, atol=tol)
            np.testing.assert_allclose(got.weights, w / w.sum(), rtol=0, atol=tol)

    @settings(max_examples=200, deadline=None)
    @given(law=finite_laws(), extra=st.integers(0, 4))
    def test_finite_law_recovered_on_the_boundary(self, law, extra):
        atoms, weights = law
        d = 2 * len(atoms) + extra
        seq = [float(sum(w * x**j for x, w in zip(atoms, weights))) for j in range(d + 1)]
        got = mo.discrete_witness(seq)
        np.testing.assert_allclose(got.atoms, [float(x) for x in atoms], rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.weights, [float(w) for w in weights], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", [0.0, 0.3, 1.0])
    def test_point_mass_is_one_atom(self, m):
        got = mo.discrete_witness((1.0,) + tuple(m**k for k in range(1, 7)))
        assert got.atoms.tolist() == [m] and got.weights.tolist() == [1.0]

    @pytest.mark.parametrize("seq, atoms, weights", [
        # the witness of the Hankel-solve construction this one replaced
        (beta_moments(2, 3, 1), [0.4], [1.0]),
        (beta_moments(2, 3, 2), [0.0, 0.5], [0.19999999999999996, 0.8]),
        (beta_moments(2, 3, 3), [0.22654091966098652, 0.6306019374818708],
         [0.570710678118655, 0.42928932188134505]),
        (beta_moments(2, 3, 4), [0.0, 0.3110177634953866, 0.6889822365046138],
         [0.0666666666666671, 0.643050087404306, 0.29028324592902693]),
        (beta_moments(1, 1, 4), [0.0, 0.35505102572168223, 0.8449489742783179],
         [0.11111111111111027, 0.5124858261884228, 0.376403062700467]),
        ((1.0, 0.5, 0.3), [0.0, 0.6], [0.1666666666666663, 0.8333333333333337]),
    ])
    def test_matches_the_previous_witness(self, seq, atoms, weights):
        got = mo.discrete_witness(seq)
        np.testing.assert_allclose(got.atoms, atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.weights, weights, rtol=0, atol=1e-12)

    def test_beta_witness_up_to_the_limit_of_double_precision(self):
        # Beta(2, 3) passes the extendibility check up to d = 40; its witness
        # exists up to d = 25, from d = 26 on the computed beta_13 is negative
        for d in range(1, 41):
            seq = beta_moments(2, 3, d)
            assert mo.hausdorff_extendible(seq).extendible
            if d >= 26:
                with pytest.raises(SpecValidationError, match="beta_13 = .* is negative"):
                    mo.discrete_witness(seq)
                continue
            got = mo.discrete_witness(seq)
            assert len(got.atoms) == d // 2 + 1
            assert max(abs(got.moment(k) - v) for k, v in enumerate(seq)) < 1e-8
            # the pattern probabilities the sample stands for, C(d, k) E[M^k (1-M)^(d-k)],
            # in exact arithmetic for the witness and for Beta(2, 3)
            atoms = [Fraction(float(x)) for x in got.atoms]
            weights = [Fraction(float(w)) for w in got.weights]
            for k in range(d + 1):
                p_got = sum(w * x**k * (1 - x) ** (d - k) for x, w in zip(atoms, weights))
                p_beta = Fraction(math.prod(range(2, 2 + k)) * math.prod(range(3, 3 + d - k)),
                                  math.prod(range(5, 5 + d)))
                assert abs(math.comb(d, k) * (p_got - p_beta)) < 1e-8

    @pytest.mark.parametrize("seq, message", [
        ((1.0, 0.5, 0.2), "beta_1 = -0.05 is negative"),
        # the 13th recursion coefficient of Beta(1, 1) is lost to rounding
        (beta_moments(1, 1, 25), "atoms span"),
        (beta_moments(2, 3, 28), "is negative"),
    ])
    def test_refusals(self, seq, message):
        with pytest.raises(SpecValidationError, match=message):
            mo.discrete_witness(seq)


class TestBinaryParameterizations:
    def test_all_ones_certain(self):
        d = 4
        law = mo.BinaryExchangeableLaw((0.0,) * d + (1.0,))
        assert mo.b_from_p(law).values == (1.0,) * (d + 1)

    def test_hand_example(self):
        law = mo.BinaryExchangeableLaw((0.25, 0.25, 0.25))
        assert mo.b_from_p(law).values == pytest.approx((1.0, 0.5, 0.25))

    def test_uniform_mixture_matches_polya(self):
        seq = mo.moment_sequence(Beta(1, 1), 2)
        assert seq.values == pytest.approx((1.0, 0.5, 1.0 / 3.0))

    def test_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            p = rng.random(d + 1)
            p = p / sum(math.comb(d, k) * p[k] for k in range(d + 1))
            law = mo.BinaryExchangeableLaw(tuple(p))
            back = mo.p_from_b(mo.b_from_p(law))
            assert np.allclose(back.p, law.p, atol=1e-12)
            seq = mo.b_from_p(law)
            again = mo.b_from_p(mo.p_from_b(seq))
            assert np.allclose(again.values, seq.values, atol=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(SpecValidationError):
            mo.BinaryExchangeableLaw((0.5, 0.5, 0.5))


class TestMomentSequence:
    def test_point_mass(self):
        seq = mo.moment_sequence(PointMass(0.7), 3)
        assert seq.values == pytest.approx((1.0, 0.7, 0.49, 0.343))

    def test_beta_gamma_ratio(self):
        p, q = 2.3, 1.7
        law = Beta(p, q)
        seq = mo.moment_sequence(law, 5)
        for k in range(6):
            expect = math.gamma(p + k) * math.gamma(p + q) / (math.gamma(p) * math.gamma(p + q + k))
            assert seq.values[k] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p, q", [(1.5, 1.5), (0.5, 5.0), (5.0, 0.5)])
    def test_b0_is_one_where_the_law_rounds_it(self, p, q):
        assert Beta(p, q).moment(0) != 1.0  # gammaln rounds Gamma(p)/Gamma(p) off 1
        assert mo.moment_sequence(Beta(p, q), 2).values[0] == 1.0

    def test_rejects_unbounded_law(self):
        from condiid.errors import UnsupportedLawError
        from condiid.mixing import Gamma

        with pytest.raises(UnsupportedLawError):
            mo.moment_sequence(Gamma(1.0), 3)


class TestSamplers:
    def test_constant_mixtures(self):
        rng = np.random.default_rng(0)
        ones = mo.sample_binary_mixture(PointMass(1.0), 3, 50, rng)
        assert (ones == 1.0).all()
        zeros = mo.sample_binary_mixture(FiniteDiscrete([0.0], [1.0]), 3, 50, rng)
        assert (zeros == 0.0).all()

    def test_uniform_mixture_pair_probability(self):
        rng = np.random.default_rng(1)
        sm = mo.sample_binary_mixture(Beta(1, 1), 2, 100000, rng)
        both = (sm == 1.0).all(axis=1).mean()
        assert both == pytest.approx(1.0 / 3.0, abs=3 * math.sqrt((1 / 3) * (2 / 3) / 100000) + 1e-3)

    def test_polya_first_draw(self):
        rng = np.random.default_rng(2)
        sm = mo.sample_polya_urn(2, 3, 1, 50000, rng)
        assert sm.mean() == pytest.approx(0.4, abs=0.01)

    def test_polya_closed_form_product(self):
        # r=b=1, d=2: P(X=(1,1)) = (1/2)*(2/3)
        assert mo.polya_pattern_probability(1, 1, 2, 2) == pytest.approx(1.0 / 3.0)

    def test_polya_matches_beta_mixture_chi_square(self):
        rng = np.random.default_rng(3)
        d, n = 3, 60000
        r, b = 2, 1
        urn = mo.sample_polya_urn(r, b, d, n, rng)
        mix = mo.sample_binary_mixture(Beta(r, b), d, n, rng)
        weights = 2 ** np.arange(d)
        urn_codes = (urn @ weights).astype(int)
        mix_codes = (mix @ weights).astype(int)
        urn_counts = np.bincount(urn_codes, minlength=2**d)
        mix_counts = np.bincount(mix_codes, minlength=2**d)
        # chi-square two-sample statistic over the 2^d patterns
        stat = 0.0
        for u, m in zip(urn_counts, mix_counts):
            if u + m:
                stat += (u - m) ** 2 / (u + m)
        from scipy.stats import chi2

        assert stat < chi2.ppf(0.999, df=2**d - 1)

    def test_polya_pattern_probabilities_closed_form(self):
        rng = np.random.default_rng(4)
        d, n, r, b = 3, 80000, 1, 2
        sm = mo.sample_polya_urn(r, b, d, n, rng)
        ones = sm.sum(axis=1).astype(int)
        for k in range(d + 1):
            p_pattern = mo.polya_pattern_probability(r, b, d, k)
            expect = math.comb(d, k) * p_pattern
            emp = (ones == k).mean()
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(emp - expect) <= 3 * se + 1e-3
