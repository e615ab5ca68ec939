"""The monotone-inversion kernel: the least positive double at which the
predicate holds, against closed-form inverses and thresholds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from condiid.inverse import monotone_inverse, monotone_inverse_rows

# (fn, inverse) pairs of non-increasing functions with fn(0) = 1, indexed by a
# shape parameter in [0.1, 10]
FAMILIES = {
    "exp": (lambda a: (lambda x: np.exp(-a * x), lambda u: -math.log(u) / a)),
    "lomax": (lambda a: (lambda x: (1.0 + x) ** -a, lambda u: u ** (-1.0 / a) - 1.0)),
}

shapes = st.floats(0.1, 10.0)
levels = st.floats(1e-6, 1.0 - 1e-6)
MAX = np.finfo(float).max


def is_least(pred, x):
    """``pred`` holds at x and, unless x is the least positive double, fails just below it."""
    below = math.nextafter(x, 0.0)
    return bool(pred(x)) and (below == 0.0 or not pred(below))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), shapes, levels)
def test_scalar_matches_closed_form(family, a, u):
    fn, inv = FAMILIES[family](a)
    exact = inv(u)
    pred = lambda x: fn(x) <= u
    x = monotone_inverse(pred)
    assert is_least(pred, x)
    # the rounding of fn near the crossing
    assert abs(x - exact) <= 1e-13 * max(1.0, exact)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), shapes, st.lists(levels, min_size=1, max_size=20))
def test_rows_match_closed_form(family, a, u):
    fn, inv = FAMILIES[family](a)
    # fn value by value: numpy's vector pow rounds some values otherwise
    rows_pred = lambda t: np.array([fn(v) <= w for v, w in zip(t.tolist(), u)])
    x = monotone_inverse_rows(rows_pred, len(u))
    for xi, ui in zip(x.tolist(), u):
        assert xi == monotone_inverse(lambda t: fn(t) <= ui)
        assert abs(xi - inv(ui)) <= 1e-13 * max(1.0, inv(ui))


def test_threshold_is_exact_beyond_two_to_the_300():
    """A bracket grown by at most 300 doublings gave inf here."""
    assert monotone_inverse(lambda t: t >= 1e120) == 1e120
    assert monotone_inverse(lambda t: t > 1e120) == math.nextafter(1e120, math.inf)
    assert monotone_inverse(lambda t: t >= MAX) == MAX
    assert monotone_inverse(lambda t: t >= 5e-324) == 5e-324
    assert monotone_inverse_rows(lambda t: t >= 1e120, 2).tolist() == [1e120, 1e120]


def test_never_true_gives_inf():
    assert monotone_inverse(lambda x: False) == math.inf
    rows = monotone_inverse_rows(lambda x: np.zeros(x.shape, dtype=bool), 3)
    assert (rows == math.inf).all()


def test_never_true_takes_at_most_63_calls():
    asked = []
    assert monotone_inverse(lambda x: asked.append(x) or False) == math.inf
    assert 0 < len(asked) <= 63
    assert all(0.0 < x <= MAX for x in asked)


def test_predicate_is_never_asked_at_0_or_at_inf():
    asked = []
    monotone_inverse(lambda x: asked.append(x) or x >= MAX)
    monotone_inverse(lambda x: asked.append(x) or True)
    assert 0.0 not in asked and math.inf not in asked


def test_rows_that_never_hold_stay_inf():
    # rows 0 and 2 cross at 2.5 and 40, row 1 never does
    target = np.array([2.5, math.inf, 40.0])
    x = monotone_inverse_rows(lambda t: t >= target, 3)
    assert x.tolist() == [2.5, math.inf, 40.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(5e-324, MAX), min_size=1, max_size=10))
def test_rows_match_scalar_up_to_the_largest_double(thresholds):
    """Thresholds anywhere among the doubles; near the largest double the
    bits of both ends are near 2^63, where lo + hi overflows int64."""
    target = np.array(thresholds + [MAX, math.nextafter(MAX, 0.0), math.inf])
    asked = []

    def pred(t):
        asked.append(t)
        assert len(asked) <= 63
        return t >= target

    rows = monotone_inverse_rows(pred, target.size)
    for x, t in zip(rows.tolist(), target.tolist()):
        assert x == monotone_inverse(lambda s: s >= t)
        assert x == t
