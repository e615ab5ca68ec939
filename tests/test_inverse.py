"""The monotone-inversion kernel against closed-form inverses."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from condiid.inverse import TOL, monotone_inverse, monotone_inverse_rows

# (fn, inverse) pairs of non-increasing functions with fn(0) = 1, indexed by a
# shape parameter in [0.1, 10]
FAMILIES = {
    "exp": (lambda a: (lambda x: np.exp(-a * x), lambda u: -math.log(u) / a)),
    "lomax": (lambda a: (lambda x: (1.0 + x) ** -a, lambda u: u ** (-1.0 / a) - 1.0)),
}

shapes = st.floats(0.1, 10.0)
levels = st.floats(1e-6, 1.0 - 1e-6)


def close(x, exact):
    # the bisection bracket plus the rounding of fn near the crossing
    return abs(x - exact) <= TOL * max(1.0, exact) + 1e-13 * max(1.0, exact)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), shapes, levels, st.floats(0.0, 0.999))
def test_scalar_matches_closed_form(family, a, u, warm):
    fn, inv = FAMILIES[family](a)
    exact = inv(u)
    pred = lambda x: fn(x) <= u
    x = monotone_inverse(pred, lo=warm * exact)
    assert pred(x)
    assert close(x, exact)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), shapes,
       st.lists(st.tuples(levels, st.floats(0.0, 0.999)), min_size=1, max_size=20))
def test_rows_match_closed_form(family, a, cases):
    fn, inv = FAMILIES[family](a)
    u = np.array([c[0] for c in cases])
    exact = np.array([inv(v) for v in u])
    lo = np.array([c[1] for c in cases]) * exact
    pred = lambda x: fn(x) <= u
    x = monotone_inverse_rows(pred, lo)
    assert pred(x).all()
    for xi, ei in zip(x, exact):
        assert close(xi, ei)


def test_never_true_gives_inf():
    assert monotone_inverse(lambda x: False) == math.inf
    assert monotone_inverse(lambda x: False, lo=5.0) == math.inf
    rows = monotone_inverse_rows(lambda x: np.zeros(x.shape, dtype=bool), np.zeros(3))
    assert (rows == math.inf).all()


def test_rows_that_never_hold_stay_inf():
    # rows 0 and 2 cross at 2.5 and 40, row 1 never does
    target = np.array([2.5, math.inf, 40.0])
    x = monotone_inverse_rows(lambda t: t >= target, np.zeros(3))
    assert x[1] == math.inf
    assert abs(x[0] - 2.5) <= TOL * 2.5 and abs(x[2] - 40.0) <= TOL * 40.0
