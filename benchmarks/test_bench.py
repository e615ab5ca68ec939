"""Tests of the benchmark itself: python3 -m pytest -q benchmarks"""

from __future__ import annotations

import importlib
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_oracle import (  # noqa: E402
    bareiss_det, beta_moments, half_ones_moments, hankel_determinants, verdict,
)
from bench_trace import LAYERS, Span, SpanRecorder, layer_totals, patched, self_times  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a, as spans from two threads do
        Span(3, 1, "leaf", 2.0, 3.0),
        Span(4, 0, "late", 9.0, 12.0),  # only [9, 10] lies inside the parent
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1, 2: 3, 3: 1, 4: 3})
    totals = layer_totals(spans + [Span(5, None, "leaf", 20.0, 20.5)])
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["self_s"] == pytest.approx(1.5)


def test_worker_thread_span_takes_recording_thread_parent():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        def work():
            with rec.span("inner"):
                pass
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    inner = next(s for s in rec.spans if s.name == "inner")
    assert inner.parent == outer.id
    assert outer.parent is None


@pytest.mark.parametrize("matrix, det", [
    ([[1, 0], [0, 1]], 1),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4),
    ([[0, 1], [1, 0]], -1),  # zero pivot needs a row swap
    ([[0, 2, 1], [3, 0, 1], [1, 1, 0]], 5),
    ([[1, 2], [2, 4]], 0),
    ([[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)],
     Fraction(1, 266716800000)),  # Hilbert matrix of order 5
])
def test_bareiss_known_determinants(matrix, det):
    assert bareiss_det(matrix) == det


def test_hausdorff_oracle_on_known_laws():
    hausdorff = lambda b: verdict(hankel_determinants(b))
    assert hausdorff(beta_moments(Fraction(2), Fraction(3), 12)) is True
    assert hausdorff(half_ones_moments(6)) is False
    assert hausdorff([Fraction(1, 2) ** k for k in range(5)]) is None  # point mass


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_argv(name):
    w = WORKLOADS[name]
    argv = lambda seed: [c.argv for op in w.ops(seed, "out") for c in op]
    first = argv(7)
    assert first == argv(7)
    assert first != argv(8)


@pytest.mark.parametrize("name", ["verify_mc", "check_extendible"])
def test_inputs_that_can_fail_do_not_depend_on_the_seed(name):
    """The seed draws only the order and the subordinators, which pass by construction."""
    w = WORKLOADS[name]
    fixed = lambda seed: sorted(c.argv[2] for op in w.ops(seed, "out") for c in op
                                if "subordinator" not in c.argv[2] and '"geometric"' not in c.argv[2])
    assert fixed(7) == fixed(8)


def test_checked_round_counts_failed_operations():
    from run import Checked

    c = Checked(verdicts=[["ok"], ["failed"], ["ok", "wrong"], ["ok", "ok"]])
    assert (c.attempted, c.failed, c.wrong) == (4, 2, 1)


def test_window_figures_over_rounds():
    from run import CALIBRATION_REF_S, Window

    one = Window(latencies=[1.0, 3.0], calibrations=[CALIBRATION_REF_S], rounds=1)
    assert one.ops_per_s == pytest.approx(0.5)
    assert one.op_p50_s == pytest.approx(2.0)
    # three rounds of two ops; interference slows the last round fourfold
    w = Window(latencies=[1.0, 3.0, 1.0, 3.0, 4.0, 12.0], calibrations=[CALIBRATION_REF_S],
               rounds=3)
    assert w.op_times() == pytest.approx([2.0, 6.0])
    assert w.ops_per_s == pytest.approx(6 / 24)
    assert w.op_p50_s == pytest.approx(4.0)


def test_window_figures_scale_to_the_reference_speed():
    from run import CALIBRATION_REF_S, Window

    # the calibration loop ran at half speed: times halve, rates double
    w = Window(latencies=[1.0, 3.0], calibrations=[CALIBRATION_REF_S * f for f in (1.5, 2, 2.5)],
               rounds=1)
    assert w.slowdown == pytest.approx(2.0)
    assert (w.raw_ops_per_s, w.raw_op_p50_s) == pytest.approx((0.5, 2.0))
    assert (w.ops_per_s, w.op_p50_s) == pytest.approx((1.0, 1.0))


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy
import time:        50 |        900 |       scipy.stats._stats_py
import time:        10 |         10 |         scipy.special
import time:        20 |         30 |       scipy.stats._morestats
import time:         5 |        940 |     {stats}
import time:        40 |       1500 |   condiid.diagnostics
import time:         9 |       1600 | condiid.cli
"""


@pytest.mark.parametrize("stats, expected", [
    ("scipy.stats", 940e-6),  # `import scipy.stats`
    ("condiid.moments", 930e-6),  # lazy `from scipy import stats` leaves no scipy.stats line
])
def test_scipy_stats_share_of_import_report(stats, expected):
    from run import scipy_stats_seconds

    assert scipy_stats_seconds(IMPORTTIME.format(stats=stats)) == pytest.approx(expected)


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a)
            for _, targets, _ in LAYERS for m, a in targets}


def test_wrappers_leave_condiid_unpatched():
    import condiid.cli as cli
    from run import invoke

    before = _targets()
    rec = SpanRecorder()
    with patched(rec):
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
        code, out, _ = invoke(cli, ["check", "--model", '{"family":"binary","b":[1.0,0.5,0.3]}'],
                              rec)
    assert code == 0 and out.startswith("extendible")
    assert {s.name for s in rec.spans} >= {"cli.main", "cli.build_model",
                                           "moments.hausdorff_extendible"}
    assert _targets() == before
    with pytest.raises(RuntimeError):
        with patched(SpanRecorder()):
            raise RuntimeError("boom")
    assert all(f is before[k] for k, f in _targets().items())
