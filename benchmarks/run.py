#!/usr/bin/env python3
"""Benchmark of the condiid command line, end to end and per module.

    python3 benchmarks/run.py --workload sample_csv|verify_mc|check_extendible|all
                              --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` beside this directory, and the command fails if it is missing.  One
process runs one workload: a closed loop with a single client that calls
``condiid.cli.main(argv)`` for each command of the workload's round as soon
as the previous one returns.  A first, untimed round checks every output
(see bench_workloads) and warms the process up; ``attempted`` and ``failed``
count its operations.  Then whole rounds repeat while that brings the
measured command time closer to ``--seconds``, and each repeated command
must reproduce the output of the checked round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop untraced and then traced, half of ``--seconds`` each, with spans
around each module's public functions, and prints the per-layer metrics.
``--workload all`` runs every workload both ways, one child process each.
The last line of output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import os

# At most two threads per workload: BLAS stays single-threaded, and only
# `verify --threads 2` adds a second worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_trace import ROOT_SPAN, SpanRecorder, layer_totals, patched
from bench_workloads import OK, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# Median time of `calibration_loop` on the reference machine (a shared 2-core
# VM, Python 3.11), and the command time between two of its runs in a loop.
CALIBRATION_REF_S = 0.003
CALIBRATION_EVERY_S = 0.1
_CALIBRATION_ARRAY = np.random.default_rng(0).standard_normal((200, 50))

# Per-layer metric -> (span name, total, unit). Values are per round of the
# workload; self time excludes the time of nested spans.
PER_LAYER = {
    "sample.write_csv_s": ("sample.write_csv", "self_s", "s"),
    "sample.write_csv_bytes": ("sample.write_csv", "bytes", "bytes"),
    "sample.read_csv_s": ("sample.read_csv", "self_s", "s"),
    "cli.build_model_s": ("cli.build_model", "self_s", "s"),
    "cli.main_self_s": (ROOT_SPAN, "self_s", "s"),
    "cli.main_calls": (ROOT_SPAN, "calls", "count"),
    "moments.hausdorff_extendible_s": ("moments.hausdorff_extendible", "self_s", "s"),
    "moments.hausdorff_extendible_calls": ("moments.hausdorff_extendible", "calls", "count"),
    "lack_of_memory.is_ciid_extendible_s": ("lack_of_memory.is_ciid_extendible", "self_s", "s"),
    "lack_of_memory.is_ciid_extendible_calls":
        ("lack_of_memory.is_ciid_extendible", "calls", "count"),
    "extreme_value.sample_minstable_s": ("extreme_value.sample_minstable", "self_s", "s"),
    "extreme_value.sample_minstable_rows": ("extreme_value.sample_minstable", "rows", "rows"),
    "extreme_value.sample_logistic_direct_s":
        ("extreme_value.sample_logistic_direct", "self_s", "s"),
    "lack_of_memory.sample_mo_shocks_s": ("lack_of_memory.sample_mo_shocks", "self_s", "s"),
    "lack_of_memory.sample_mo_shocks_rows": ("lack_of_memory.sample_mo_shocks", "rows", "rows"),
    "lack_of_memory.sample_mo_ciid_s": ("lack_of_memory.sample_mo_ciid", "self_s", "s"),
    "lack_of_memory.sample_geo_shocks_s": ("lack_of_memory.sample_geo_shocks", "self_s", "s"),
    "mixtures.sample_s": ("mixtures.sample", "self_s", "s"),
    "mixtures.sample_rows": ("mixtures.sample", "rows", "rows"),
    "mixing.sample_positive_stable_s": ("mixing.sample_positive_stable", "self_s", "s"),
    "shock_models.sample_s": ("shock_models.sample", "self_s", "s"),
    "diagnostics.mc_verify_self_s": ("diagnostics.mc_verify", "self_s", "s"),
    "diagnostics.default_quantile_grid_s": ("diagnostics.default_quantile_grid", "self_s", "s"),
    "diagnostics.conditional_inversion_sampler_s":
        ("diagnostics.conditional_inversion_sampler", "self_s", "s"),
    "diagnostics.empirical_kendall_tau_s": ("diagnostics.empirical_kendall_tau", "self_s", "s"),
}


@dataclass
class Checked:
    """The untimed first round: each operation's verdicts and each command's fingerprint."""

    verdicts: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(any(v != OK for v in op) for op in self.verdicts)

    @property
    def wrong(self) -> int:
        return sum(WRONG in op for op in self.verdicts)


def calibration_loop() -> None:
    """Fixed work of the kinds the commands do: an interpreted loop, float
    formatting, and a numpy comparison and reduction."""
    total = 0
    for i in range(20_000):
        total += i * i
    ",".join([repr(i / 7) for i in range(1500)])
    x = _CALIBRATION_ARRAY
    (x[:, None, :] > x[None, :10, :]).all(axis=2).sum()


def timed_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


@dataclass
class Window:
    """What one measured loop did; ``latencies`` holds whole rounds, in order.

    Throughput is every operation of the loop over their summed time.  Each
    operation of the round is timed by the mean of its latencies over the
    run's rounds, and ``op_p50_s`` is the median of those times, so that it
    does not jump between operations of different cost from run to run.

    Other tenants of a shared machine change its speed by tens of percent
    over seconds to minutes.  The loop therefore times ``calibration_loop``
    between operations, and the figures without ``raw_`` are scaled to the
    reference speed: times are divided, rates multiplied, by ``slowdown``,
    the mean calibration time over ``CALIBRATION_REF_S``.  Means, not
    medians, because a mean follows the time-weighted speed of the machine,
    as the summed time of the operations does.
    """

    latencies: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    rows: int = 0
    busy: float = 0.0
    rounds: int = 0
    mismatched: int = 0  # commands whose output differs from the checked round's

    def op_times(self) -> list[float]:
        k = len(self.latencies) // self.rounds
        return [statistics.fmean(self.latencies[i::k]) for i in range(k)]

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.calibrations) / CALIBRATION_REF_S

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_op_p50_s(self) -> float:
        return statistics.median(self.op_times())

    @property
    def ops_per_s(self) -> float:
        return self.raw_ops_per_s * self.slowdown

    @property
    def op_p50_s(self) -> float:
        return self.raw_op_p50_s / self.slowdown


def invoke(cli, argv, recorder=None):
    """Run one command in-process; returns (exit code or None on a crash, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            with recorder.span(ROOT_SPAN) if recorder else contextlib.nullcontext():
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is judged as a wrong output, the loop goes on
            code = None
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def check_round(cli, workload, ops) -> Checked:
    """Run every operation once, untimed, and judge each command's output."""
    c = Checked()
    for op in ops:
        verdicts = []
        for cmd in op:
            code, out, _ = invoke(cli, cmd.argv)
            verdicts.append(workload.judge(cmd, code, out))
            c.fingerprints.append(workload.fingerprint(cmd, code, out))
        c.verdicts.append(verdicts)
    return c


def run_window(cli, workload, ops, checked: Checked, seconds: float, recorder=None) -> Window:
    """Repeat whole rounds of ``ops`` while that brings the command time closer
    to ``seconds``; at least one round."""
    w = Window(calibrations=[timed_calibration()])
    since_calibration = 0.0
    while True:
        start_busy = w.busy
        fingerprints = iter(checked.fingerprints)
        for op in ops:
            latency = 0.0
            for cmd in op:
                code, out, elapsed = invoke(cli, cmd.argv, recorder)
                latency += elapsed
                w.rows += cmd.rows
                w.mismatched += workload.fingerprint(cmd, code, out) != next(fingerprints)
            w.busy += latency
            w.latencies.append(latency)
            since_calibration += latency
            if since_calibration >= CALIBRATION_EVERY_S:
                w.calibrations.append(timed_calibration())
                since_calibration = 0.0
        w.rounds += 1
        if w.busy + (w.busy - start_busy) / 2 >= seconds:
            return w


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs in a fresh interpreter: times `import condiid.cli`, then the
# calibration loop, in the same process and so at the same machine speed.
_SETUP_CHILD = f"""\
import statistics, sys, time
start = time.perf_counter()
import condiid.cli
seconds = time.perf_counter() - start
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from run import timed_calibration
timed_calibration()  # first call: warms numpy up
print(seconds, statistics.fmean(timed_calibration() for _ in range(20)))
"""


def cold_import_seconds() -> tuple[float, float]:
    """Medians over fresh interpreters of the time of ``import condiid.cli``:
    scaled to the reference speed by the calibration that follows it in the
    same interpreter, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=_child_env(), cwd=ROOT,
                              check=True, timeout=120, capture_output=True, text=True)
        seconds, calibration = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * CALIBRATION_REF_S / calibration)
    return statistics.median(scaled), statistics.median(raw)


def scipy_stats_seconds(report: str) -> float:
    """Import time spent under ``scipy.stats`` in an ``-X importtime`` report.

    The report lists each module after the modules it imported, indented by
    depth.  The result sums the cumulative times of the ``scipy.stats``
    modules whose importer is not itself one: ``from scipy import stats``
    goes through scipy's lazy loader and leaves no line for ``scipy.stats``.
    """
    total = 0
    pending = []  # (depth, cumulative us, is a scipy.stats module) of parentless lines
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip())) // 2
        is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        while pending and pending[-1][0] > depth:
            _, cum, child_is_stats = pending.pop()
            if child_is_stats and not is_stats:
                total += cum
        pending.append((depth, int(parts[1]), is_stats))
    total += sum(cum for _, cum, stats in pending if stats)
    return total / 1e6


def scipy_stats_import_seconds() -> float:
    """Median ``scipy.stats`` share of ``import condiid.cli`` under ``-X importtime``."""
    times = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import condiid.cli"],
                              env=_child_env(), cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        times.append(scipy_stats_seconds(proc.stderr))
    return statistics.median(times)


def end_to_end(w: Window, checked: Checked, setup: tuple | None) -> tuple[dict, dict]:
    """(gated, extra): the metrics BENCHMARK.json bounds, which every workload
    reports, and those that are zero or undefined on some workload."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gated = {
        "ops_per_s": (w.ops_per_s, "1/s"),
        "op_p50_ms": (w.op_p50_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if setup is not None:
        gated = {"setup_s": (setup[0], "s"), **gated}
    extra = {"error_rate": (checked.failed / checked.attempted, "ratio")}
    if w.rows:
        extra["rows_per_s"] = (w.rows / w.busy * w.slowdown, "1/s")
    if len(w.latencies) >= 100:  # over all operations; at least ten samples beyond it
        p90 = statistics.quantiles(w.latencies, n=10)[8]
        extra["op_p90_ms"] = (p90 / w.slowdown * 1e3, "ms")
    extra["raw_ops_per_s"] = (w.raw_ops_per_s, "1/s")
    extra["raw_op_p50_ms"] = (w.raw_op_p50_s * 1e3, "ms")
    extra["slowdown"] = (w.slowdown, "ratio")
    if setup is not None:
        extra["raw_setup_s"] = (setup[1], "s")
    return gated, extra


def per_layer(recorder: SpanRecorder, traced: Window, untraced: Window, scipy_s: float) -> dict:
    totals = layer_totals(recorder.spans)
    empty = {"self_s": 0.0, "calls": 0, "rows": 0, "bytes": 0}
    out = {}
    for metric, (span, key, unit) in PER_LAYER.items():
        out[metric] = (totals.get(span, empty)[key] / traced.rounds, unit)
    out["setup.scipy_stats_import_s"] = (scipy_s, "s")
    out["trace.overhead_ops_per_s"] = (traced.ops_per_s - untraced.ops_per_s, "1/s")
    return out


def _print_metrics(workload: str, label: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {label} {name} = {value:.6g} {unit}")


def _summary(w: Window, label: str, workload: str) -> None:
    print(f"{workload} {label}: {len(w.latencies)} ops in {w.rounds} rounds, "
          f"{w.busy:.2f} s busy, {w.mismatched} outputs differ from the checked round")


def _result(checked: Checked, windows, metrics: dict) -> dict:
    return {
        "correct": checked.wrong == 0 and all(w.mismatched == 0 for w in windows),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import condiid.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "condiid":
        raise RuntimeError(f"condiid was imported from {cli.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if trace:
            setup, scipy_s = None, scipy_stats_import_seconds()
        else:
            setup = cold_import_seconds()
        ops = workload.ops(seed, str(workdir))
        workload.prepare(ops)
        checked = check_round(cli, workload, ops)
        print(f"{name} checked: {checked.attempted} ops, {checked.failed} failed "
              f"({checked.wrong} wrong)")
        if trace:
            seconds /= 2
        base = run_window(cli, workload, ops, checked, seconds)
        _summary(base, "untraced", name)
        gated, extra = end_to_end(base, checked, setup)
        _print_metrics(name, "end_to_end", {**gated, **extra})
        if not trace:
            return _result(checked, [base], gated)
        recorder = SpanRecorder()
        with patched(recorder):
            traced = run_window(cli, workload, ops, checked, seconds, recorder)
        _summary(traced, "traced", name)
        layers = per_layer(recorder, traced, base, scipy_s)
        _print_metrics(name, "per_layer", layers)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{name}-seed{seed}.json", "w") as f:
            json.dump(recorder.to_json(), f)
        return _result(checked, [base, traced], layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in its own child process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{name} --trace {trace} exited with {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


class Terminated(BaseException):
    """Raised on SIGTERM; not an exception a command's failure can swallow."""


def _terminate(signum, frame):
    # Unwind as on an error: temporary files are removed, and a running child
    # process is killed and waited for by subprocess.run.
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "condiid" / "cli.py").is_file():
        print(f"error: no condiid sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
