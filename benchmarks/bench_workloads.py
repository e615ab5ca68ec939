"""The three benchmark workloads: argv generation and output checks.

Each workload turns a workload seed into one round of operations.  An
operation is one CLI command, or for ``sample_csv`` a ``sample`` followed by
the ``diagnose`` of the file it wrote; each command carries its argv and what
it must produce.  Model parameters and per-command seeds come from the
workload seed only, so the same seed gives the same round, which a run
repeats.  Every command is deterministic given its argv: ``fingerprint``
reduces its output to a value that each repetition must reproduce.

``judge`` classifies every finished command:

* ``OK``: the output is what the check expects;
* ``FAILED``: a failure the workload measures on purpose (a wrong or refused
  extendibility verdict, a ``verify`` that exits 2).  It counts in ``failed``;
* ``WRONG``: anything else, such as a crash or a CSV that does not match its
  reference.  It counts in ``failed`` and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from bench_oracle import beta_moments, bernstein, half_ones_moments, hankel_determinants, verdict

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Command:
    argv: list[str]
    rows: int = 0  # rows the command draws
    expect: dict = field(default_factory=dict)


def _model_argv(verb: str, spec: dict, *extra: str) -> list[str]:
    return [verb, "--model", json.dumps(spec, sort_keys=True), *extra]


def _report(out: str) -> dict | None:
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def fingerprint(cmd: Command, code, out: str):
    """What a repetition of ``cmd`` must reproduce: its exit code and output."""
    return code, out


class SampleCsv:
    """``sample --out`` of 3000 x 5 rows per family, then ``diagnose`` of that file.

    Sampling is cheap here, CSV writing and reading are not, so this workload
    exercises CSV I/O beside the vectorized samplers.  At 3000 rows a round
    takes under a second, so a run holds tens of rounds.
    """

    name = "sample_csv"
    n = 3000
    d = 5

    def ops(self, seed: int, workdir: str) -> list[list[Command]]:
        rng = random.Random(f"{self.name}:{seed}")
        u = lambda lo, hi: round(rng.uniform(lo, hi), 4)
        d = self.d
        weights = [rng.uniform(0.2, 1.0) for _ in range(d + 1)]
        geo_p = [w / sum(weights) / math.comb(d, k) for k, w in enumerate(weights)]
        specs = [
            {"family": "exch_normal", "mu": u(-1, 1), "sigma": u(0.5, 2), "rho": u(0.1, 0.7)},
            {"family": "l1", "m": {"family": "gamma", "shape": u(0.5, 3)}},
            {"family": "linf", "m": {"family": "pareto", "alpha": u(1.5, 4)}},
            {"family": "minstable", "stdf": {"kind": "logistic", "theta": u(0.2, 0.9)},
             "rate": u(0.5, 2)},
            {"family": "dirichlet_prior", "c": u(0.5, 5)},
            {"family": "marshall_olkin", "rates": [u(0.01, 0.5) for _ in range(d)]},
            {"family": "geometric", "p": geo_p},
        ]
        out = []
        for spec in specs:
            spec["d"] = d
            path = os.path.join(workdir, f"{spec['family']}.csv")
            s = rng.randrange(2**31)
            sample = Command(
                _model_argv("sample", spec, "--n", str(self.n), "--seed", str(s), "--out", path),
                rows=self.n, expect={"spec": spec, "seed": s, "path": path},
            )
            out.append([sample, Command(["diagnose", path])])
        return out

    def prepare(self, ops: list[list[Command]]) -> None:
        """Draw each sample command's rows in memory, as the reference its CSV must match."""
        from condiid.cli import build_model

        for sample, _ in ops:
            e = sample.expect
            out = build_model(e["spec"]).sampler(self.n, np.random.default_rng(e["seed"]))
            e["reference"] = np.array(getattr(out, "data", out), dtype=float)

    def judge(self, cmd: Command, code, out: str) -> str:
        if code != 0:
            return WRONG
        if cmd.argv[0] == "diagnose":
            rep = _report(out)
            ok = (
                rep is not None
                and rep.get("n") == self.n
                and rep.get("d") == self.d
                and -1.0 <= rep.get("kendall_tau", math.nan) <= 1.0
                and 0.0 <= rep.get("tie_frequency", math.nan) <= 1.0
            )
            return OK if ok else WRONG
        return OK if csv_matches(cmd.expect["path"], cmd.expect["reference"]) else WRONG

    def fingerprint(self, cmd: Command, code, out: str):
        if cmd.argv[0] == "diagnose":
            return code, out
        with open(cmd.expect["path"], "rb") as f:
            return code, hashlib.sha256(f.read()).hexdigest()


def csv_matches(path: str, reference: np.ndarray) -> bool:
    """Header x1..xd, one row per reference row, no NaN, values equal to the reference."""
    n, d = reference.shape
    with open(path) as f:
        header = f.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    if header != ",".join(f"x{k + 1}" for k in range(d)) or len(rows) != n:
        return False
    if any(len(r) != d for r in rows):
        return False
    data = np.array(rows, dtype=float)
    return not np.isnan(data).any() and np.array_equal(data, reference)


class VerifyMc:
    """``verify`` on the default grid for the per-row and enumeration samplers.

    Each ``--n`` keeps every family under about a third of the round; one
    series command runs a second time with ``--threads 2``.  No CSV is written.

    ``verify`` tests ten grid points at three standard errors each, so each
    command of an unbiased sampler fails for about one seed in forty.  The models and
    their ``--seed`` values are therefore fixed, and the workload seed draws
    the order of the round: every run then fails the same commands, if any.
    """

    name = "verify_mc"

    def ops(self, seed: int, workdir: str) -> list[list[Command]]:
        def triplet(g):
            return {"family": "minstable", "d": 3, "stdf": {
                "kind": "triplet", "b": 0.2, "c": 1.0, "atoms": [{"g": g, "weight": 1.0}]}}

        # (spec, n): every command takes a fraction of a second, MO at d=15
        # (2^15 - 1 shock sets) the most, so a run holds several rounds.
        # Fréchet runs with term_tol 1e-8 (default 1e-12), which keeps it on
        # the per-row series path at about 3000 rows/s instead of 30.  MO at
        # d=15 puts most of its rate on the full set, so the grid's joint
        # survival probabilities stay near 3% or more.
        runs = [
            ({"family": "minstable", "d": 2, "term_tol": 1e-8,
              "stdf": {"kind": "lf", "g": {"kind": "frechet", "theta": 0.5}}}, 500),
            (triplet({"kind": "weibull", "theta": 0.5}), 300),
            (triplet({"kind": "mo_atom", "m": 0.5}), 1000),
            ({"family": "marshall_olkin", "d": 5, "subordinator": {
                "drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}}, 12_500),
            ({"family": "marshall_olkin", "d": 15,
              "rates": [float(f"{1e-3 / math.comb(14, j):.4g}") for j in range(14)] + [0.05]},
             300),
            ({"family": "sato", "d": 2, "alpha": 1.05}, 6000),
            ({"family": "l1", "d": 5, "m": {"family": "gamma", "shape": 2.0}}, 125_000),
        ]
        out = []
        for i, (spec, n) in enumerate(runs):
            out.append(Command(_model_argv("verify", spec, "--n", str(n), "--seed", str(i + 1)),
                               rows=n, expect={"n": n}))
        weibull_cmd = out[1]  # the series sampler again, on two threads
        out.append(Command(weibull_cmd.argv + ["--threads", "2"], rows=weibull_cmd.rows,
                           expect=weibull_cmd.expect))
        random.Random(f"{self.name}:{seed}").shuffle(out)
        return [[cmd] for cmd in out]

    def prepare(self, ops: list[list[Command]]) -> None:
        pass

    def judge(self, cmd: Command, code, out: str) -> str:
        rep = _report(out) if code in (0, 2) else None
        if rep is None or rep.get("n") != cmd.expect["n"] or len(rep.get("grid", ())) != 10:
            return WRONG
        if rep.get("passed") is not (code == 0):
            return WRONG
        return OK if code == 0 else FAILED

    fingerprint = staticmethod(fingerprint)


class CheckExtendible:
    """Many short ``check`` commands on moment sequences with exact verdicts.

    * Beta(a, b) moments for the six (a, b) pairs of ``BETA_PAIRS``, at
      d = 4, 8, ..., 40;
    * Beta(2,3) mixed with the law "exactly d/2 ones" at d in {8, 12, 16} with
      weights 1/10, 1/100, 1/10**4;
    * marshall_olkin and geometric sequences b_k = exp(-psi(k)) of two
      compound Poisson subordinators drawn from the seed, extendible by
      construction, at d = 4, 8, 12, 16.

    The CLI receives the doubles nearest to the rational sequences.  The
    expected verdict of the first two groups is the exact Bareiss verdict on
    the rational sequence.  Those groups are the same for every seed, so the
    wrong verdicts they draw are the same in every run; the seed draws the
    subordinators and the order of the round.
    """

    name = "check_extendible"
    BETA_PAIRS = [(Fraction(a), Fraction(b)) for a, b in
                  [("1/2", "1/2"), ("1", "1"), ("2", "3"), ("9/2", "3/2"), ("6/5", "19/5"),
                   ("33/10", "27/10")]]

    def ops(self, seed: int, workdir: str) -> list[list[Command]]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []

        def binary(exact, expected):
            spec = {"family": "binary", "b": [float(v) for v in exact]}
            out.append(Command(_model_argv("check", spec), expect={"extendible": expected}))

        for a, b in self.BETA_PAIRS:
            exact = beta_moments(a, b, 40)
            dets = hankel_determinants(exact)  # prefixes give every smaller d
            for d in range(4, 41, 4):
                binary(exact[: d + 1], verdict(dets[: 2 * d]))
        for d in (8, 12, 16):
            for w in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**4)):
                exact = [(1 - w) * x + w * y
                         for x, y in zip(beta_moments(Fraction(2), Fraction(3), d),
                                         half_ones_moments(d))]
                binary(exact, verdict(hankel_determinants(exact)))
        for _ in range(2):
            drift, kill = round(rng.uniform(0.05, 0.5), 4), round(rng.uniform(0.0, 0.2), 4)
            jumps = [(round(rng.uniform(0.2, 2.0), 4), round(rng.uniform(0.2, 1.5), 4))
                     for _ in range(2)]
            sub = {"drift": drift, "kill": kill,
                   "jumps": [{"size": s, "rate": r} for s, r in jumps]}
            for d in (4, 8, 12, 16):
                spec = {"family": "marshall_olkin", "d": d, "subordinator": sub}
                out.append(Command(_model_argv("check", spec), expect={"extendible": True}))
                b = [math.exp(-bernstein(drift, kill, jumps, k)) for k in range(d + 1)]
                spec = {"family": "geometric", "d": d, "b": b}
                out.append(Command(_model_argv("check", spec), expect={"extendible": True}))
        rng.shuffle(out)
        return [[cmd] for cmd in out]

    def prepare(self, ops: list[list[Command]]) -> None:
        pass

    def judge(self, cmd: Command, code, out: str) -> str:
        if code == 1:  # refused with a validation error, e.g. NotDMonotoneError
            return FAILED
        lines = out.splitlines()
        if code != 0 or not lines or lines[0] not in ("extendible", "not extendible"):
            return WRONG
        expected = cmd.expect["extendible"]
        if expected is None:  # boundary case: the determinants do not decide
            return WRONG
        return OK if (lines[0] == "extendible") == expected else FAILED

    fingerprint = staticmethod(fingerprint)


WORKLOADS = {w.name: w for w in (SampleCsv(), VerifyMc(), CheckExtendible())}
