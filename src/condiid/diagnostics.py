"""Empirical necessary-condition tests and the Monte Carlo oracle harness.

One-factor (conditionally iid) laws are positively dependent in several
checkable ways: non-negative pairwise correlation and Kendall's tau, and
order-statistic cdf sums majorized by the iid binomial bound.  This module
implements those tests on samples, a generic sequential-inversion sampler for
closed-form survival functions, and ``mc_verify``: the seeded harness that
compares every sampler in the package against its closed-form law on a grid.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneConditionalError, SpecValidationError
from .inverse import monotone_inverse_rows
from .sample import sample_blocks

__all__ = [
    "EmpiricalDf",
    "empirical_H",
    "empirical_kendall_tau",
    "kendall_tau_null_stderr",
    "binomial_orderstat_bound",
    "majorization_check",
    "radial_symmetry_test",
    "tie_frequency",
    "scarsini_sample",
    "scarsini_cdf",
    "conditional_inversion_sampler",
    "McReport",
    "mc_verify",
    "default_quantile_grid",
]


# -- empirical distribution of one exchangeable row ------------------------------

@dataclass(frozen=True)
class EmpiricalDf:
    """Right-continuous step distribution function of observed values."""

    points: np.ndarray
    steps: np.ndarray  # value of the df from points[i] onwards

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vals = np.concatenate([[0.0], self.steps])
        out = vals[np.searchsorted(self.points, t, side="right")]
        return out if out.ndim else float(out)

    def sup_distance(self, cdf) -> float:
        """sup_t |empirical(t) - cdf(t)| against a reference df callable."""
        ref = np.asarray(cdf(self.points), dtype=float)
        before = np.concatenate([[0.0], self.steps[:-1]])
        return float(np.max(np.maximum(np.abs(self.steps - ref), np.abs(before - ref))))


def empirical_H(row) -> EmpiricalDf:
    """Empirical df (1/d) sum_k 1_{X_k <= t} of one exchangeable row: for a
    conditionally iid row it tends, as d grows, to the df its latent factor picks."""
    row = np.asarray(row, dtype=float).ravel()
    if row.size < 1:
        raise SpecValidationError("need at least one observation")
    points, counts = np.unique(row, return_counts=True)
    return EmpiricalDf(points=points, steps=np.cumsum(counts) / row.size)


# -- Kendall's tau ----------------------------------------------------------------

def _tie_pairs(new_run: np.ndarray) -> int:
    """Pairs of entries in the same run of a sorted sequence, where
    ``new_run[i]`` says that entry i + 1 starts a new run."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], new_run, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def _dense_ranks(v: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Rank of each entry of ``v`` among its distinct values, the number of
    distinct values, and the number of pairs of equal entries."""
    order = np.argsort(v)
    s = v[order]
    new_run = s[1:] != s[:-1]
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[order] = np.cumsum(np.concatenate(([0], new_run)))
    return ranks, int(ranks[order[-1]]) + 1, _tie_pairs(new_run)


def _inversions(ranks: np.ndarray, k: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, k).

    Bottom-up merge count.  At width w every aligned block of w entries is
    sorted.  One sort of the whole array by (pair of blocks, rank, odd
    block?) merges each even block with the odd block after it; there an
    odd-block entry moves ahead of exactly the even-block entries above it,
    so the level's inversions are the sum of the odd-block entries'
    positions before the sort less their sum after it.
    """
    n = ranks.size
    pos = np.arange(n)
    level = ranks
    total = 0
    w = 1
    while w < n:
        base = pos // (2 * w) * k
        odd = (pos & w) != 0
        key = ((base + level) << 1) | odd
        key.sort()
        total += int(pos[odd].sum()) - int(np.dot(key & 1, pos))
        level = (key >> 1) - base
        w *= 2
    return total


def empirical_kendall_tau(pairs) -> float:
    """(concordant - discordant) / (n choose 2), ties counted as neither.

    Level-wise merge count on integer ranks: x and y are replaced by their
    dense ranks, one sort of ``rank_x * k_y + rank_y`` orders the pairs
    lexicographically, and :func:`_inversions` counts the strict inversions
    of the y ranks in that order in about log2(n) sorts.  Equal x keep y
    ascending, so pairs tied in x add no inversion.  The pairs tied in x, in
    y and in both are counted from run lengths of the same sorts.  Every
    count is an integer, so the result is the correctly rounded quotient.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise SpecValidationError("need an n x 2 array with n >= 2")
    n = pairs.shape[0]
    rank_x, _, tied_x = _dense_ranks(pairs[:, 0])
    rank_y, k_y, tied_y = _dense_ranks(pairs[:, 1])
    joint = np.sort(rank_x * k_y + rank_y)
    tied_xy = _tie_pairs(joint[1:] != joint[:-1])
    discordant = _inversions(joint % k_y, k_y)
    n0 = n * (n - 1) // 2
    return (n0 - tied_x - tied_y + tied_xy - 2 * discordant) / n0


def kendall_tau_null_stderr(n: int) -> float:
    """Standard error of the tau estimator under independence."""
    return math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))


# -- majorization of order-statistic cdf sums --------------------------------------

def binomial_orderstat_bound(n: int, d: int, p: float) -> float:
    """h_{n,d}(p) = sum_{k=1}^{n} sum_{i=k}^{d} C(d,i) p^i (1-p)^(d-i): the iid value
    of sum_{k<=n} P(X_[k] <= x) at marginal cdf p, a bound on every conditionally iid law."""
    if not 1 <= n <= d:
        raise SpecValidationError("need 1 <= n <= d")
    total = 0.0
    for k in range(1, n + 1):
        for i in range(k, d + 1):
            total += math.comb(d, i) * p**i * (1.0 - p) ** (d - i)
    return total


def majorization_check(samples, x: float, marginal_cdf_at_x: float) -> bool:
    """Check sum_{k<=n} F_hat_{X_[k]}(x) <= h_{n,d}(F_1(x)) for n = 1..d-1.

    The row statistic min(n, #{components <= x}) estimates the left side;
    the inequality must hold within three standard errors.
    """
    data = np.asarray(samples, dtype=float)
    nrows, d = data.shape
    if d < 2:
        raise SpecValidationError("need at least two columns")
    below = (data <= x).sum(axis=1)
    for n in range(1, d):
        stat = np.minimum(n, below)
        mean = float(stat.mean())
        stderr = float(stat.std(ddof=1)) / math.sqrt(nrows)
        bound = binomial_orderstat_bound(n, d, marginal_cdf_at_x)
        if mean > bound + 3.0 * stderr + 1e-12:
            return False
    return True


# -- radial symmetry ----------------------------------------------------------------

def radial_symmetry_test(samples, mu: float) -> bool:
    """Two-sample comparison of X - mu against mu - X.

    Per-coordinate Kolmogorov-Smirnov tests (Bonferroni-corrected at level
    0.01) plus a joint orthant comparison on a deterministic grid.
    """
    from scipy import stats  # imported here: it takes most of the package's import time

    data = np.asarray(samples, dtype=float)
    nrows, d = data.shape
    left = data - mu
    right = mu - data
    for k in range(d):
        p = stats.ks_2samp(left[:, k], right[:, k], method="asymp").pvalue
        if p < 0.01 / d:
            return False
    qs = np.quantile(left, [0.2, 0.4, 0.6, 0.8], axis=0)  # grid from pooled empirical margins
    p_left = _orthant_hits(left, qs, "cdf") / nrows
    p_right = _orthant_hits(right, qs, "cdf") / nrows
    for p1, p2 in zip(p_left.tolist(), p_right.tolist()):
        stderr = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / nrows)
        if abs(p1 - p2) > 3.0 * stderr + 1e-3:
            return False
    return True


def tie_frequency(samples) -> float:
    """Fraction of rows with at least one exactly tied coordinate pair; two
    +inf entries are a tie."""
    data = np.asarray(samples, dtype=float)
    if data.shape[1] < 2:
        raise SpecValidationError("need at least two columns")
    s = np.sort(data, axis=1)
    return float((s[:, 1:] == s[:, :-1]).any(axis=1).mean())


# -- a compact counterexample law ----------------------------------------------------

def scarsini_sample(n: int, rng) -> np.ndarray:
    """Scarsini's counterexample: given M uniform on [0, 1/2], each component
    is 1/2 - M or 1/2 + M with equal probability.  Conditionally iid with
    uniform margins, zero correlation and zero Kendall tau, yet not positively
    lower-orthant dependent."""
    m = rng.uniform(0.0, 0.5, size=n)
    signs = np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0)
    return 0.5 + signs * m[:, None]


def scarsini_cdf(x1: float, x2: float) -> float:
    """Joint cdf (1/2) min(x1,x2) + (1/2) max(0, x1 + x2 - 1) of Scarsini's counterexample."""
    for v in (x1, x2):
        if not 0.0 <= v <= 1.0:
            raise SpecValidationError("arguments must lie in [0,1]")
    return 0.5 * min(x1, x2) + 0.5 * max(0.0, x1 + x2 - 1.0)


# -- sequential inversion from a closed-form survival function ------------------------

def conditional_inversion_sampler(survival, d: int, n: int, rng) -> np.ndarray:
    """Sample a law on [0, inf)^d (d <= 3) given only its joint survival function.

    X_1 inverts the marginal survival.  X_k for k >= 2 inverts the
    conditional survival ratio given x_1..x_(k-1), built from the mixed
    central finite difference over the 2^(k-1) corners x_i -/+ h_i of the
    supplied function (h_i = 1e-5 (1 + x_i), one-sided at 0).  The
    conditional must be monotone; a violation beyond finite-difference noise
    raises NonMonotoneConditionalError.

    The differences see the law only through a band of width h around each
    conditioning value, so an atom of the law, such as the diagonal mass
    P(X_1 = X_2) of a Sato frailty, is spread over that band: the sample has
    no exact ties.  At d = 3 the mixed second difference carries round-off
    into the third coordinate: relative shifts of about 1e-10 in x_1 and x_2
    move x_3 by up to ~1.7e-4 relative (Sato frailty, alpha = 1.05).
    """
    if not 1 <= d <= 3:
        raise SpecValidationError("sequential inversion supports d in {1,2,3}")

    def sf(cols):
        pts = np.stack(cols, axis=-1)
        return np.maximum(np.asarray(survival(pts), dtype=float), 0.0)

    zeros = np.zeros(n)
    data = np.empty((n, d))
    for k in range(d):
        # (columns, sign) of each corner; the upper end x_i + h_i counts negative
        corners, spread = [([], 1.0)], 1.0
        for x in data.T[:k]:
            h = 1e-5 * (1.0 + x)
            lo = np.maximum(x - h, 0.0)  # one-sided step at the origin
            spread = spread * ((x + h) - lo)
            corners = [(c + [v], s * t) for c, s in corners for v, t in ((lo, 1.0), (x + h, -1.0))]
        rest = [zeros] * (d - k - 1)

        def mixed_diff(t):
            return sum(sign * sf(cols + [t] + rest) for cols, sign in corners) / spread

        cond = mixed_diff
        if k:
            base = np.maximum(mixed_diff(zeros), 1e-300)
            cond = lambda t: mixed_diff(t) / base
            _probe_monotone(cond, n)
        u = rng.random(n)
        data[:, k] = monotone_inverse_rows(lambda t: cond(t) <= u, n)

    return data


def _probe_monotone(cond, n: int):
    grid = np.geomspace(0.05, 8.0, 12)
    prev = None
    for g in grid:
        val = cond(np.full(n, g))
        if prev is not None and np.any(val > prev + 1e-4):
            raise NonMonotoneConditionalError(
                "conditional survival increased along the grid; "
                "the supplied survival function is not valid"
            )
        prev = val


# -- Monte Carlo verification harness ---------------------------------------------------

ABS_FLOOR = 1e-3  # added to every 3-sigma band of mc_verify


@dataclass(frozen=True)
class McReport:
    """Grid-wise comparison of empirical and closed-form survival values."""

    grid: tuple
    closed: tuple
    empirical: tuple
    stderr: tuple
    n: int
    seed: int
    abs_floor: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "grid": [list(g) for g in self.grid],
            "closed": list(self.closed),
            "empirical": list(self.empirical),
            "stderr": list(self.stderr),
            "n": self.n,
            "seed": self.seed,
            "abs_floor": self.abs_floor,
            "passed": self.passed,
        }

    def to_json_str(self) -> str:
        """The report as one JSON line; a NaN or infinity raises ValueError."""
        return json.dumps(self.to_json(), sort_keys=True, allow_nan=False)


# Bytes of sample columns in one block of the orthant count: the block stays
# in cache across the grid points.
_COUNT_BLOCK_BYTES = 1 << 20


def _orthant_hits(data: np.ndarray, grid: np.ndarray, mode: str) -> np.ndarray:
    """Number of rows of ``data`` in the orthant of each grid point.

    ``mode`` "survival" counts the rows strictly above the point in every
    coordinate (x > g), "cdf" the rows at or below it (x <= g).  The rows are
    counted in blocks of about 1 MiB of columns.  Columns that lie contiguous
    in memory, as in a column-major sample, are read where they lie; strided
    ones, as in a row-major sample, are copied a block at a time into one
    (d, B) buffer.  A point whose coordinates are all equal is counted from
    each row's minimum (survival) or maximum (cdf), taken once per block;
    any other point ANDs its column comparisons into one B-length buffer.  So
    neither a transposed copy of the sample nor an n x grid x d array is built.
    """
    n, d = data.shape
    if grid.shape[1] != d:
        raise SpecValidationError(
            f"grid points have {grid.shape[1]} coordinates but the sample has d={d}"
        )
    compare = np.greater if mode == "survival" else np.less_equal
    extreme = np.minimum if mode == "survival" else np.maximum
    diagonal = ((grid == grid[:, :1]).all(axis=1) & (d > 1)).tolist()
    rows = max(1, min(n, _COUNT_BLOCK_BYTES // (data.itemsize * d)))
    buf = np.empty((d, rows), dtype=data.dtype) if data.strides[0] != data.itemsize else None
    bound = np.empty(rows, dtype=data.dtype) if any(diagonal) else None
    inside = np.empty(rows, dtype=bool)
    scratch = np.empty_like(inside)
    hits = np.zeros(grid.shape[0], dtype=np.int64)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        cols, hit, tmp = data[start:start + m].T, inside[:m], scratch[:m]
        if buf is not None:  # strided columns: one contiguous copy of the block
            np.copyto(buf[:, :m], cols)
            cols = buf[:, :m]
        if bound is not None:
            extreme.reduce(cols, axis=0, out=bound[:m])
        for k, point in enumerate(grid):
            if diagonal[k]:
                compare(bound[:m], point[0], out=hit)
            else:
                compare(cols[0], point[0], out=hit)
                for col, g in zip(cols[1:], point[1:]):
                    hit &= compare(col, g, out=tmp)
            hits[k] += np.count_nonzero(hit)
    return hits


def mc_verify(
    sampler,
    survival,
    grid,
    n: int,
    seed: int,
    threads: int = 1,
    mode: str = "survival",
) -> McReport:
    """Compare empirical orthant frequencies against closed-form values.

    ``sampler(n, rng)`` must return an (n, d) array; ``survival``
    evaluates the closed form at the whole (k, d) grid in one call and returns
    its k values, and a result of another shape is refused.  ``mode`` selects strict
    survival probabilities P(X > g) (default) or cdf probabilities P(X <= g).
    ``threads`` counts independent random streams, drawn one after another:
    one draws from ``seed``, as ``condiid sample`` does, more from
    ``SeedSequence(seed).spawn(threads)``, so the report is deterministic for
    fixed arguments.  A point passes when |empirical - closed| <= 3*stderr +
    ABS_FLOOR, stderr = sqrt(closed (1 - closed) / n).

    Counting rule: a row hits a survival point when every coordinate is
    strictly greater (x > g), a cdf point when every coordinate is less or
    equal (x <= g); a tie at a grid value counts for cdf only, and +inf counts
    as above every point.

    Memory does not grow with n.  Each stream is drawn by
    :func:`condiid.sample.sample_blocks`: blocks of at most ``sample.BLOCK_BYTES``
    (2 MiB) of sample, one ``sampler(rows, rng)`` call each on the stream's
    own Generator, each checked and counted as soon as it is drawn.  A stream
    of at most ``BLOCK_BYTES`` is one call, so its counts are those of one
    draw of all its rows; a longer one counts other rows than one call would.
    Beyond one block and the sampler's work arrays for it, counting holds
    two boolean buffers of a count block's length, one row minimum or
    maximum per row of it when a point has all coordinates equal, and, for a
    sample whose columns are strided (a row-major one), a copy of about
    1 MiB of columns.  The package's samplers that fill their sample by
    column (the death chain's, exshock's and l1's) hand it over
    column-major, without that copy.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if n < 1:
        raise SpecValidationError(f"n must be >= 1, got {n}")
    if not 1 <= threads <= n:
        raise SpecValidationError(f"threads must be between 1 and n={n}, got {threads}")
    if grid.ndim != 2:
        raise SpecValidationError(f"grid must be a list of points, got shape {grid.shape}")
    if mode not in ("survival", "cdf"):
        raise SpecValidationError(f"unknown comparison mode {mode!r}")
    sizes = [n // threads] * threads
    sizes[-1] += n - sum(sizes)

    count = functools.partial(_orthant_hits, grid=grid, mode=mode)

    def run_stream(stream, size):
        blocks = sample_blocks(sampler, size, grid.shape[1], np.random.default_rng(stream))
        return sum(map(count, blocks))  # no block outlives its count: one is held at a time

    streams = [seed] if threads == 1 else np.random.SeedSequence(seed).spawn(threads)
    hits = sum(map(run_stream, streams, sizes))

    empirical = hits / n
    closed = np.asarray(survival(grid), dtype=float)
    if closed.shape != (grid.shape[0],):
        raise SpecValidationError(f"the closed form gave shape {closed.shape} for a grid of "
                                  f"{grid.shape[0]} points; expected ({grid.shape[0]},)")
    stderr = np.sqrt(np.maximum(closed * (1.0 - closed), 0.0) / n)
    passed = bool(np.all(np.abs(empirical - closed) <= 3.0 * stderr + ABS_FLOOR))
    return McReport(
        grid=tuple(tuple(g) for g in grid),
        closed=tuple(closed.tolist()),
        empirical=tuple(empirical.tolist()),
        stderr=tuple(stderr.tolist()),
        n=n,
        seed=seed,
        abs_floor=ABS_FLOOR,
        passed=passed,
    )


def default_quantile_grid(marginal_ppf, d: int) -> np.ndarray:
    """Ten d-variate grid points built from the marginal quantiles at 0.1,
    0.25, 0.5, 0.75 and 0.9: the five diagonal points plus five cyclic mixes."""
    qs = [float(marginal_ppf(q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)]
    m = len(qs)
    points = [[qs[i]] * d for i in range(m)]
    if d > 1:
        for i in range(m):
            points.append([qs[(i + j) % m] for j in range(d)])
    return np.asarray(points, dtype=float)
