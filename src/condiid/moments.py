"""Finite-difference sequence algebra and the truncated moment problem.

A finite sequence (b_0, ..., b_d) with b_0 = 1 is d-monotone when all iterated
backward differences nabla^{d-k} b_k are non-negative.  Such sequences are in
one-to-one correspondence with exchangeable laws on {0,1}^d, and the ones that
extend to moment sequences of a law on [0,1] are exactly those whose Hankel
determinants are all non-negative.  This module implements the sequence tests,
the Hankel-determinant extendibility decision, a finite mixing law realizing
extendible moments (the Gauss rule of their three-term recursion), the
binary-pattern parameterization, and the corresponding samplers (mixture of
Bernoullis, urn scheme).

Every backward difference comes from one difference table: the top
differences nabla^{d-k} v_k of all k at once, from one ``np.cumsum`` of a
cached coefficient matrix.  The 2d Hankel matrices are windows of one vector;
their gather indices and window bounds are cached per degree, their
determinants come from one stacked ``np.linalg.det`` call per matrix size, and
their scales from one ``np.maximum.reduceat`` over the windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotDMonotoneError, SpecValidationError, UndecidedVerdictError,
                     UnsupportedLawError)
from .mixing import FiniteDiscrete, MixingLaw

__all__ = [
    "MonotoneSequence",
    "BinaryExchangeableLaw",
    "ExtendibilityVerdict",
    "is_d_monotone",
    "hausdorff_extendible",
    "discrete_witness",
    "b_from_p",
    "p_from_b",
    "moment_sequence",
    "sample_binary_mixture",
    "sample_polya_urn",
    "polya_pattern_probability",
]

MONOTONE_TOL = 1e-12
HANKEL_TOL = 1e-9
# rounding leaves |beta_k| at up to ~2e-9 of its terms on the boundary of four
# rational atoms; the Beta laws' stay above 1e-4 while double precision resolves them
WITNESS_TOL = 1e-7


@dataclass(frozen=True)
class MonotoneSequence:
    """Finite real sequence b_0..b_d with b_0 = 1 and non-negative entries."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 1:
            raise SpecValidationError("sequence must contain at least b_0")
        if abs(values[0] - 1.0) > 0.0:
            raise SpecValidationError(f"b_0 must equal 1 exactly, got {values[0]!r}")
        if any(v < 0.0 for v in values):
            raise SpecValidationError("sequence entries must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return len(self.values) - 1


def _values(seq) -> tuple:
    if isinstance(seq, MonotoneSequence):
        return seq.values
    return MonotoneSequence(tuple(seq)).values


@functools.lru_cache(maxsize=64)
def _difference_matrix(d: int) -> np.ndarray:
    """C_d, whose row k is k zeros, then (-1)^i C(d-k, i) for i = 0..d-k.

    ``float(c)`` rounds each coefficient as Python's int * float does, also
    above 2^53 (d > 56).
    """
    coef = np.zeros((d + 1, d + 1))
    for k in range(d + 1):
        coef[k, k:] = [float((-1) ** i * math.comb(d - k, i)) for i in range(d - k + 1)]
    coef.flags.writeable = False  # shared by every call of this degree
    return coef


def _top_differences(values) -> np.ndarray:
    """The difference table nabla^{d-k} v_k for k = 0..d of floats v_0..v_d.

    Row k of ``np.cumsum`` adds the terms (-1)^i C(d-k, i) v_{k+i} left to
    right after k zeros, so each entry has the bits of the left-to-right sum
    of its terms; adding 0.0 turns an exact -0.0 into 0.0, as that sum,
    started from 0, gives.
    """
    v = np.asarray(values, dtype=float)
    return np.cumsum(_difference_matrix(v.size - 1) * v, axis=1)[:, -1] + 0.0


def is_d_monotone(seq) -> bool:
    """True iff nabla^{d-k} b_k >= -MONOTONE_TOL for k = 0, ..., d."""
    return bool((_top_differences(_values(seq)) >= -MONOTONE_TOL).all())


@dataclass(frozen=True)
class ExtendibilityVerdict:
    """Outcome of the truncated moment-problem decision.

    The verdict is carried by ``extendible``; the Hankel determinants it was
    decided on are reported with it.  ``hankel_values`` lists the 2d
    determinants in the order hat_1, check_1, ..., hat_d, check_d, where, with
    nabla b_i = b_i - b_{i+1}:

    * hat_{2l} = det (b_{i+j})_{i,j<=l} and hat_{2l+1} = det (b_{1+i+j})_{i,j<=l};
    * check_{2l} = det (nabla b_{1+i+j})_{i,j<l} and
      check_{2l+1} = det (nabla b_{i+j})_{i,j<=l}.

    ``min_hankel`` is the least of them (0.0 for d = 0, which has none).  A
    law realizing the moments is :func:`discrete_witness`'s job, not part of
    the verdict.  A model given by a construction that is conditionally iid
    at every d, a mixing law ``"m"`` or a ``"subordinator"``, is extendible
    by it: ``by_construction`` names it, no determinant is computed, and the
    JSON reports the construction in their place.
    """

    extendible: bool
    hankel_values: tuple = ()
    min_hankel: float = 0.0
    by_construction: str = ""

    def to_json(self) -> dict:
        if self.by_construction:
            return {"extendible": self.extendible, "by_construction": self.by_construction}
        return {
            "extendible": self.extendible,
            "hankel_values": list(self.hankel_values),
            "min_hankel": self.min_hankel,
        }


@functools.lru_cache(maxsize=64)
def _hankel_layout(d: int) -> tuple:
    """Where the 2d Hankel matrices of degree d sit, cached per degree.

    Each matrix is an m x m window src[start + i + j] of
    src = (b_0..b_d, nabla b_0..nabla b_{d-1}), starting at one of the four
    offsets (0, 1, d+1, d+2); slot 2n - 2 holds hat_n and slot 2n - 1 check_n.
    Returns ``(groups, bounds)``.  ``groups`` has one ``(slots, index)`` pair
    per matrix size m: the slots of that size and their (k, m, m) gather
    index into src.  ``bounds`` interleaves each slot's window of src,
    start and start + 2m - 1, in slot order: the matrix's largest |entry| is
    the max of |src| over its window, so ``np.maximum.reduceat`` at these
    bounds gives every scale at its even positions, provided src has one
    more entry after its last window.
    """
    offsets = np.array((0, 1, d + 1, d + 2))
    slot = np.arange(2 * d)
    n, chk = slot // 2 + 1, slot % 2 == 1
    start = offsets[np.where(chk, 3 - n % 2, n % 2)]
    size = np.where(chk, (n + 1) // 2, n // 2 + 1)
    ar = np.arange(d // 2 + 1)
    groups = []
    for m in range(1, size.max(initial=0) + 1):
        slots = np.flatnonzero(size == m)
        index = start[slots, None, None] + ar[:m, None] + ar[:m]
        slots.flags.writeable = index.flags.writeable = False  # shared by every call of this degree
        groups.append((slots, index))
    bounds = np.stack([start, start + 2 * size - 1], axis=1).ravel()
    bounds.flags.writeable = False
    return tuple(groups), bounds


def hausdorff_extendible(seq) -> ExtendibilityVerdict:
    """Decide whether (b_0..b_d) extends to a moment sequence of a law on [0,1].

    Requires the input to be d-monotone.  The verdict is positive iff every
    Hankel determinant is >= -HANKEL_TOL relative to the matrix scale, its
    largest absolute entry; exact zeros (boundary cases such as point-mass
    moment sequences) count as extendible, and a NaN determinant does not
    count against it.  The determinants of each matrix size come from one
    stacked ``np.linalg.det`` call.
    """
    values = _values(seq)
    if not is_d_monotone(values):
        raise NotDMonotoneError(f"sequence {values} is not d-monotone")
    return _hankel_verdict(values)


def _hankel_verdict(values: tuple, refuse_band: str = "") -> ExtendibilityVerdict:
    """:func:`hausdorff_extendible` of ``values`` known to be d-monotone.  Given
    ``refuse_band``, the name of the sequence, an "extendible" that rests on a
    negative determinant within the tolerance raises :class:`UndecidedVerdictError`:
    a moment sequence's can fall far below HANKEL_TOL from size 4 on."""
    d = len(values) - 1
    arr = np.asarray(values, dtype=float)
    # a trailing 0 keeps the last window bound a valid index for reduceat
    src = np.concatenate([arr, arr[:-1] - arr[1:], [0.0]])
    groups, bounds = _hankel_layout(d)
    dets = np.empty(2 * d)
    for slots, index in groups:
        dets[slots] = np.linalg.det(src[index])
    scales = np.maximum.reduceat(np.abs(src), bounds)[::2]
    det_values = tuple(dets.tolist())
    tol = HANKEL_TOL * np.maximum(scales, 1e-300)
    extendible = not np.any(dets < -tol)
    if refuse_band and extendible and np.any(dets < 0):
        i = int(np.argmax(dets < 0))
        raise UndecidedVerdictError(
            f"the Hankel determinant {('hat', 'check')[i % 2]}_{i // 2 + 1} of {refuse_band} "
            f"{values} is {det_values[i]!r}, above -{HANKEL_TOL} times its matrix scale: "
            "double precision does not decide its sign")
    return ExtendibilityVerdict(
        extendible=extendible,
        hankel_values=det_values,
        min_hankel=min(det_values, default=0.0),
    )


def discrete_witness(seq) -> FiniteDiscrete:
    """A finite law on [0,1] whose moments are (b_0..b_d): a Gauss rule.

    The Chebyshev algorithm (Gautschi) turns the moments into the recursion
    coefficients p_{k+1}(x) = (x - alpha_k) p_k(x) - beta_k p_{k-1}(x) of the
    monic orthogonal polynomials, in O(d^2), by way of the mixed moments
    sigma_{k,l} = E[p_k(M) M^l].  A beta_k = sigma_{k,k} / sigma_{k-1,k-1}
    within WITNESS_TOL of zero, relative to the terms it is computed from,
    ends the recursion: the sequence is on the boundary of the moment space,
    where its law is unique, the k-point Gauss rule.  Otherwise d = 2n - 1
    gives the n-point Gauss rule and d = 2n the (n+1)-point Gauss-Radau rule
    with a node at 0, the lower principal representation.  Nodes and weights
    are the eigenvalues and squared first eigenvector entries of the Jacobi
    matrix (Golub & Welsch 1969), so the weights are non-negative.

    Raises SpecValidationError when there is no such rule: a beta_k below
    -WITNESS_TOL of its terms (an extendible sequence has none), an atom
    below -1e-12 or above 1 + 1e-9 (atoms within those margins are clipped),
    or a realized moment off by 1e-8 or more.  That is the case for
    non-extendible input and, in double precision, for moment sequences of
    high degree (Beta(2, 3) from d = 26).
    """
    values = _values(seq)
    moms = np.asarray(values)
    d = moms.size - 1
    alpha = list(moms[1:2])  # alpha_0 = b_1 / b_0
    beta = [1.0]  # beta_0 = b_0
    sig_prev, sig = np.zeros(d + 1), moms  # sigma_{k-1, l}, sigma_{k, l}; l <= d - k
    for k in range(1, d // 2 + 1):
        terms = (sig[k + 1 : d - k + 2], alpha[-1] * sig[k : d - k + 1],
                 beta[-1] * sig_prev[k : d - k + 1])
        new = np.zeros(d + 1)
        new[k : d - k + 1] = terms[0] - terms[1] - terms[2]
        scale = WITNESS_TOL * sum(abs(t[0]) for t in terms)
        if new[k] < -scale:
            raise SpecValidationError(
                f"moments {values} have no Gauss-rule witness: beta_{k} = "
                f"{new[k] / sig[k - 1]:.3g} is negative (not extendible, or lost to rounding)"
            )
        if new[k] <= scale:  # on the boundary
            break
        beta.append(new[k] / sig[k - 1])
        if 2 * k < d:
            alpha.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        sig_prev, sig = sig, new
    if d % 2 == 0 and len(beta) == d // 2 + 1:  # no boundary reached
        # Radau node at 0: alpha_n = -beta_n p_{n-1}(0) / p_n(0)
        p_prev, p = 0.0, 1.0
        for a, b in zip(alpha, beta):
            p_prev, p = p, -a * p - b * p_prev
        alpha.append(-beta[-1] * p_prev / p)
    jacobi = np.diag(alpha) + np.diag(np.sqrt(beta[1 : len(alpha)]), 1)
    nodes, vecs = np.linalg.eigh(jacobi, UPLO="U")
    atoms = np.where(np.abs(nodes) < 1e-12, 0.0, nodes)
    if atoms.min() < 0.0 or atoms.max() > 1.0 + 1e-9:
        raise SpecValidationError(
            f"moments {values} have no Gauss-rule witness on [0,1]: "
            f"atoms span [{atoms.min():.6g}, {atoms.max():.6g}]"
        )
    atoms = np.clip(atoms, 0.0, 1.0)
    weights = vecs[0] ** 2 / np.sum(vecs[0] ** 2)
    err = np.abs(atoms[None, :] ** np.arange(d + 1)[:, None] @ weights - moms).max()
    if not err < 1e-8:
        raise SpecValidationError(
            f"the Gauss-rule witness of moments {values} misses them by {err:.3g} (>= 1e-8)"
        )
    return FiniteDiscrete(atoms, weights)


@dataclass(frozen=True)
class BinaryExchangeableLaw:
    """Exchangeable law on {0,1}^d given by pattern probabilities p_0..p_d.

    p_k is the probability of one fixed pattern with exactly k ones, so the
    normalization is sum_k C(d,k) p_k = 1.
    """

    p: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if len(p) < 2:
            raise SpecValidationError("need pattern probabilities p_0..p_d with d >= 1")
        if any(v < 0.0 for v in p):
            raise SpecValidationError("pattern probabilities must be non-negative")
        d = len(p) - 1
        total = sum(math.comb(d, k) * p[k] for k in range(d + 1))
        if abs(total - 1.0) > 1e-12:
            raise SpecValidationError(f"sum_k C(d,k) p_k = {total!r}, must be 1 within 1e-12")
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return len(self.p) - 1


def b_from_p(law: BinaryExchangeableLaw) -> MonotoneSequence:
    """b_k = sum_{i=0}^{d-k} C(d-k, i) p_{d-i}; inverse of :func:`p_from_b`."""
    p = law.p
    d = law.d
    values = tuple(
        sum(math.comb(d - k, i) * p[d - i] for i in range(d - k + 1)) for k in range(d + 1)
    )
    # b_0 accumulates the full normalization; snap the 1 exactly
    return MonotoneSequence((1.0,) + values[1:])


def p_from_b(seq) -> BinaryExchangeableLaw:
    """p_k = nabla^{d-k} b_k; requires a d-monotone input."""
    values = _values(seq)
    if not is_d_monotone(values):
        raise NotDMonotoneError(f"sequence {values} is not d-monotone")
    return _law_from_b(values)


def _law_from_b(values: tuple) -> BinaryExchangeableLaw:
    """:func:`p_from_b` of ``values`` known to be d-monotone; entries that
    rounding leaves below 0 are set to 0."""
    d = len(values) - 1
    p = [max(0.0, v) for v in _top_differences(values).tolist()]
    total = sum(math.comb(d, k) * p[k] for k in range(d + 1))
    return BinaryExchangeableLaw(tuple(v / total for v in p))


def moment_sequence(law: MixingLaw, d: int) -> MonotoneSequence:
    """(1, E[M], ..., E[M^d]) for a mixing law supported in [0, 1]; b_0 is 1 exactly."""
    if d < 0:
        raise SpecValidationError("d must be non-negative")
    if not law.unit_interval:
        raise UnsupportedLawError(f"{law!r} is not supported in [0,1]")
    return MonotoneSequence((1.0,) + tuple(law.moment(k) for k in range(1, d + 1)))


def sample_binary_mixture(law: MixingLaw, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw M once per row, then d independent Bernoulli(M) indicators."""
    if d < 1:
        raise SpecValidationError("dimension must be at least 1")
    if not law.unit_interval:
        raise UnsupportedLawError(f"{law!r} is not supported in [0,1]")
    m = law.sample(n, rng)
    u = rng.random((n, d))
    data = (u <= m[:, None]).astype(float)
    return data


def sample_polya_urn(r: int, b: int, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Polya's urn: draws with replacement plus one extra ball of the drawn colour.

    Equal in law to :func:`sample_binary_mixture` with a Beta(r, b) mixing
    variable (de Finetti's representation of the urn).
    """
    if r < 1 or b < 1:
        raise SpecValidationError("urn needs at least one ball of each colour")
    data = np.empty((n, d))
    red = np.full(n, float(r))
    for j in range(d):
        prob = red / (r + b + j)
        draw = (rng.random(n) < prob).astype(float)
        data[:, j] = draw
        red += draw
    return data


def polya_pattern_probability(r: int, b: int, d: int, k: int) -> float:
    """P(X = x) for any urn pattern x with k ones in d draws: E[M^k (1-M)^(d-k)], M ~ Beta(r, b)."""
    num = 1.0
    for i in range(k):
        num *= r + i
    for i in range(d - k):
        num *= b + i
    den = 1.0
    for i in range(d):
        den *= r + b + i
    return num / den
