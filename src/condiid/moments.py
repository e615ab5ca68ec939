"""Finite-difference sequence algebra and the truncated moment problem.

A finite sequence (b_0, ..., b_d) with b_0 = 1 is d-monotone when all iterated
backward differences nabla^{d-k} b_k are non-negative.  Such sequences are in
one-to-one correspondence with exchangeable laws on {0,1}^d, and the ones that
extend to moment sequences of a law on [0,1] are exactly those whose Hankel
determinants are all non-negative.  This module implements the sequence tests,
the Hankel-determinant extendibility decision (with an optional discrete
witness law), the binary-pattern parameterization, and the corresponding
samplers (mixture of Bernoullis, urn scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveEntryError, NotDMonotoneError, SpecValidationError, UnsupportedLawError
from .mixing import FiniteDiscrete, MixingLaw
from .sample import SampleMatrix

__all__ = [
    "MonotoneSequence",
    "BinaryExchangeableLaw",
    "ExtendibilityVerdict",
    "backward_difference",
    "is_d_monotone",
    "is_log_d_monotone",
    "hausdorff_extendible",
    "b_from_p",
    "p_from_b",
    "moment_sequence",
    "sample_binary_mixture",
    "sample_polya_urn",
    "polya_pattern_probability",
]

MONOTONE_TOL = 1e-12
HANKEL_TOL = 1e-9


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

    def to_json(self) -> list:
        return list(self.values)


def _values(seq) -> tuple:
    if isinstance(seq, MonotoneSequence):
        return seq.values
    return MonotoneSequence(tuple(seq)).values


def backward_difference(seq, j: int, k: int) -> float:
    """nabla^j b_k = sum_{i=0}^{j} (-1)^i C(j,i) b_{k+i}.

    nabla^0 is the identity; requires j + k <= d.
    """
    values = _values(seq)
    if j < 0 or k < 0:
        raise IndexError("j and k must be non-negative")
    if j + k > len(values) - 1:
        raise IndexError(f"j + k = {j + k} exceeds the sequence degree {len(values) - 1}")
    return float(_nabla(values, j, k))


def _nabla(values, j: int, k: int):
    """The alternating sum nabla^j values[k], unchecked; exact on ``Fraction``s."""
    return sum((-1) ** i * math.comb(j, i) * values[k + i] for i in range(j + 1))


def is_d_monotone(seq) -> bool:
    """True iff nabla^{d-k} b_k >= -MONOTONE_TOL for k = 0, ..., d."""
    values = _values(seq)
    d = len(values) - 1
    return all(_nabla(values, d - k, k) >= -MONOTONE_TOL for k in range(d + 1))


def is_log_d_monotone(seq) -> bool:
    """True iff nabla^{d-k} log(b_k) >= -MONOTONE_TOL for k = 0, ..., d-1.

    Entries must be strictly positive; the final entry log(b_d) itself is
    unconstrained.
    """
    values = _values(seq)
    if any(v <= 0.0 for v in values):
        raise NonPositiveEntryError("log-monotonicity requires strictly positive entries")
    logs = tuple(math.log(v) for v in values)
    d = len(values) - 1
    return all(_nabla(logs, d - k, k) >= -MONOTONE_TOL for k in range(d))


def _hankel_matrices(values: np.ndarray) -> list[np.ndarray]:
    """hat_n and check_n for n = 1..d, in that order.

    hat_{2l} is the moment matrix (b_{i+j})_{i,j<=l}, check_{2l} the shifted
    difference matrix (nabla b_{1+i+j}); odd orders analogously.
    """
    d = values.size - 1
    nabla = values[:-1] - values[1:]
    out: list[np.ndarray] = []
    for order in range(1, d + 1):
        if order % 2 == 0:
            l = order // 2
            hat = values[np.add.outer(np.arange(l + 1), np.arange(l + 1))]
            chk = nabla[1 + np.add.outer(np.arange(l), np.arange(l))]
        else:
            l = (order - 1) // 2
            hat = values[1 + np.add.outer(np.arange(l + 1), np.arange(l + 1))]
            chk = nabla[np.add.outer(np.arange(l + 1), np.arange(l + 1))]
        out += [hat, chk]
    return out


@dataclass(frozen=True)
class ExtendibilityVerdict:
    """Outcome of the truncated moment-problem decision.

    ``witness`` is a finite discrete law on [0,1] realizing the moments, when
    one was computed (small degrees only); it is a debugging aid, the verdict
    itself is carried by ``extendible``.
    """

    extendible: bool
    hankel_values: tuple
    min_hankel: float
    witness: MixingLaw | None = None

    def to_json(self) -> dict:
        return {
            "extendible": self.extendible,
            "hankel_values": list(self.hankel_values),
            "min_hankel": self.min_hankel,
        }


def _atoms_from_moments(moms: np.ndarray, n_atoms: int):
    """Quadrature-style representation with n_atoms atoms, or None.

    Odd-length trailing data uses the classical construction: the monic
    polynomial orthogonal w.r.t. the moment functional has the atoms as roots;
    weights solve the Vandermonde system.  Even degree puts one atom at 0 and
    applies the same construction to the shifted moments.
    """
    d = moms.size - 1
    if n_atoms < 1:
        return None
    if d == 2 * n_atoms - 1:
        # moments m_0..m_{2n-1} determine an n-point rule
        h = moms[np.add.outer(np.arange(n_atoms), np.arange(n_atoms))]
        rhs = -moms[n_atoms : 2 * n_atoms]
        try:
            coeffs = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            return None
        poly = np.concatenate(([1.0], coeffs[::-1]))
        roots = np.roots(poly)
        if np.abs(roots.imag).max(initial=0.0) > 1e-8:
            return None
        atoms = np.sort(roots.real)
        vand = np.vander(atoms, N=2 * n_atoms, increasing=True).T
        weights, *_ = np.linalg.lstsq(vand, moms, rcond=None)
        return atoms, weights
    if d == 2 * n_atoms - 2:
        # even degree: atom at 0 plus an (n-1)-point rule for the length-biased law
        sub = _atoms_from_moments(moms[1:], n_atoms - 1)
        if sub is None:
            return None
        atoms1, weights1 = sub
        if (atoms1 <= 0).any():
            return None
        w = weights1 / atoms1
        return np.concatenate(([0.0], atoms1)), np.concatenate(([1.0 - w.sum()], w))
    return None


def _discrete_witness(values: tuple) -> MixingLaw | None:
    moms = np.asarray(values, dtype=float)
    d = moms.size - 1
    if d < 1:
        return FiniteDiscrete([1.0], [1.0])
    n_target = math.ceil((d + 1) / 2)
    # canonical rule first (all moments), then fewer atoms fitted to leading
    # moments and validated against the full list
    candidates = [(moms, n_target)]
    candidates += [(moms[: 2 * n], n) for n in range(n_target - 1, 0, -1)]
    for sub, n_atoms in candidates:
        got = _atoms_from_moments(sub, n_atoms)
        if got is None:
            continue
        atoms, weights = got
        atoms = np.where(np.abs(atoms) < 1e-12, 0.0, atoms)
        if (atoms < 0).any() or (atoms > 1 + 1e-9).any() or (weights < -1e-9).any():
            continue
        atoms = np.clip(atoms, 0.0, 1.0)
        weights = np.clip(weights, 0.0, None)
        s = weights.sum()
        if s <= 0:
            continue
        weights = weights / s
        realized = np.array([np.sum(weights * atoms**k) for k in range(d + 1)])
        if np.abs(realized - moms).max() < 1e-8:
            return FiniteDiscrete(atoms, weights)
    return None


def hausdorff_extendible(seq) -> ExtendibilityVerdict:
    """Decide whether (b_0..b_d) extends to a moment sequence of a law on [0,1].

    Requires the input to be d-monotone.  The verdict is positive iff every
    Hankel determinant is >= -HANKEL_TOL relative to the matrix scale; exact zeros
    (boundary cases such as point-mass moment sequences) count as extendible.
    """
    values = _values(seq)
    if not is_d_monotone(values):
        raise NotDMonotoneError(f"sequence {values} is not d-monotone")
    arr = np.asarray(values, dtype=float)
    det_values = []
    extendible = True
    for mat in _hankel_matrices(arr):
        det = float(np.linalg.det(mat))
        det_values.append(det)
        scale = max(1e-300, float(np.abs(mat).max()))
        if det < -HANKEL_TOL * scale:
            extendible = False
    det_values = tuple(det_values)
    min_det = min(det_values, default=0.0)
    witness = None
    if extendible and len(values) - 1 <= 4:
        witness = _discrete_witness(values)
    return ExtendibilityVerdict(
        extendible=extendible,
        hankel_values=det_values,
        min_hankel=float(min_det) if det_values else 0.0,
        witness=witness,
    )


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
    d = len(values) - 1
    p = [max(0.0, _nabla(values, d - k, k)) for k in range(d + 1)]
    total = sum(math.comb(d, k) * p[k] for k in range(d + 1))
    return BinaryExchangeableLaw(tuple(v / total for v in p))


def moment_sequence(law: MixingLaw, d: int) -> MonotoneSequence:
    """(E[M^0], ..., E[M^d]) for a mixing law supported in [0, 1]."""
    if d < 0:
        raise SpecValidationError("d must be non-negative")
    if not law.unit_interval:
        raise UnsupportedLawError(f"{law!r} is not supported in [0,1]")
    return MonotoneSequence(tuple(law.moment(k) for k in range(d + 1)))


def sample_binary_mixture(law: MixingLaw, d: int, n: int, rng: np.random.Generator) -> SampleMatrix:
    """Draw M once per row, then d independent Bernoulli(M) indicators."""
    if not law.unit_interval:
        raise UnsupportedLawError(f"{law!r} is not supported in [0,1]")
    m = law.sample(n, rng)
    u = rng.random((n, d))
    data = (u <= m[:, None]).astype(float)
    return SampleMatrix(data, meta=f"binary_mixture {law!r} d={d}")


def sample_polya_urn(r: int, b: int, d: int, n: int, rng: np.random.Generator) -> SampleMatrix:
    """Urn draws with replacement plus one extra ball of the drawn colour.

    Equal in law to :func:`sample_binary_mixture` with a Beta(r, b) mixing
    variable.
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
    return SampleMatrix(data, meta=f"polya_urn r={r} b={b} d={d}")


def polya_pattern_probability(r: int, b: int, d: int, k: int) -> float:
    """P(X = x) for any fixed urn pattern x with k ones among d draws."""
    num = 1.0
    for i in range(k):
        num *= r + i
    for i in range(d - k):
        num *= b + i
    den = 1.0
    for i in range(d):
        den *= r + b + i
    return num / den
