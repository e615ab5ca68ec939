"""Binary exchangeable vectors: urn schemes, mixtures, and the extendibility boundary.

A d-dimensional exchangeable 0/1 vector is described by the probabilities
p_k of any fixed pattern with k ones, or equivalently by the transformed
sequence b_k.  It embeds into an infinite exchangeable sequence exactly when
(b_k) is the moment sequence of some mixing law on [0,1] -- a checkable
Hankel-determinant condition.
"""

import math

import numpy as np

from condiid import moments as mo
from condiid.mixing import Beta

rng = np.random.default_rng(1)

print("=== An urn with hidden mixture structure ===")
print("Draw from an urn with 1 red + 1 blue ball, returning each ball with")
print("one extra ball of the same colour.  The draws are exchangeable, and")
print("in fact equal in law to coin flips with a uniformly drawn bias:\n")

d, n = 3, 200000
urn = mo.sample_polya_urn(1, 1, d, n, rng)
mix = mo.sample_binary_mixture(Beta(1, 1), d, n, rng)

print(f"{'#ones':>6} {'urn freq':>10} {'mixture freq':>13} {'closed form':>12}")
ones_urn = urn.sum(axis=1)
ones_mix = mix.sum(axis=1)
for k in range(d + 1):
    closed = math.comb(d, k) * mo.polya_pattern_probability(1, 1, d, k)
    print(f"{k:>6} {(ones_urn == k).mean():>10.4f} {(ones_mix == k).mean():>13.4f} {closed:>12.4f}")

print("\n=== Moments of the hidden bias ===")
seq = mo.moment_sequence(Beta(1, 1), d)
print("uniform-mixture moment sequence:", [round(v, 4) for v in seq.values])
print("pattern probabilities p_k = iterated differences:",
      [round(v, 4) for v in mo.p_from_b(seq).p])

print("\n=== When is a pattern law extendible? ===")
print("The family (1, 1/2, eps) is a valid 2-dimensional parameterization for")
print("all eps in [0, 1/2], but admits a mixing law only for eps >= 1/4:\n")
for eps in (0.20, 0.24, 0.25, 0.30, 0.50):
    verdict = mo.hausdorff_extendible((1.0, 0.5, eps))
    witness = ""
    if verdict.extendible:
        atoms = ", ".join(f"{a:.3f}" for a in mo.discrete_witness((1.0, 0.5, eps)).atoms)
        witness = f"  witness atoms: [{atoms}]"
    print(f"eps = {eps:.2f}: extendible = {str(verdict.extendible):5s} "
          f"min Hankel det = {verdict.min_hankel:+.4f}{witness}")
