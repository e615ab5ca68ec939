"""Multivariate lack-of-memory laws given two independent ways.

The same exchangeable exponential law arises from (a) explicit subset shocks,
with rates recovered from the exponents a_k = psi(k) - psi(k-1) of the path's
Laplace exponent psi, and (b) the first passage of a compound-Poisson path
across unit-exponential barriers, whose subset rates are known in closed
form.  By lack of memory both are sampled by one chain on the number of
deaths, in at most d steps.  Matching the two against the closed form
exp(-sum_k a_k x_(k)), x sorted in decreasing order, checks both
parameterisations.  The discrete analogue, the wide-sense geometric law, is
given by the exchangeable binary law of one round.
"""

import numpy as np

from condiid import lack_of_memory as lom
from condiid.diagnostics import tie_frequency
from condiid.moments import BinaryExchangeableLaw, b_from_p

rng = np.random.default_rng(3)
n = 100000

sub = lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5),))
psi = [float(sub.laplace_exponent(k)) for k in range(4)]
params = tuple(psi[k] - psi[k - 1] for k in range(1, 4))
rates = lom.rates_from_exponents(params)

print("latent path: drift 0.3, kill rate 0.1, unit jumps at rate 0.5")
print("exponents a_k = lapexp(k) - lapexp(k-1):", [round(v, 4) for v in params])
print("equivalent shock rates per cardinality:", [round(v, 4) for v in rates.cardinality])

shocks = lom.sample_mo_shocks(rates, 3, n, rng)
passage = lom.sample_mo_ciid(sub, 3, n, rng)

print(f"\n{'point':>18} {'shocks':>8} {'passage':>8} {'closed':>8}")
for pt in ([0.3, 0.3, 0.3], [0.5, 1.0, 0.2], [1.5, 1.5, 1.5]):
    pt = np.asarray(pt)
    print(f"{str(pt.tolist()):>18} {(shocks.data > pt).all(axis=1).mean():>8.4f} "
          f"{(passage.data > pt).all(axis=1).mean():>8.4f} "
          f"{float(lom.mo_survival(params, pt)):>8.4f}")

print("\nlack-of-memory probe: survivors at time t restart fresh")
t, x = 0.4, np.array([0.5, 0.3, 0.7])
alive = (passage.data > t).all(axis=1)
print(f"  P(X > t + x | X > t) = {(passage.data[alive] > t + x).all(axis=1).mean():.4f}")
print(f"  P(X > x)             = {(passage.data > x).all(axis=1).mean():.4f}")

print("\njumps in the latent path produce exact ties between components:")
print(f"  tie frequency with jumps: {tie_frequency(passage):.3f}")
drift_only = lom.sample_mo_ciid(lom.CompoundPoissonSubordinatorSpec(drift=1.0), 3, 20000, rng)
print(f"  tie frequency, pure drift: {tie_frequency(drift_only):.3f}")

print("\ndiscrete analogue: wide-sense geometric laws")
# one round is an exchangeable law on {0,1}^2 whose ones are the components it
# spares: both with 0.45, one fixed one with 0.2, none with 0.15.  Its b and p
# are the binary algebra's, and the law is conditionally iid iff b is a
# moment sequence.
round_law = BinaryExchangeableLaw((0.15, 0.2, 0.45))
gb = b_from_p(round_law)
geo = lom.sample_geo_shocks(round_law, 2, n, rng)
for pt in ([1, 1], [3, 2]):
    pt = np.asarray(pt)
    print(f"  survival at {pt.tolist()}: empirical {(geo.data > pt).all(axis=1).mean():.4f}, "
          f"closed {float(lom.geo_survival(gb.values, pt)):.4f}")
print(f"  b = {tuple(round(v, 4) for v in gb.values)}: "
      f"extendible = {lom.is_ciid_extendible(gb).extendible}")

print("\nnot every exchangeable law of this shape is conditionally iid:")
flat = lom.exponents((0.3, 0.2, 0.1))
print(f"  rates (0.3, 0.2, 0.1)       : extendible = {lom.is_ciid_extendible(flat).extendible}")
print(f"  path-derived exponents above: extendible = {lom.is_ciid_extendible(params).extendible}")
