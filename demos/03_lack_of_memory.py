"""Multivariate lack-of-memory laws given two independent ways.

The same exchangeable exponential law arises from (a) explicit subset shocks,
with rates recovered from the ordered-gap parameters b, and (b) the first
passage of a compound-Poisson path across unit-exponential barriers, whose
subset rates are known in closed form.  By lack of memory both are sampled by
one chain on the number of deaths, in at most d steps.  Matching the two
against the ordered-gap closed form checks both parameterisations.
"""

import math

import numpy as np

from condiid import lack_of_memory as lom
from condiid.diagnostics import tie_frequency

rng = np.random.default_rng(3)
n = 100000

sub = lom.CompoundPoissonSubordinatorSpec(drift=0.3, kill=0.1, jumps=((1.0, 0.5),))
params = sub.b_seq(3)
rates = lom.lambda_from_b(params)

print("latent path: drift 0.3, kill rate 0.1, unit jumps at rate 0.5")
print("gap parameters b_k = exp(-lapexp(k)):", [round(v, 4) for v in params.values])
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
gspec = lom.ShockRateSpec(d=2, kind="geometric", cardinality=(0.45, 0.2, 0.15))
gparams = lom.b_from_p(gspec)
geo = lom.sample_geo_shocks(gspec, 2, n, rng)
for pt in ([1, 1], [3, 2]):
    pt = np.asarray(pt)
    print(f"  survival at {pt.tolist()}: empirical {(geo.data > pt).all(axis=1).mean():.4f}, "
          f"closed {float(lom.geo_survival(gparams, pt)):.4f}")

print("\nnot every exchangeable law of this shape is conditionally iid:")
flat = lom.b_from_lambda(lom.ShockRateSpec(d=3, kind="exponential", cardinality=(0.3, 0.2, 0.1)))
print(f"  rates (0.3, 0.2, 0.1): extendible = {lom.is_ciid_extendible(flat).extendible}")
print(f"  path-derived b above : extendible = {lom.is_ciid_extendible(params).extendible}")
