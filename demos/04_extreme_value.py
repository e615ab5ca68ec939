"""Min-stable exponential laws: tail dependence functions and their sampler.

A min-stable law is exp(-rate * l(x)) for a homogeneous function l between
max(x) and sum(x).  The logistic model has a one-line exact sampler.  A
triplet's l is a weighted sum of a drift and of building-block parts l_G, so
its sampler takes the componentwise minimum of one independent min-stable
vector per part, each drawn exactly by the fastest sampler for it.
"""

import math

import numpy as np

from condiid import extreme_value as ev
from condiid.mixing import PointMass

rng = np.random.default_rng(4)

print("=== Tail dependence functions ===")
x = np.array([1.0, 1.0])
for name, spec in [
    ("independence", ev.independence()),
    ("logistic 0.5", ev.logistic(0.5)),
    ("logistic 0.9", ev.logistic(0.9)),
    ("neg-logistic 1.5", ev.negative_logistic(1.5)),
    ("two-point atom", ev.lf(ev.MOAtom(PointMass(1.2)))),
    ("comonotone atom", ev.lf(ev.MOAtom(PointMass(math.inf)))),
]:
    val = ev.stdf_eval(spec, x)
    print(f"  {name:>16}: l(1,1) = {val:.4f}   (bounds: max=1, sum=2)")

print("\n=== Exact logistic sampler vs the closed form ===")
n = 200000
direct = ev.sample_logistic_direct(0.5, 1.0, 2, n, rng)
emp = (direct > 1.0).all(axis=1).mean()
print(f"  empirical survival at (1,1): {emp:.4f}")
print(f"  exp(-sqrt(2))              : {math.exp(-math.sqrt(2)):.4f}")

print("\n=== A triplet sampled part by part ===")
# exp(-rate l) is a product over the parts of l, so X is the minimum of one
# independent vector per part, with s = rate / (b + c):
# - the drift b: iid exponentials of rate s b;
# - the Frechet atom: the logistic sampler above, at rate s c w;
# - the two-point atom: by Abel summation l_{G_q}(x) = sum_j q^(j-1) x_[j]
#   over decreasingly sorted x, a Marshall-Olkin law of a compound Poisson
#   subordinator, whose death chain takes at most d steps;
# - any other G: extremal functions of its spectral vector of iid G draws
#   (Dombry, Engelke & Oesting 2016), d tilted draws per row on average.
tri = ev.Triplet(0.3, 1.0, [(ev.MOAtom(PointMass(1.2)), 0.5), (ev.Frechet(0.5), 0.3),
                            (ev.Weibull(0.5), 0.2)])
series = ev.sample_minstable(tri, 2, 20000, rng)
print("  minimum of a drift, a two-point atom, a Frechet and a Weibull atom")
for pt in ([0.5, 0.5], [1.0, 0.3]):
    pt = np.asarray(pt)
    emp = (series > pt).all(axis=1).mean()
    closed = ev.minstable_survival(tri, tri.marginal_rate(), pt)
    print(f"  survival at {pt.tolist()}: empirical {emp:.4f}, evaluator {closed:.4f}")

print("\n=== Min-stability and the extreme-value copula ===")
spec = ev.logistic(0.5)
sf = ev.minstable_survival(spec, 1.0, [0.7, 1.1])
print(f"  sf(x)^2 = {sf**2:.6f}  equals  sf(2x) = "
      f"{ev.minstable_survival(spec, 1.0, [1.4, 2.2]):.6f}")
u = np.array([0.3, 0.6])
c = ev.extreme_value_copula_eval(spec, u)
print(f"  C(u)^3 = {c**3:.6f}  equals  C(u^3) = "
      f"{ev.extreme_value_copula_eval(spec, u**3):.6f}")
