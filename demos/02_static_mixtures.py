"""Static one-factor families: spherical, l1-norm and linf-norm symmetric laws.

Each family scales an iid template (normals, exponentials, uniforms) by a
single latent variable M drawn once per row.  The closed-form laws are all
transforms of M: a characteristic generator, a Laplace transform, or the
tail-weighted density generator g_d.
"""

import math

import numpy as np

from condiid import mixtures as mx
from condiid.mixing import Gamma, Pareto

rng = np.random.default_rng(2)
n = 200000

print("=== Spherical scale mixtures ===")
sm = mx.sample_spherical_ciid(Gamma(2.0), 2, n, rng)
a = 0.8
u1, u2 = np.array([a, 0.0]), np.array([a / math.sqrt(2)] * 2)
print("cos-probe E[cos(<u,X>)] at two directions of equal length:")
print(f"  axis-aligned : {np.cos(sm @ u1).mean():+.4f}")
print(f"  diagonal     : {np.cos(sm @ u2).mean():+.4f}   (rotation invariance)")

print("\n=== l1-norm symmetric laws and Archimedean copulas ===")
law = Gamma(1.0)
sm = mx.sample_l1_ciid(law, 3, n, rng)
pt = np.ones(3)
print(f"joint survival at (1,1,1): empirical {(sm > pt).all(axis=1).mean():.4f}, "
      f"Laplace transform (1+3)^-1 = {mx.l1_ciid_survival(law, pt):.4f}")
us = np.asarray(law.laplace(sm))
for u in ([0.5, 0.5, 0.5], [0.25, 0.5, 0.75]):
    emp = (us <= np.asarray(u)).all(axis=1).mean()
    print(f"copula at {u}: empirical {emp:.4f}, generator form "
          f"{mx.archimedean_copula_eval(law, u):.4f}")

print("\n=== linf-norm symmetric laws (scaled uniforms) ===")
plaw = Pareto(1.0)
sm = mx.sample_linf_ciid(plaw, 2, n, rng)
print("density generator g_2 with a heavy-tailed scale:")
for x in (0.5, 1.0, 2.0, 4.0):
    print(f"  g_2({x:.1f}) = {mx.gnedin_g(plaw, 2, x):.5f}")

print("\nafter marginal transforms the pair has a piecewise-closed-form copula;")
print("its upper tail dependence is 2/(2+alpha):")
us = np.vectorize(lambda v: mx.pareto_uniform_marginal_cdf(1.0, v))(sm)
thresh = 0.995
cond = (us[:, 0] > thresh)[us[:, 1] > thresh].mean()
print(f"  empirical P(U1 > q | U2 > q) at q={thresh}: {cond:.3f} vs 2/3 = {2/3:.3f}")
