"""Walkthrough: from cumulants to a perturbed-normal sampler.

Builds the correction polynomials for the centered exponential law,
solves the elliptic equations for the perturbing potentials, and shows
the perturbed draws matching the normalized-sum law far better than the
plain normal does.

Run:  python demos/expansion_walkthrough.py
"""

import math

import numpy as np

from levyedge.edgeworth import build_P, build_Q
from levyedge.laws import centered_exponential
from levyedge.perturbation import invert_S_map
from levyedge.sampling import RngStream, sample_perturbed_normal
from levyedge.wasserstein import wp_1d_exact

law = centered_exponential()
print("law: centered-exponential | cumulants kappa_2..kappa_4 =",
      [str(law.cumulants.mu[(j,)]) for j in (2, 3, 4)])

r = 2
P = build_P(law.cumulants, r)
Q = build_Q(law.cumulants, r)
for k in range(r):
    print(f"\nP_{k+1}(y) = {P[k].to_text()}")
    print(f"Q_{k+1}(x) = {Q[k].to_text()}")

pmap = invert_S_map(Q, law.cumulants.covariance)
for k in range(r):
    print(f"\nu_{k+1}(x) = {pmap.potentials[k].to_text()}")
    print(f"p_{k+1}(x) = {pmap.gradients[k][0].to_text()}")

print("\ndistance of the m-summand normalized sum to each reference "
      "(1D quantile distance, n = 200k):")
rng = RngStream(2, 0)
n = 200_000
for m in (16, 64, 256):
    eps = 1.0 / math.sqrt(m)
    g = rng.child(0, m, "demo").generator
    ym = law.sample_sum(m, n, g)[:, 0]
    plain = g.standard_normal(n)
    pert = sample_perturbed_normal(pmap, eps, 1, g, n)[:, 0]
    print(f"  m={m:4d}:  vs N(0,1) {wp_1d_exact(ym, plain):.5f}"
          f"   vs perturbed {wp_1d_exact(ym, pert):.5f}")
