"""Walkthrough: replacing small jumps by a Gaussian, and the price paid.

Splits the small jumps of a heavy-tailed radial jump measure into one
compound-Poisson interval and a Gaussian tail below it, draws the
compensated small-jump value, and measures its distance to the matched
Gaussian surrogate as the cutoff shrinks.  At 2000 samples the
measured distance is the finite-sample floor of the empirical estimate,
which scales as eps^(3/4), not the substitution rate itself.

Run:  python demos/jump_substitution.py
"""

import math

import numpy as np

from levyedge.levy import AnnulusDecomposition, StableLikeMeasure, cramer_probe
from levyedge.sampling import RngStream, sample_small_jumps
from levyedge.wasserstein import rate_fit, wp_empirical

meas = StableLikeMeasure(2, 1.5, 1.0)
print("measure: |z|^(-q-alpha) dz on |z| <= 1, q=2, alpha=1.5")
print("Sigma_eps at eps=1/4 :", meas.small_jump_variance(0.25), "I (= pi I)")

probe = cramer_probe(meas, 4, 8.0, np.linspace(8, 60, 200))
print("characteristic-decay probe on a rescaled annulus:", round(probe, 4))

rng = RngStream(17, 0)
eps_list = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
dists = []
for i, eps in enumerate(eps_list):
    dec = AnnulusDecomposition(meas, eps)
    print(f"\neps = {eps}: jumps drawn on ({dec.lo}, {dec.hi}], "
          f"intensity {dec.intensity:.3g} per unit time")
    g = rng.child(0, i, "demo").generator
    z = sample_small_jumps(dec, eps, g, 2000)
    s = math.sqrt(meas.small_jump_variance(eps))  # Sigma_eps = s^2 I
    ref = math.sqrt(eps) * (g.standard_normal((2000, 2)) * s)
    d = wp_empirical(z, ref)
    dists.append(d)
    print(f"  W2(small-jump value at t=eps, Gaussian surrogate) = {d:.5f}")

slope, _ = rate_fit(eps_list, np.array(dists)[:, None])  # one replicate per eps
print(f"\nfitted decay exponent: {slope:.3f} (finite-sample floor: about 3/4)")
