"""Walkthrough: strong error of the Gaussian-substituted Euler scheme.

Couples a fine-grid Euler proxy of a jump-driven SDE with a coarse
scheme whose small jumps are replaced by rank-matched Gaussian
surrogates, then fits the decay of the RMS sup-error as the step and
cutoff shrink together.

Run:  python demos/sde_coupling.py   (about two minutes)
"""

import numpy as np

from levyedge.levy import AnnulusDecomposition, StableLikeMeasure
from levyedge.sampling import RngStream
from levyedge.sde import SchemeConfig, SdeSpec, coupled_paths
from levyedge.wasserstein import rate_fit


def sigma_fn(x):
    m = x.shape[0]
    n2 = (x ** 2).sum(axis=1)
    base = 0.6 + 0.4 / (1.0 + n2)
    s = np.zeros((m, 2, 2))
    s[:, 0, 0] = s[:, 1, 1] = base
    s[:, 0, 1] = s[:, 1, 0] = 0.1 / (1.0 + n2)
    return s


meas = StableLikeMeasure(2, 1.5, 1.0)
spec = SdeSpec(
    d=2, a=np.array([0.1, -0.1]), B=0.3 * np.eye(2),
    sigma_fn=sigma_fn, x0=np.zeros(2), T=1.0, measure=meas,
)

hs = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
rms = []
for h in hs:
    cfg = SchemeConfig(h=h, fine_substeps=16)
    res = coupled_paths(spec, cfg, AnnulusDecomposition(meas, h), 128, RngStream(1, 0))
    r = float(np.sqrt(np.mean(res.sup_distance ** 2)))
    rms.append(r)
    print(f"h = eps = {h}:  RMS sup-error = {r:.4f}")

slope, _ = rate_fit(hs, np.array(rms)[:, None])  # one RMS per h
print(f"\nfitted exponent: {slope:.3f} (theory: error^2 ~ h + eps, so about 0.5)")
