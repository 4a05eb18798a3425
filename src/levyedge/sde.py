"""Euler schemes for SDEs driven by a Levy process, with coupling.

The driving noise is Z_t = a t + B W_t + compensated jumps; the state
follows dX = sigma(X) dZ.  One noise source (_step_noise) draws each
coarse step's Brownian, small-jump and big-jump blocks, and one stepper
(_euler) moves the state through them.  On top of these sit the plain
explicit Euler iteration in each increment mode and coupled pairs of
paths (exact fine-grid proxy vs Gaussian-substituted coarse scheme)
sharing their drift, Brownian, and big-jump randomness, with the
small-jump block matched to its Gaussian surrogate per step by the
radial rank coupling (optimal for spherically symmetric laws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .levy import AnnulusDecomposition, LevyMeasureSpec
from .perturbation import GradientPolyMap
from .sampling import (
    RngStream,
    sample_big_jumps,
    sample_perturbed_normal,
    sample_small_jumps,
    sym_sqrt,
)

MODE_EXACT = "exact"
MODE_GAUSSIANIZED = "gaussianized"
MODE_PERTURBED = "perturbed"


class SdeError(ValueError):
    pass


@dataclass
class SdeSpec:
    d: int
    q: int
    a: np.ndarray
    B: np.ndarray
    sigma_fn: Callable[[np.ndarray], np.ndarray]  # (M, d) -> (M, d, q)
    x0: np.ndarray
    T: float
    measure: Optional[LevyMeasureSpec] = None

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.a.shape != (self.q,) or self.B.shape[0] != self.q:
            raise SdeError("drift/diffusion shapes must match the noise dimension")
        if self.x0.shape != (self.d,):
            raise SdeError("x0 must be d-dimensional")
        if self.T <= 0:
            raise SdeError("horizon must be positive")

    def sigma(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = np.asarray(self.sigma_fn(x), dtype=float)
        if s.shape != (x.shape[0], self.d, self.q):
            raise SdeError("sigma_fn must return (M, d, q)")
        return s


@dataclass
class SchemeConfig:
    h: float
    eps: float
    mode: str = MODE_GAUSSIANIZED
    fine_substeps: int = 16

    def __post_init__(self):
        if not (0 < self.h < 1 and 0 < self.eps < 1):
            raise SdeError("h and eps must lie in (0,1)")
        if self.mode not in (MODE_EXACT, MODE_GAUSSIANIZED, MODE_PERTURBED):
            raise SdeError(f"unknown mode {self.mode!r}")

    def n_steps(self, T: float) -> int:
        return int(math.floor(T / self.h + 1e-12))


def _jump_parts(spec: SdeSpec, cfg: SchemeConfig):
    """The annulus decomposition and Sigma_eps^(1/2) of the measure at cfg.eps."""
    if spec.measure is None:
        return None, np.zeros((spec.q, spec.q))
    dec = AnnulusDecomposition(spec.measure, cfg.eps)
    return dec, sym_sqrt(spec.measure.small_jump_covariance(cfg.eps))


def _surrogate(g, shape, t: float, root: np.ndarray, pert=None) -> np.ndarray:
    """sqrt(t) Sigma^(1/2) y for y standard normal, or perturbed normal when
    pert = (map, eps, order); result has shape shape + (q,)."""
    if pert is None:
        y = g.standard_normal(shape + (root.shape[0],))
    else:
        pmap, pert_eps, pert_order = pert
        y = sample_perturbed_normal(pmap, pert_eps, pert_order, g, math.prod(shape))
        y = y.reshape(shape + (root.shape[0],))
    return np.sqrt(t) * y @ root.T


def _step_noise(spec: SdeSpec, cfg: SchemeConfig, rng: RngStream, k: int, M: int,
                sub: int, mode: str, dec, root: np.ndarray, pert=None):
    """Driving noise of coarse step k on sub equal substeps, for M replicates.

    Returns the Brownian, small-jump and big-jump blocks, each (M, sub, .),
    drawn from the step's "bw", "smalljump"/"surrogate" and "bigjump"
    children of rng.  The small-jump block is the compensated jump sum
    (exact), its Gaussian surrogate (gaussianized) or a perturbed
    surrogate (perturbed); without a measure both jump blocks are zero.
    """
    hs = cfg.h / sub
    q = spec.q
    dw = np.sqrt(hs) * rng.child(0, k, "bw").standard_normal((M, sub, spec.B.shape[1]))
    if spec.measure is None:
        return dw, np.zeros((M, sub, q)), np.zeros((M, sub, q))
    # the M * sub rows of one jump draw are i.i.d., one per (replicate, substep)
    if mode == MODE_EXACT:
        small = sample_small_jumps(spec.measure, dec, hs, rng.child(0, k, "smalljump"), M * sub)
        small = small.reshape(M, sub, q)
    else:
        small = _surrogate(rng.child(0, k, "surrogate"), (M, sub), hs, root, pert)
    big = sample_big_jumps(spec.measure, cfg.eps, hs, rng.child(0, k, "bigjump"), M * sub)
    return dw, small, big.reshape(M, sub, q)


def _euler(spec: SdeSpec, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Advance x (M, d) through the increments dz (M, sub, q) in order,
    evaluating sigma at each left endpoint."""
    for j in range(dz.shape[1]):
        x = x + np.einsum("mdq,mq->md", spec.sigma(x), dz[:, j])
    return x


def _iterate(spec: SdeSpec, cfg: SchemeConfig, rng: RngStream, n_paths: int,
             mode: str, pert=None) -> np.ndarray:
    """Euler iterates, one step per coarse step."""
    dec, root = _jump_parts(spec, cfg)
    n = cfg.n_steps(spec.T)
    out = np.empty((n_paths, n + 1, spec.d))
    out[:, 0] = spec.x0
    x = np.tile(spec.x0, (n_paths, 1))
    for k in range(n):
        dw, small, big = _step_noise(spec, cfg, rng, k, n_paths, 1, mode, dec, root, pert)
        x = _euler(spec, x, spec.a * cfg.h + dw @ spec.B.T + small + big)
        out[:, k + 1] = x
    return out


def euler_path(spec: SdeSpec, cfg: SchemeConfig, rng: RngStream, n_paths: int = 1,
               pert_map: Optional[GradientPolyMap] = None, pert_eps: float = 1.0,
               pert_order: int = 1) -> np.ndarray:
    """Explicit Euler iterates X_0..X_N, shape (n_paths, N+1, d).

    Each step draws the driving increment a h + B W_h + small jumps + big
    jumps with the small-jump block in cfg.mode: exact, gaussianized
    (sqrt(h) Sigma_eps^(1/2) xi) or perturbed (xi replaced by a draw of
    sample_perturbed_normal(pert_map, pert_eps, pert_order)).  Sigma is
    evaluated at the left endpoint.
    """
    if cfg.mode != MODE_PERTURBED:
        return _iterate(spec, cfg, rng, n_paths, cfg.mode)
    if pert_map is None:
        raise SdeError("perturbed mode needs a gradient map")
    return _iterate(spec, cfg, rng, n_paths, cfg.mode, (pert_map, pert_eps, pert_order))


def _radial_rank_match(z: np.ndarray, gvec: np.ndarray) -> np.ndarray:
    """Pair z with the surrogate cloud gvec by radius ranks, keeping directions.

    Both clouds are draws from spherically symmetric laws, for which the
    distance-optimal coupling is the monotone rearrangement of the radii
    with the direction carried over unchanged.  Rank-matching the two
    realized radius samples implements that map empirically: replicate i
    gets the surrogate radius of equal rank, pointed along z_i.  The
    returned cloud is a permutation of gvec in law (exact surrogate
    marginal) since the directions of z are uniform and independent of
    every radius involved.
    """
    rz = np.linalg.norm(z, axis=1)
    rg = np.linalg.norm(gvec, axis=1)
    radii = np.empty_like(rz)
    radii[np.argsort(rz, kind="stable")] = np.sort(rg)
    dirs = np.where(rz[:, None] > 0, z, gvec) / np.where(
        rz[:, None] > 0, rz[:, None], np.maximum(rg[:, None], 1e-300)
    )
    return radii[:, None] * dirs


def _is_isotropic(sigma: np.ndarray, tol: float = 1e-10) -> bool:
    sigma = np.asarray(sigma, dtype=float)
    scale = max(np.abs(np.diag(sigma)).max(), 1e-300)
    return bool(np.all(np.abs(sigma - sigma[0, 0] * np.eye(sigma.shape[0])) <= tol * scale))


@dataclass
class CoupledResult:
    exact: np.ndarray        # (M, N+1, d) fine-grid proxy restricted to the coarse grid
    approx: np.ndarray       # (M, N+1, d) Gaussian-substituted scheme
    sup_distance: np.ndarray  # (M,) sup_k |X_k - Xbar_k|
    times: np.ndarray


def coupled_paths(spec: SdeSpec, cfg: SchemeConfig, M: int, rng: RngStream) -> CoupledResult:
    """Coupled exact/approximate Euler paths sharing their randomness.

    Per coarse step both schemes see identical drift, Brownian, and
    big-jump draws; the small-jump sum and its Gaussian surrogate are
    paired across the M replicates by the radial coupling (rank-match
    radii, keep directions), the distance-optimal map for spherically
    symmetric laws.  The exact side advances on a grid of
    cfg.fine_substeps sub-intervals per step (an Euler proxy for the
    true solution); the approximate side takes one coarse step.
    """
    if M < 2:
        raise SdeError("coupling needs at least two replicates")
    if spec.measure is None:
        raise SdeError("coupling is about the jump substitution; need a measure")
    dec, root = _jump_parts(spec, cfg)
    if not _is_isotropic(root):
        raise SdeError("radial coupling needs an isotropic small-jump covariance")
    n = cfg.n_steps(spec.T)
    sub = max(1, cfg.fine_substeps)

    x = np.tile(spec.x0, (M, 1))
    xb = x.copy()
    exact = np.empty((M, n + 1, spec.d))
    approx = np.empty((M, n + 1, spec.d))
    exact[:, 0] = x
    approx[:, 0] = xb
    for k in range(n):
        dw, small, big = _step_noise(spec, cfg, rng, k, M, sub, MODE_EXACT, dec, root)
        # exact side: fine Euler through the substeps
        x = _euler(spec, x, spec.a * (cfg.h / sub) + dw @ spec.B.T + small + big)
        # approximate side: one coarse step with the small-jump sum
        # replaced by its matched Gaussian surrogate
        surrogate = _surrogate(rng.child(0, k, "surrogate"), (M,), cfg.h, root)
        matched = _radial_rank_match(small.sum(axis=1), surrogate)
        dzb = spec.a * cfg.h + dw.sum(axis=1) @ spec.B.T + matched + big.sum(axis=1)
        xb = _euler(spec, xb, dzb[:, None])
        exact[:, k + 1] = x
        approx[:, k + 1] = xb
    sup = np.max(np.linalg.norm(exact - approx, axis=2), axis=1)
    times = np.arange(n + 1) * cfg.h
    return CoupledResult(exact, approx, sup, times)
