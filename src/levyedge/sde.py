"""Coupled Euler schemes for SDEs driven by a Levy process.

The driving noise is Z_t = a t + B W_t + compensated jumps; the state
follows dX = sigma(X) dZ, and the jump cutoff is the coarse step h.  One
noise source (_step_noise) draws each coarse step's Brownian, small-jump
and big-jump blocks, and one stepper (_euler) moves the state through
them.  coupled_paths pairs a fine-grid proxy of the solution with a
coarse scheme whose small-jump sum is replaced by its Gaussian surrogate;
the two share their drift, Brownian and big-jump randomness, and the
small-jump sum is matched to the surrogate per step by the radial rank
coupling (optimal for spherically symmetric laws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .levy import AnnulusDecomposition, LevyMeasureSpec
from .sampling import RngStream, sample_big_jumps, sample_small_jumps

#: cap on the elements of one path array, M * (N + 1) * d, and of one
#: step's noise block, M * fine_substeps * q
MAX_PATH_SIZE = 1 << 24


class SdeError(ValueError):
    pass


@dataclass
class SdeSpec:
    d: int
    a: np.ndarray
    B: np.ndarray
    sigma_fn: Callable[[np.ndarray], np.ndarray]  # (M, d) -> (M, d, q)
    x0: np.ndarray
    T: float
    measure: LevyMeasureSpec

    @property
    def q(self) -> int:
        """The noise dimension, that of the jump measure."""
        return self.measure.dimension

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
    fine_substeps: int = 16

    def __post_init__(self):
        if not 0 < self.h < 1:
            raise SdeError("h must lie in (0,1)")
        if self.fine_substeps < 1:
            raise SdeError("fine_substeps must be >= 1")

    def n_steps(self, T: float) -> int:
        return int(math.floor(T / self.h + 1e-12))

    def check_size(self, T: float, M: int, d: int, q: int) -> None:
        """Raise SdeError when M paths of dimension d over [0, T], or one
        step's noise block of dimension q, exceed MAX_PATH_SIZE elements."""
        # T / h is tested as a float first: it may be too large for an int
        if not T / self.h < MAX_PATH_SIZE or max(
                M * (self.n_steps(T) + 1) * d, M * self.fine_substeps * q) > MAX_PATH_SIZE:
            raise SdeError(f"h = {self.h} needs path arrays over {MAX_PATH_SIZE} elements; "
                           "use fewer replicates, a shorter horizon or a larger h")


def _step_noise(spec: SdeSpec, cfg: SchemeConfig, rng: RngStream, k: int, M: int,
                dec: AnnulusDecomposition):
    """Driving noise of coarse step k on cfg.fine_substeps equal substeps,
    for M replicates.

    Returns the Brownian, small-jump and big-jump blocks, each (M, sub, .),
    drawn from the step's "bw", "smalljump" and "bigjump" children of rng;
    the small-jump block is the exact compensated jump sum.
    """
    sub = cfg.fine_substeps
    hs = cfg.h / sub
    q = spec.q
    dw = np.sqrt(hs) * rng.child(0, k, "bw").standard_normal((M, sub, spec.B.shape[1]))
    # the M * sub rows of one jump draw are i.i.d., one per (replicate, substep)
    small = sample_small_jumps(dec, hs, rng.child(0, k, "smalljump"), M * sub)
    big = sample_big_jumps(spec.measure, cfg.h, hs, rng.child(0, k, "bigjump"), M * sub)
    return dw, small.reshape(M, sub, q), big.reshape(M, sub, q)


def _euler(spec: SdeSpec, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Advance x (M, d) through the increments dz (M, sub, q) in order,
    evaluating sigma at each left endpoint."""
    for j in range(dz.shape[1]):
        x = x + np.einsum("mdq,mq->md", spec.sigma(x), dz[:, j])
    return x


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


@dataclass
class CoupledResult:
    exact: np.ndarray        # (M, N+1, d) fine-grid proxy restricted to the coarse grid
    approx: np.ndarray       # (M, N+1, d) Gaussian-substituted scheme
    sup_distance: np.ndarray  # (M,) sup_k |X_k - Xbar_k|
    times: np.ndarray


def coupled_paths(spec: SdeSpec, cfg: SchemeConfig, dec: AnnulusDecomposition, M: int,
                  rng: RngStream) -> CoupledResult:
    """Coupled exact/approximate Euler paths sharing their randomness.

    Per coarse step both schemes see identical drift, Brownian, and
    big-jump draws; the small-jump sum and its Gaussian surrogate are
    paired across the M replicates by the radial coupling (rank-match
    radii, keep directions), the distance-optimal map for spherically
    symmetric laws.  The exact side advances on a grid of
    cfg.fine_substeps sub-intervals per step (an Euler proxy for the
    true solution); the approximate side takes one coarse step.  Jumps
    up to the cutoff cfg.h are small: dec is the decomposition of
    spec.measure at eps = cfg.h, built by the caller.  Raises SdeError
    before any draw when dec is of another measure or cutoff, or when the
    arrays would exceed MAX_PATH_SIZE (SchemeConfig.check_size).
    """
    if M < 2:
        raise SdeError("coupling needs at least two replicates")
    if dec.spec is not spec.measure or dec.eps != cfg.h:
        raise SdeError("dec must decompose spec.measure at eps = cfg.h")
    cfg.check_size(spec.T, M, spec.d, max(spec.q, spec.B.shape[1]))
    # every measure is isotropic, so Sigma_h is a multiple of I and the
    # surrogate, a scaled standard normal, is spherically symmetric, as the
    # radial coupling needs
    s = math.sqrt(spec.measure.small_jump_variance(cfg.h))
    n = cfg.n_steps(spec.T)
    sub = cfg.fine_substeps

    x = np.tile(spec.x0, (M, 1))
    xb = x.copy()
    exact = np.empty((M, n + 1, spec.d))
    approx = np.empty((M, n + 1, spec.d))
    exact[:, 0] = x
    approx[:, 0] = xb
    for k in range(n):
        dw, small, big = _step_noise(spec, cfg, rng, k, M, dec)
        # exact side: fine Euler through the substeps
        x = _euler(spec, x, spec.a * (cfg.h / sub) + dw @ spec.B.T + small + big)
        # approximate side: one coarse step with the small-jump sum
        # replaced by its matched Gaussian surrogate
        y = rng.child(0, k, "surrogate").standard_normal((M, spec.q))
        surrogate = (np.sqrt(cfg.h) * y) * s
        matched = _radial_rank_match(small.sum(axis=1), surrogate)
        dzb = spec.a * cfg.h + dw.sum(axis=1) @ spec.B.T + matched + big.sum(axis=1)
        xb = _euler(spec, xb, dzb[:, None])
        exact[:, k + 1] = x
        approx[:, k + 1] = xb
    sup = np.max(np.linalg.norm(exact - approx, axis=2), axis=1)
    times = np.arange(n + 1) * cfg.h
    return CoupledResult(exact, approx, sup, times)
