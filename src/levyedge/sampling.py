"""Seeded sampling: Gaussians, perturbed normals, and Levy jump sums.

Streams are counter-based (Philox keyed by master seed and stream id),
so any (master_seed, stream_id) pair reproduces its draws exactly and
distinct ids are independent.  Stream ids for experiment grids come from
a splitmix-style hash of (replicate, step, purpose), letting replicates
and timesteps be generated in any order or in parallel.
"""

from __future__ import annotations

import numpy as np

from .levy import AnnulusDecomposition, LevyMeasureSpec
from .perturbation import GradientPolyMap


class SamplingError(ValueError):
    pass


_MASK = (1 << 64) - 1


def derive_stream_id(replicate: int, step: int, purpose: str = "") -> int:
    """Splitmix64-style mix of the grid coordinates into one stream id."""
    h = (replicate & _MASK) * 0x9E3779B97F4A7C15 & _MASK
    h ^= (step & _MASK) * 0xBF58476D1CE4E5B9 & _MASK
    for ch in purpose:
        h = (h ^ ord(ch)) * 0x94D049BB133111EB & _MASK
    h ^= h >> 31
    h = h * 0xD6E8FEB86659FD93 & _MASK
    h ^= h >> 32
    return h


class RngStream:
    """One reproducible stream: Philox keyed by (master_seed, stream_id)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = master_seed & _MASK
        self.stream_id = stream_id & _MASK
        self.generator = np.random.Generator(
            np.random.Philox(key=[self.master_seed, self.stream_id])
        )

    def child(self, replicate: int, step: int = 0, purpose: str = "") -> "RngStream":
        return RngStream(self.master_seed, derive_stream_id(replicate, step, purpose))

    def __getattr__(self, name):
        # delegate draw methods (standard_normal, poisson, random, ...)
        return getattr(self.generator, name)


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise SamplingError("rng must be an RngStream or numpy Generator")


def sym_sqrt(sigma: np.ndarray) -> np.ndarray:
    """The symmetric PSD square root of a PSD matrix."""
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise SamplingError("matrix is not positive semi-definite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def sample_gaussian(sigma, rng, n: int, out=None, scratch=None) -> np.ndarray:
    """n draws from N(0, sigma) via the symmetric square root, shape (n, q).

    out and scratch, when given, are distinct C-contiguous float (n, q)
    arrays: the standard normals are drawn into scratch and their product
    with the root lands in out, which is returned.  The draws are the same
    bit for bit as without them.
    """
    g = _as_generator(rng)
    root = sym_sqrt(sigma)
    if scratch is None:
        z = g.standard_normal((n, root.shape[0]))
    else:
        z = g.standard_normal(out=scratch)
    return np.matmul(z, root.T, out=out)


def sample_perturbed_normal(pmap: GradientPolyMap, eps: float, r: int, rng, n: int,
                            out=None, scratch=None) -> np.ndarray:
    """n draws of xi + sum_{k<=r} eps^k p_k(xi) for xi ~ N(0, Sigma of the map).

    out and scratch are as for sample_gaussian: the standard normals are
    drawn into out, xi lands in scratch, and the draws in out.
    """
    if r < 0 or r > pmap.order:
        raise SamplingError("r must lie in [0, map order]")
    sigma = np.array([[float(x) for x in row] for row in pmap.sigma])
    xi = sample_gaussian(sigma, rng, n, out=scratch, scratch=out)
    if out is None:
        out = xi.copy()
    else:
        np.copyto(out, xi)
    for k in range(1, r + 1):
        p = pmap.gradients[k - 1]
        for j in range(pmap.dimension):
            out[:, j] += eps ** k * p[j](xi)
    return out


#: jumps drawn per sample_interval call, sized so one run's jumps stay in
#: cache; the slicing fixes the draw order
_JUMP_BUDGET = 1 << 16


def sample_compound_poisson(
    spec: LevyMeasureSpec, lo: float, hi: float, intensity: float, t: float, rng, n: int
) -> np.ndarray:
    """n draws of the sum over time t of the jumps of spec restricted to
    lo < |z| <= hi, an interval of mass intensity.

    The measure is isotropic, so the jumps have mean zero and the sum
    needs no compensator.  The Poisson counts come first; the jumps are
    then drawn in runs of whole replicates of at most _JUMP_BUDGET jumps
    each.  A replicate over the budget is drawn in pieces of _JUMP_BUDGET
    jumps whose sums are added in draw order, so memory stays bounded.
    """
    if intensity < 0:
        raise SamplingError("intensity must be nonnegative")
    if t < 0:
        raise SamplingError("t must be nonnegative")
    g = _as_generator(rng)
    out = np.zeros((n, spec.dimension))
    if intensity > 0 and t > 0:
        counts = g.poisson(t * intensity, size=n)
        ends = np.concatenate(([0], np.cumsum(counts)))  # ends[i]: jumps before row i
        start = 0
        while start < n:
            # the longest run of rows from start within the budget
            stop = int(np.searchsorted(ends, ends[start] + _JUMP_BUDGET, side="right")) - 1
            if stop < n and ends[stop] == ends[start]:
                stop += 1  # zero-count rows, then one row over the budget
            block = int(ends[stop] - ends[start])
            if block > _JUMP_BUDGET:
                # one replicate over the budget: the sums of its pieces,
                # added in draw order; each piece's jumps are freed before
                # the next piece is drawn
                for done in range(0, block, _JUMP_BUDGET):
                    piece = min(_JUMP_BUDGET, block - done)
                    out[stop - 1] += np.add.reduceat(
                        spec.sample_interval(lo, hi, piece, g), [0], axis=0)[0]
            elif block:
                # each row's jumps are one contiguous segment of the run
                nonempty = np.flatnonzero(counts[start:stop])
                first = ends[start:stop][nonempty] - ends[start]
                out[start + nonempty] = np.add.reduceat(
                    spec.sample_interval(lo, hi, block, g), first, axis=0)
            start = stop
    return out


def sample_small_jumps(decomposition: AnnulusDecomposition, t: float, rng, n: int) -> np.ndarray:
    """n draws of the compensated small-jump value Z_t^eps of decomposition.spec.

    The bands of the decomposition cover (lo, hi] up to intervals without
    mass, so their independent compound-Poisson sums add up to one
    compound-Poisson sum with the total intensity and jumps from nu
    restricted to (lo, hi]; that one sum is drawn.  The sub-resolution
    tail is a matched Gaussian.
    """
    dec = decomposition
    out = sample_compound_poisson(dec.spec, dec.lo, dec.hi, dec.intensity, t, rng, n)
    if t > 0 and np.trace(dec.tail_covariance) > 0:
        out += sample_gaussian(t * dec.tail_covariance, rng, n)
    return out


def sample_big_jumps(spec: LevyMeasureSpec, eps: float, t: float, rng, n: int) -> np.ndarray:
    """n draws of the sum of the jumps beyond eps over time t: one
    compound-Poisson draw with intensity nu(eps < |z| <= tau)."""
    return sample_compound_poisson(spec, eps, spec.tau, spec.big_jump_mass(eps), t, rng, n)
