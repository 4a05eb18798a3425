"""Seeded sampling: Gaussians, perturbed normals, and Levy jump sums.

Streams are keyed: PCG64DXSM seeded by SeedSequence([master seed,
stream id]), or for master seeds of 2^32 and up by the two as fixed
pairs of 32-bit words and a tag word, so any (master_seed, stream_id)
pair reproduces its draws exactly and distinct pairs are independent.
Stream ids for experiment grids come from a splitmix-style hash of
(replicate, step, purpose), letting replicates and timesteps be
generated in any order or in parallel.  The jump sums draw their
Poisson counts first, then their jumps in blocks of at most _BLOCK
candidates.
"""

from __future__ import annotations

import math

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


def _stream_key(master_seed: int, stream_id: int) -> list:
    """The SeedSequence entropy of a stream: [master_seed, stream_id] for a
    master seed below 2^32.  SeedSequence would join the 32-bit words of
    larger entries and pad short entropy with zeros, so for a larger
    master seed both parts are fixed word pairs, tagged by a last word 1."""
    if master_seed < 1 << 32:
        return [master_seed, stream_id]
    m32 = (1 << 32) - 1
    return [master_seed & m32, master_seed >> 32, stream_id & m32, stream_id >> 32, 1]


class RngStream:
    """One reproducible stream: PCG64DXSM seeded by the SeedSequence of
    _stream_key(master_seed, stream_id), both taken mod 2^64."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = master_seed & _MASK
        self.stream_id = stream_id & _MASK
        self.generator = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence(_stream_key(self.master_seed, self.stream_id))))

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


def sample_gaussian(root, rng, n: int, out=None, scratch=None) -> np.ndarray:
    """n draws from N(0, root root^T), shape (n, q): standard normals times
    root^T, with root the sym_sqrt of the covariance.

    out and scratch, when given, are distinct C-contiguous float (n, q)
    arrays: the standard normals are drawn into scratch and their product
    with the root lands in out, which is returned.  The draws are the same
    bit for bit either way.
    """
    g = _as_generator(rng)
    if scratch is None:
        z = g.standard_normal((n, root.shape[0]))
    else:
        z = g.standard_normal(out=scratch)
    return np.matmul(z, root.T, out=out)


def sample_perturbed_normal(pmap: GradientPolyMap, eps: float, r: int, rng, n: int,
                            out=None, scratch=None, work=None, root=None) -> np.ndarray:
    """n draws of xi + sum_{k<=r} eps^k p_k(xi) for xi ~ N(0, Sigma of the map).

    out and scratch are as for sample_gaussian: the standard normals are
    drawn into out, xi lands in scratch, and the draws in out.  Each
    p_k[j](xi) is evaluated into the rows of work, a C-contiguous float
    (3, n) array (made here when not given), by Polynomial.evaluate_into,
    so no n-sized array is made per monomial.  root, when given, is
    sym_sqrt of the map's Sigma, from a caller that draws for one map many
    times.  The draws are the same bit for bit whichever of these are
    given.
    """
    if r < 0 or r > pmap.order:
        raise SamplingError("r must lie in [0, map order]")
    if root is None:
        root = sym_sqrt(np.array(pmap.sigma, dtype=float))
    xi = sample_gaussian(root, rng, n, out=scratch, scratch=out)
    if out is None:
        out = xi.copy()
    else:
        np.copyto(out, xi)
    if work is None:
        work = np.empty((3, n))
    for k in range(1, r + 1):
        p = pmap.gradients[k - 1]
        for j in range(pmap.dimension):
            term = p[j].evaluate_into(xi, *work)
            term *= eps ** k
            out[:, j] += term
    return out


#: most candidates one sample_interval call draws, so that a block's
#: temporaries stay in cache and memory stays bounded; the blocks fix the
#: draw order
_BLOCK = 1 << 13


def sample_compound_poisson(
    spec: LevyMeasureSpec, lo: float, hi: float, intensity: float, t: float, rng, n: int
) -> np.ndarray:
    """n draws of the sum over time t of the jumps of spec restricted to
    lo < |z| <= hi, an interval of mass intensity.

    The measure is isotropic, so the jumps have mean zero and the sum
    needs no compensator.  The Poisson counts come first; the jumps are
    then drawn as one stream, in blocks of at most _BLOCK candidates, the
    last sized by spec.candidates for the jumps still needed and its
    surplus dropped.  Each row's jumps are a contiguous segment of the
    stream, summed block by block in draw order.
    """
    if intensity < 0:
        raise SamplingError("intensity must be nonnegative")
    if t < 0:
        raise SamplingError("t must be nonnegative")
    g = _as_generator(rng)
    out = np.zeros((n, spec.dimension))
    if intensity > 0 and t > 0:
        counts = g.poisson(t * intensity, size=n)
        rows = np.flatnonzero(counts)
        # first[i]: jumps of the stream before row rows[i]
        first = np.cumsum(counts)[rows] - counts[rows]
        total = int(counts.sum())
        done = 0
        while done < total:
            z = spec.sample_interval(lo, hi, min(_BLOCK, spec.candidates(total - done)), g)
            z = z[:total - done]
            if len(z):
                # the rows whose segments meet [done, done + len(z)); the
                # first of them may have begun in an earlier block
                i = int(np.searchsorted(first, done, side="right")) - 1
                j = int(np.searchsorted(first, done + len(z)))
                cuts = first[i:j] - done
                cuts[0] = 0
                out[rows[i:j]] += np.add.reduceat(z, cuts, axis=0)
                done += len(z)
    return out


def sample_small_jumps(decomposition: AnnulusDecomposition, t: float, rng, n: int) -> np.ndarray:
    """n draws of the compensated small-jump value Z_t^eps of decomposition.spec.

    The jumps of (lo, hi] are one compound-Poisson draw with the
    decomposition's intensity; the sub-resolution tail below lo is a
    Gaussian with per-coordinate variance t * tail_variance, isotropic
    like the measure, so it is a scaled standard normal.
    """
    dec = decomposition
    out = sample_compound_poisson(dec.spec, dec.lo, dec.hi, dec.intensity, t, rng, n)
    if t > 0 and dec.tail_variance > 0:
        out += math.sqrt(t * dec.tail_variance) * _as_generator(rng).standard_normal(
            (n, dec.spec.dimension))
    return out


def sample_big_jumps(spec: LevyMeasureSpec, eps: float, t: float, rng, n: int) -> np.ndarray:
    """n draws of the sum of the jumps beyond eps over time t: one
    compound-Poisson draw with intensity nu(eps < |z| <= tau)."""
    return sample_compound_poisson(spec, eps, spec.tau, spec.big_jump_mass(eps), t, rng, n)
