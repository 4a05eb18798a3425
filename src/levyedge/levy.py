"""Isotropic Levy-measure descriptions and the small-jump decomposition.

The jumps |z| <= eps of a Levy process with measure nu are one
compensated compound Poisson sum over (inner, eps] plus a Gaussian of
matched variance for those below inner.  This module holds the measure
abstractions (exact power-law instance and a tabulated radial one), the
closed-form small-jump variances, the block sampler whose k candidates
give i.i.d. jumps on an interval, that decomposition, and diagnostics
for the uniform Cramer condition the normal-approximation theorem
requires, on the annuli Omega_r = {2^(-r-1) < |z| <= 2^(-r)}.  The
probe's sphere average takes the Bessel function jv from scipy's
compiled special/_special_ufuncs, which `scipyext` loads without
`scipy.special` (tests/test_levy.py::TestBesselLoad guards it).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .scipyext import special


class LevyError(ValueError):
    pass


def sphere_surface(q: int) -> float:
    """Surface measure of the unit sphere in R^q."""
    if not 1 <= q <= 10:
        raise LevyError("dimension out of supported range")
    return 2.0 * math.pi ** (q / 2.0) / math.gamma(q / 2.0)


def _sphere_char(q: int, u: np.ndarray) -> np.ndarray:
    """E exp(i u theta_1) for theta uniform on the unit sphere in R^q."""
    u = np.asarray(u, dtype=float)
    if q == 1:
        return np.cos(u)
    out = np.ones_like(u)
    nz = np.abs(u) > 1e-12
    un = u[nz]
    p = q / 2.0 - 1.0
    out[nz] = math.gamma(q / 2.0) * (2.0 / un) ** p * special.jv(p, un)
    return out


#: share of sample_interval's candidates that are jumps, by q: the cube
#: points inside the ball for q <= 3, every candidate beyond
_ACCEPT = {1: 1.0, 2: math.pi / 4, 3: math.pi / 6}


class LevyMeasureSpec:
    """Isotropic Levy measure nu(dz) = g(|z|) dz supported on 0 < |z| <= tau.

    Subclasses supply the radial primitives; annulus quantities, the
    Cramer probe, and samplers are derived here.  All samplers take an
    explicit numpy Generator.
    """

    dimension: int
    tau: float

    # -- radial primitives (subclass responsibility) -------------------

    def interval_mass(self, a: float, b: float) -> float:
        raise NotImplementedError

    def interval_radial_second_moment(self, a: float, b: float) -> float:
        """integral of rho^2 over nu restricted to a < |z| <= b."""
        raise NotImplementedError

    def sample_radius(self, a: float, b: float, u: np.ndarray) -> np.ndarray:
        """The radial inverse CDF on (a, b] of the uniforms u, in place."""
        raise NotImplementedError

    # -- derived -------------------------------------------------------

    def _clip(self, a: float, b: float) -> Tuple[float, float]:
        return max(a, 0.0), min(b, self.tau)

    def annulus_bounds(self, r: int) -> Tuple[float, float]:
        return self._clip(2.0 ** (-r - 1), 2.0 ** (-r))

    def interval_variance(self, a: float, b: float) -> float:
        """Per-coordinate variance of nu restricted to a < |z| <= b: isotropy
        spreads the radial second moment evenly over the coordinates."""
        a, b = self._clip(a, b)
        if a >= b:
            return 0.0
        return self.interval_radial_second_moment(a, b) / self.dimension

    def big_jump_mass(self, eps: float) -> float:
        a, b = self._clip(eps, self.tau)
        if a >= b:
            return 0.0
        return self.interval_mass(a, b)

    def small_jump_variance(self, eps: float) -> float:
        """Per-coordinate variance of the jumps |z| <= eps: Sigma_eps is
        this multiple of I."""
        if not 0 < eps <= self.tau:
            raise LevyError("eps must lie in (0, tau]")
        return self.interval_variance(0.0, eps)

    def candidates(self, n: int) -> int:
        """The candidates sample_interval draws to give n jumps, four
        standard deviations of the kept count to spare: fewer is rare."""
        p = _ACCEPT.get(self.dimension, 1.0)
        return int((n + 4.0 * math.sqrt(n * (1.0 - p))) / p) + 16

    def sample_interval(self, a: float, b: float, k: int, rng) -> np.ndarray:
        """The jumps conditioned on a < |z| <= b that k candidates give, in
        draw order, as an (m, q) array: exact radius, uniform direction.

        For q <= 3 a candidate is a point x of the cube [-1/2, 1/2)^q,
        drawn coordinate-major, and those inside the ball 0 < |x| < 1/2
        are kept (all but a share 1 - pi/4 at q = 2, 1 - pi/6 at q = 3):
        x / |x| is uniform on the sphere and independent of |x|, and
        (2|x|)^q is U(0, 1), so its radial inverse CDF rho makes the jump
        x * rho / |x|.  For q > 3 every candidate is a jump.
        """
        q = self.dimension
        if q > 3:
            # the ball's acceptance falls fast with q: a radial uniform,
            # then a Gaussian direction normalised coordinate by
            # coordinate, the order np.linalg.norm uses
            rho = self.sample_radius(a, b, rng.random(k))
            g = rng.standard_normal((k, q))
            norm = g[:, 0] * g[:, 0]
            for j in range(1, q):
                norm += g[:, j] * g[:, j]
            g /= np.sqrt(norm, out=norm)[:, None]
            g *= rho[:, None]
            return g
        c = rng.random((q, k))
        c -= 0.5
        d = c[0] * c[0]
        for j in range(1, q):
            d += c[j] * c[j]
        idx = np.flatnonzero((d < 0.25) & (d > 0.0))
        x = np.take(c, idx, axis=1)
        r2 = np.take(d, idx)
        s = np.sqrt(r2)
        # w = (2|x|)^q is uniform on (0, 1)
        w = 2.0 * s if q == 1 else (4.0 * r2 if q == 2 else 8.0 * r2 * s)
        rho = self.sample_radius(a, b, w)
        rho /= s
        x *= rho
        return x.T

    def conditional_char(self, r: int, s_mags: np.ndarray) -> np.ndarray:
        """|xi_r(s)| on the rescaled annulus law, by radial quadrature.

        xi_r(s) is the characteristic function of 2^r X^r with X^r the
        jump conditioned on Omega_r; isotropy makes it real and a
        function of |s| only.
        """
        a, b = self.annulus_bounds(r)
        if a >= b:
            raise LevyError("empty annulus")
        nodes, weights = np.polynomial.legendre.leggauss(400)
        rho = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        w = 0.5 * (b - a) * weights * self.radial_mass_density(rho)
        w /= w.sum()
        s = np.asarray(s_mags, dtype=float)
        # 2^r rho lies in [1/2, 1] on the annulus: scale it first, exactly,
        # so that 2^r s cannot overflow where s (2^r rho) does not
        u = s[:, None] * ((2.0 ** r) * rho)[None, :]
        vals = (_sphere_char(self.dimension, u) * w[None, :]).sum(axis=1)
        if not np.all(np.isfinite(vals)):
            raise LevyError("quadrature failure in characteristic probe")
        return np.abs(vals)

    def radial_mass_density(self, rho: np.ndarray) -> np.ndarray:
        """Unnormalized density of |z| under nu: S_{q-1} rho^{q-1} g(rho)."""
        raise NotImplementedError


class StableLikeMeasure(LevyMeasureSpec):
    """nu(dz) = |z|^(-q-alpha) dz exactly, on 0 < |z| <= tau."""

    def __init__(self, q: int, alpha: float, tau: float = 1.0):
        if not 0.0 < alpha < 2.0:
            raise LevyError("alpha must lie in (0,2)")
        if not tau > 0:
            raise LevyError("tau must be positive")
        self.dimension = q
        self.alpha = alpha
        self.tau = tau
        self.surface = sphere_surface(q)

    def interval_mass(self, a: float, b: float) -> float:
        al = self.alpha
        return self.surface * (a ** -al - b ** -al) / al

    def interval_radial_second_moment(self, a: float, b: float) -> float:
        al = self.alpha
        return self.surface * (b ** (2 - al) - a ** (2 - al)) / (2 - al)

    def radial_mass_density(self, rho: np.ndarray) -> np.ndarray:
        return self.surface * np.asarray(rho, dtype=float) ** (-1 - self.alpha)

    def sample_radius(self, a: float, b: float, u: np.ndarray) -> np.ndarray:
        # inverse CDF of the density ~ rho^(-1-alpha) on (a, b]
        al = self.alpha
        u *= a ** -al - b ** -al
        np.subtract(a ** -al, u, out=u)
        return np.power(u, -1.0 / al, out=u)


class CustomRadialMeasure(LevyMeasureSpec):
    """Measure from a tabulated radial density g: nu(dz) = g(|z|) dz.

    The table covers [r_min, tau].  Every primitive uses one law: the
    radial mass density m(rho) = S_(q-1) rho^(q-1) g(rho) interpolated
    linearly between the nodes, and zero off the table.  Its CDF is
    quadratic on each cell, so interval masses and radial second moments
    are closed-form sums over cells and sample_radius solves the
    quadratic.
    """

    def __init__(self, q: int, radii: Sequence[float], density: Sequence[float]):
        radii = np.asarray(radii, dtype=float)
        density = np.asarray(density, dtype=float)
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(density))):
            raise LevyError("radii and density must be finite")
        if radii.ndim != 1 or radii.size < 4 or np.any(np.diff(radii) <= 0):
            raise LevyError("radii must be an increasing grid")
        if np.any(density < 0) or radii[0] <= 0:
            raise LevyError("density must be nonnegative on positive radii")
        self.dimension = q
        self.radii = radii
        self.density = density
        self.tau = float(radii[-1])
        self.surface = sphere_surface(q)
        # a finite table can still overflow: a huge radius to the power q - 1,
        # a steep cell, or a huge total mass; refused here, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            mass = self.surface * radii ** (q - 1) * density
            self._slope = np.diff(mass) / np.diff(radii)
            # nu(|z| <= radii[k]) by the trapezoid rule, exact on linear cells
            cdf = np.concatenate([[0.0],
                                  np.cumsum(0.5 * (mass[1:] + mass[:-1]) * np.diff(radii))])
        if not (np.all(np.isfinite(mass)) and np.all(np.isfinite(self._slope))
                and math.isfinite(cdf[-1])):
            raise LevyError("the table's radial mass density or its mass overflows the float range")
        self._mass_density = mass
        self._cdf = cdf

    def _cdf_at(self, x: float) -> float:
        """nu(|z| <= x): the node's value plus the trapezoid over the part
        of its cell up to x, equal to the node value at every node."""
        r = self.radii
        x = min(max(x, r[0]), self.tau)
        k = min(int(np.searchsorted(r, x, side="right")) - 1, r.size - 2)
        return float(self._cdf[k] + 0.5 * (x - r[k]) * (self._mass_density[k]
                                                         + self.radial_mass_density(x)))

    def interval_mass(self, a: float, b: float) -> float:
        return self._cdf_at(b) - self._cdf_at(a)

    def interval_radial_second_moment(self, a: float, b: float) -> float:
        lo, hi = max(a, self.radii[0]), min(b, self.tau)
        if lo >= hi:
            return 0.0  # the interval misses the table
        r = self.radii
        x = np.concatenate([[lo], r[(r > lo) & (r < hi)], [hi]])
        m = self.radial_mass_density(x)
        # rho^2 m(rho) is a cubic on each piece: Simpson's rule is exact
        mid = 0.5 * (x[1:] + x[:-1])
        cubic = x[:-1] ** 2 * m[:-1] + 2.0 * mid ** 2 * (m[:-1] + m[1:]) + x[1:] ** 2 * m[1:]
        return float(np.sum(np.diff(x) * cubic) / 6.0)

    def radial_mass_density(self, rho: np.ndarray) -> np.ndarray:
        return np.interp(rho, self.radii, self._mass_density, left=0.0, right=0.0)

    def sample_radius(self, a: float, b: float, u: np.ndarray) -> np.ndarray:
        lo, hi = self._cdf_at(a), self._cdf_at(b)
        if hi <= lo:
            raise LevyError("interval carries no mass")
        u *= hi - lo
        u += lo
        # the cell k with cdf[k] < u <= cdf[k + 1] carries mass; on it the
        # offset t solves m_k t + slope_k t^2 / 2 = u - cdf[k], taken in
        # the form 2w / (m_k + sqrt(m_k^2 + 2 slope_k w)) that a zero
        # slope or a zero m_k does not break
        r = self.radii
        k = np.searchsorted(self._cdf, u, side="left") - 1
        np.clip(k, 0, r.size - 2, out=k)
        w = u - self._cdf[k]
        m = self._mass_density[k]
        den = m + np.sqrt(np.maximum(m * m + 2.0 * self._slope[k] * w, 0.0))
        t = np.divide(2.0 * w, den, out=np.zeros_like(w), where=den > 0)
        u[...] = r[k] + np.minimum(t, r[k + 1] - r[k])
        return u


#: dyadic annuli below the largest power of two at most eps whose jumps
#: AnnulusDecomposition draws; the variance below them is a matched Gaussian
_TAIL_DEPTH = 6

#: largest expected jump intensity AnnulusDecomposition accepts
_MAX_INTENSITY = 5e8


class AnnulusDecomposition:
    """Z_t^eps as one compound-Poisson draw over (lo, hi] = (inner, eps],
    inner = 2^-(ceil(-log2 eps) + _TAIL_DEPTH), with intensity nu(lo, hi],
    plus a Gaussian of per-coordinate variance tail_variance for the jumps
    below inner.  An eps whose intensity is computationally absurd, or too
    large for a float, is rejected.
    """

    def __init__(self, spec: LevyMeasureSpec, eps: float):
        if not 0 < eps <= spec.tau:
            raise LevyError("eps must lie in (0, tau]")
        self.spec = spec
        self.eps = eps
        inner = 2.0 ** -(math.ceil(-math.log2(eps)) + _TAIL_DEPTH)
        self.lo, self.hi = inner, eps
        try:
            intensity = spec.interval_mass(inner, eps)
        except (OverflowError, ZeroDivisionError):
            intensity = math.inf  # inner ** -alpha overflows, or inner underflowed to 0
        if not intensity <= _MAX_INTENSITY:
            raise LevyError(
                f"eps = {eps!r} needs an expected jump intensity of {intensity:.3g}, "
                f"over the budget of {_MAX_INTENSITY:.3g}; a larger eps is needed"
            )
        self.intensity = intensity
        self.tail_variance = spec.interval_variance(0.0, inner)


def cramer_probe(spec: LevyMeasureSpec, r: int, rho: float, grid: np.ndarray) -> float:
    """sup over the grid of |xi_r(s)|, |s| >= rho (uniform-Cramer diagnostic)."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < rho):
        raise LevyError("grid must lie at or beyond rho")
    return float(np.max(spec.conditional_char(r, grid)))


def cramer_amplify(rho: float, gamma: float, delta: float) -> float:
    """Decay rate valid on all of |s| >= delta from one valid beyond rho.

    Covering [delta, rho+1] by N = floor((rho+1)/delta) dilations gives
    gamma_bar = 1 - (1-gamma) delta^2 / (rho+1)^2.
    """
    if not 0 < gamma < 1:
        raise LevyError("gamma must lie in (0,1)")
    if not 0 < delta < min(rho, 1.0):
        raise LevyError("delta must lie in (0, min(rho,1))")
    return 1.0 - (1.0 - gamma) * delta ** 2 / (rho + 1.0) ** 2


def measure_from_config(cfg: dict) -> LevyMeasureSpec:
    """Build a measure from flat config keys (kind, q, alpha, tau, ...)."""
    kind = cfg.get("kind", "stable-like")
    q = int(cfg.get("q", 2))
    if kind == "stable-like":
        return StableLikeMeasure(q, float(cfg.get("alpha", 1.5)), float(cfg.get("tau", 1.0)))
    if kind == "custom-radial":
        radii = [float(x) for x in str(cfg["radii"]).split(",")]
        density = [float(x) for x in str(cfg["density"]).split(",")]
        return CustomRadialMeasure(q, radii, density)
    raise LevyError(f"unknown measure kind {kind!r}")
