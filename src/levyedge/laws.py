"""Built-in test laws for the rate experiments.

Each law packages a sampler with its exact (rational) cumulants, so the
central-limit experiments can draw normalized sums and build the matching
Gaussian or perturbed-Gaussian reference from the same description.  All
built-ins are absolutely continuous: the higher-order expansions behind
the perturbed reference require the characteristic function of the law
to decay at infinity, which densities provide and lattice laws violate.
The exponential's exact sum quantile takes ndtr, gammaincinv and
gammainccinv from scipy's compiled special/_special_ufuncs, which
`scipyext` loads without `scipy.special`
(tests/test_laws.py::TestQuantileLoad guards them).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Optional

import numpy as np

from .edgeworth import CumulantSet, MomentSet, moments_to_cumulants, multi_indices
from .scipyext import special

__all__ = [
    "LawError",
    "TestLaw",
    "centered_exponential",
    "product_exponential",
    "uniform_disk",
    "gaussian_law",
    "make_law",
    "BUILTIN_LAWS",
]


class LawError(ValueError):
    pass


class TestLaw:
    """A mean-zero law with exact cumulants and a normalized-sum sampler.

    sample_sum(m, n, rng) draws n copies of m^(-1/2) (X_1 + ... + X_m);
    laws with a closed-form sum law give a sampler that fills an
    (n, dimension) array with them, so the cost per draw does not grow
    with m.  sum_quantile, None or a factory, maps m to the exact quantile
    function of the normalized sum in the normal score, z -> F^-1(Phi(z)).
    """

    def __init__(
        self,
        cumulants: CumulantSet,
        sample: Callable[[int, np.random.Generator], np.ndarray],
        sample_sum: Optional[Callable[[int, np.random.Generator, np.ndarray], None]] = None,
        sum_quantile: Optional[Callable[[int], Callable[[np.ndarray], np.ndarray]]] = None,
    ):
        self.dimension = cumulants.dimension
        self.cumulants = cumulants
        self._sample = sample
        self._sample_sum = sample_sum
        self.sum_quantile = sum_quantile

    def sample(self, n: int, rng) -> np.ndarray:
        out = np.asarray(self._sample(n, rng), dtype=float)
        return out.reshape(n, self.dimension)

    def sample_sum(self, m: int, n: int, rng, out: Optional[np.ndarray] = None) -> np.ndarray:
        """n draws of the normalized sum of m, shape (n, dimension).

        out, a C-contiguous float array of that shape, receives the draws
        and is returned; they are the same bit for bit as without it.
        """
        if m < 1:
            raise LawError("need m >= 1 summands")
        if out is None:
            out = np.empty((n, self.dimension))
        if self._sample_sum is not None:
            self._sample_sum(m, rng, out)
            return out
        out[...] = 0.0
        for _ in range(m):
            out += self.sample(n, rng)
        out /= math.sqrt(m)
        return out


def _exp_cumulants_1d(order: int) -> CumulantSet:
    # centered Exp(1): kappa_j = (j-1)! for j >= 2 (kappa_1 = 0 after centering)
    mu = {(j,): Fraction(math.factorial(j - 1)) for j in range(2, order + 1)}
    return CumulantSet(1, order, mu)


def _gamma_sum(m: int, rng, out: np.ndarray) -> None:
    """out = (G - m) / sqrt(m), G ~ Gamma(m, 1) per entry: the normalized
    sum of m centered unit exponentials.  standard_gamma draws the stream
    of gamma(m, size=out.shape) bit for bit."""
    rng.standard_gamma(m, out=out)
    out -= m
    out /= math.sqrt(m)


def centered_exponential(order: int = 6) -> TestLaw:
    """Exp(1) - 1 in one dimension; unit variance, all cumulants (j-1)!.

    Normalized sums use the closed Gamma form: m^(-1/2) sum of m centered
    unit exponentials equals (G - m)/sqrt(m) with G ~ Gamma(m, 1), so a
    single Gamma draw replaces the m-fold sum, and the sum quantile is the
    Gamma quantile rescaled, each tail from its own side so that none loses
    digits to 1 - Phi(z).
    """

    def sample(n, rng):
        return rng.exponential(size=(n, 1)) - 1.0

    def sum_quantile(m):
        root = math.sqrt(m)

        def qf(z):
            g = np.where(z < 0, special.gammaincinv(m, special.ndtr(z)),
                         special.gammainccinv(m, special.ndtr(-z)))
            return (g - m) / root

        return qf

    return TestLaw(_exp_cumulants_1d(order), sample, sample_sum=_gamma_sum,
                   sum_quantile=sum_quantile)


def product_exponential(order: int = 6) -> TestLaw:
    """Two independent centered Exp(1) coordinates.

    Joint cumulants vanish unless concentrated on one coordinate
    (independence), where they equal the 1D values (j-1)!.
    """
    mu: Dict[tuple, Fraction] = {}
    for j in range(2, order + 1):
        mu[(j, 0)] = Fraction(math.factorial(j - 1))
        mu[(0, j)] = Fraction(math.factorial(j - 1))
    cs = CumulantSet(2, order, mu)

    def sample(n, rng):
        return rng.exponential(size=(n, 2)) - 1.0

    return TestLaw(cs, sample, sample_sum=_gamma_sum)


def _disk_moments(order: int) -> MomentSet:
    # E[x^a y^b] over the unit disk: zero for odd a or b, else
    # 2 (a-1)!! (b-1)!! / ((a+b)!! (a+b+2)) by the polar-coordinate
    # factorization of the angular and radial integrals.
    def ff(k):  # double factorial with (-1)!! = 1
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out

    vals: Dict[tuple, Fraction] = {}
    for total in range(1, order + 1):
        for alpha in multi_indices(2, total):
            a, b = alpha
            if a % 2 or b % 2:
                vals[alpha] = Fraction(0)
            else:
                vals[alpha] = Fraction(2 * ff(a - 1) * ff(b - 1), ff(a + b) * (a + b + 2))
    return MomentSet(2, order, vals)


def uniform_disk(order: int = 6) -> TestLaw:
    """Uniform law on the unit disk (already mean zero, covariance I/4)."""
    cs = moments_to_cumulants(_disk_moments(order))

    def sample(n, rng):
        r = np.sqrt(rng.random(n))
        ang = 2.0 * np.pi * rng.random(n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    return TestLaw(cs, sample)


def gaussian_law(order: int = 6) -> TestLaw:
    """Standard normal in 1D: the null case (all higher cumulants zero).

    Normalized sums are exactly standard normal, so rate experiments on
    this law only see the finite-sample floor of the distance estimator.
    """
    mu = {(2,): Fraction(1)}
    mu.update({(j,): Fraction(0) for j in range(3, order + 1)})
    cs = CumulantSet(1, order, mu)

    def sample(n, rng):
        return rng.standard_normal((n, 1))

    def sample_sum(m, rng, out):
        rng.standard_normal(out=out)

    return TestLaw(cs, sample, sample_sum=sample_sum, sum_quantile=lambda m: lambda z: z)


_LATTICE = {
    "rademacher": "supported on {-1, +1}",
    "bernoulli": "supported on a two-point lattice",
    "poisson": "supported on the integer lattice",
}

BUILTIN_LAWS = ("centered-exponential", "product-exponential", "uniform-disk")


def make_law(name: str, order: int = 6) -> TestLaw:
    if name == "centered-exponential":
        return centered_exponential(order)
    if name == "product-exponential":
        return product_exponential(order)
    if name == "uniform-disk":
        return uniform_disk(order)
    if name == "gaussian":
        return gaussian_law(order)
    if name in _LATTICE:
        raise LawError(
            f"law {name!r} is {_LATTICE[name]}: its characteristic function does "
            "not decay at infinity, so the smoothness hypothesis behind the "
            "higher-order rate experiments fails; use an absolutely continuous law"
        )
    raise LawError(f"unknown law {name!r}; built-ins: {', '.join(BUILTIN_LAWS)}")
