"""Cumulants and Edgeworth polynomials.

Converts moments of a mean-zero law to cumulants (and back), builds the
characteristic-function correction polynomials and their position-space
counterparts, evaluates the corrected Gaussian density, and gives the
exact moments of the expansion and of the normalized sum.

Conventions.  The correction polynomial of order k is stored with real
coefficients against the basis (i z)^alpha; its position-space partner
for covariance Sigma is

    Q_k(x) = sum_alpha b_alpha H^Sigma_alpha(x),
    H^Sigma_alpha = phi_Sigma^(-1) (-d)^alpha phi_Sigma,

so that H^Sigma_alpha phi_Sigma has Fourier transform
(i z)^alpha exp(-z . Sigma z / 2).  The construction is exact
for every rational positive-definite Sigma and reproduces the classical
one-dimensional expansion phi(x) (1 + eps mu3/6 H_3(x) + ...).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from .polycore import (
    Coeff,
    EpsSeries,
    GaussianMoments,
    Polynomial,
    grlex_key,
    hermite_sum,
    multi_indices,
    positive_definite,
    sum_of_products,
    truncate,
)


class EdgeworthError(ValueError):
    pass


#: largest |exponent| a cumulant file may write in a decimal value: the
#: exact value of 1e-N has an (N + 1)-digit denominator
MAX_DECIMAL_EXPONENT = 1000


def _factorial_alpha(alpha: Tuple[int, ...]) -> int:
    return math.prod(math.factorial(a) for a in alpha)


def _poly_log1p(p: Polynomial, n: int) -> Polynomial:
    """log(1+p) truncated at total degree n; p must have zero constant term."""
    if p.constant_term() != 0:
        raise EdgeworthError("log1p needs zero constant term")
    out = Polynomial.zero(p.dimension)
    power = Polynomial.constant(p.dimension, Fraction(1))
    for l in range(1, n + 1):
        power = truncate(power * p, n)
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (l + 1), l)
    return out


class MomentSet:
    """Raw moments E[X^alpha] of a mean-zero law, 1 <= |alpha| <= order."""

    def __init__(self, dimension: int, order: int, values: Dict[tuple, Coeff]):
        if order < 2:
            raise EdgeworthError("order must be >= 2")
        self.dimension = dimension
        self.order = order
        self.values = {}
        for d in range(1, order + 1):
            for alpha in multi_indices(dimension, d):
                if alpha not in values:
                    raise EdgeworthError(f"missing moment for {alpha}")
                self.values[alpha] = values[alpha]
        for alpha in multi_indices(dimension, 1):
            if self.values[alpha] != 0:
                raise EdgeworthError("law must be mean-zero")
        if not positive_definite(self.covariance()):
            raise EdgeworthError("second moments must form a positive-definite matrix")

    def covariance(self):
        return _second_order(self.values, self.dimension)


def _second_order(values: Dict[tuple, Coeff], q: int) -> list:
    """The q x q matrix of the |alpha| = 2 entries: entry (i, j) is
    values[e_i + e_j]."""
    cov = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            e = [0] * q
            e[i] += 1
            e[j] += 1
            cov[i][j] = values[tuple(e)]
    return cov


class CumulantSet:
    """Cumulants mu_alpha for 2 <= |alpha| <= order; |alpha| = 2 is the covariance."""

    def __init__(self, dimension: int, order: int, mu: Dict[tuple, Coeff]):
        if order < 2:
            raise EdgeworthError("order must be >= 2")
        self.dimension = dimension
        self.order = order
        self.mu = {}
        for d in range(2, order + 1):
            for alpha in multi_indices(dimension, d):
                self.mu[alpha] = mu.get(alpha, Fraction(0))
        self.covariance = _second_order(self.mu, dimension)

    @cached_property
    def gaussian(self) -> GaussianMoments:
        """N(0, covariance) as one GaussianMoments table, made on first
        read: its moments and Sigma^(-1) serve every stage of a build."""
        return GaussianMoments(self.covariance)

    def covariance_array(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.covariance])

    def check_nonsingular(self):
        """The covariance is rational: judged exactly, by the pivots of
        polycore.positive_definite."""
        if not positive_definite(self.covariance):
            raise EdgeworthError("covariance must be positive definite")

    # -- text format ---------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for alpha in sorted(self.mu, key=grlex_key):
            lines.append(" ".join(str(a) for a in alpha) + f" {self.mu[alpha]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "CumulantSet":
        """Lines of exponents and a value, read exactly (0.7 is 7/10); a
        decimal exponent over MAX_DECIMAL_EXPONENT is rejected unconverted."""
        mu = {}
        q = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            val = parts[-1]
            try:
                alpha = tuple(int(a) for a in parts[:-1])
                _, e, exponent = val.lower().partition("e")
                if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                    raise EdgeworthError(f"line {lineno}: exponent over {MAX_DECIMAL_EXPONENT}")
                mu[alpha] = Fraction(val)
            except EdgeworthError:
                raise
            except (ValueError, ZeroDivisionError) as exc:
                raise EdgeworthError(f"line {lineno}: cannot parse {line!r}") from exc
            if q is None:
                q = len(alpha)
            elif len(alpha) != q:
                raise EdgeworthError("inconsistent dimension in cumulant file")
        if not mu:
            raise EdgeworthError("empty cumulant file")
        order = max(sum(a) for a in mu)
        if order < 2:
            raise EdgeworthError("cumulant file must reach order 2")
        cset = CumulantSet(q, order, mu)
        cset.check_nonsingular()
        return cset


def moments_to_cumulants(m: MomentSet) -> CumulantSet:
    """Exact multivariate moment-to-cumulant conversion.

    Works through the formal identity K(z) = log M(z) on generating
    polynomials truncated at the moment order.
    """
    q, n = m.dimension, m.order
    gen = Polynomial(
        q,
        {
            a: Fraction(1, _factorial_alpha(a)) * m.values[a]
            for d in range(1, n + 1)
            for a in multi_indices(q, d)
        },
    )
    k = _poly_log1p(gen, n)
    mu = {}
    for d in range(2, n + 1):
        for alpha in multi_indices(q, d):
            mu[alpha] = k.coefficient(alpha) * _factorial_alpha(alpha)
    return CumulantSet(q, n, mu)


def cumulants_to_moments(c: CumulantSet) -> MomentSet:
    """Inverse of moments_to_cumulants (round-trip exact).

    M(z) = exp(K(z)) graded by degree: with K_d the degree-d part of K,
    the degree-d part of exp(K) is the eps^d coefficient of
    exp(sum_d eps^d K_d), which EpsSeries.exp builds in O(n^2) products.
    """
    q, n = c.dimension, c.order
    parts = [Polynomial.zero(q)] * 2 + [
        Polynomial(q, {a: Fraction(1, _factorial_alpha(a)) * c.mu[a] for a in multi_indices(q, d)})
        for d in range(2, n + 1)
    ]
    mgen = EpsSeries(parts, n).exp()
    values = {}
    for d in range(1, n + 1):
        for alpha in multi_indices(q, d):
            values[alpha] = mgen[d].coefficient(alpha) * _factorial_alpha(alpha)
    return MomentSet(q, n, values)


def build_P(c: CumulantSet, r: int) -> list:
    """Correction polynomials P_1..P_r in the (i z)^alpha basis.

    The returned Polynomial objects carry the real coefficients b_alpha;
    P_k has monomial degrees in [k+2, 3k].
    """
    if r < 1:
        raise EdgeworthError("r must be >= 1")
    if c.order < r + 2:
        raise EdgeworthError(f"need cumulants up to order {r + 2}")
    q = c.dimension
    # sum over |alpha| in [3, r+2] of eps^(|alpha|-2) mu_alpha y^alpha / alpha!
    coeffs = [Polynomial.zero(q) for _ in range(r + 1)]
    for d in range(3, r + 3):
        coeffs[d - 2] = Polynomial(
            q,
            {
                a: Fraction(1, _factorial_alpha(a)) * c.mu[a]
                for a in multi_indices(q, d)
            },
        )
    expanded = EpsSeries(coeffs, r).exp()
    ps = [expanded[k] for k in range(1, r + 1)]
    for k, p in enumerate(ps, start=1):
        if p.degree() > 3 * k or not truncate(p, k + 1).is_zero():
            raise AssertionError("P_k degree window violated")
    return ps


def build_Q(c: CumulantSet, r: int) -> list:
    """Position-space Edgeworth polynomials Q_1..Q_r.

    Q_k sums b_alpha H^Sigma_alpha over the terms b_alpha (i z)^alpha of
    P_k; exact (rational) for rational cumulants.
    """
    return _hermite_form(c, build_P(c, r))


def _hermite_form(c: CumulantSet, ps: list) -> list:
    """Q_1..Q_r from P_1..P_r = build_P(c, r), for a caller that keeps P."""
    c.check_nonsingular()
    memo: dict = {}
    return [hermite_sum(p, c.gaussian.inv, memo) for p in ps]


def gaussian_density(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    q = sigma.shape[0]
    inv = np.linalg.inv(sigma)
    det = np.linalg.det(sigma)
    quad = np.einsum("...i,ij,...j->...", x, inv, x)
    return np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** q * det)


def edgeworth_density(c: CumulantSet, r: int, eps: float, x) -> np.ndarray:
    """phi_Sigma(x) * (1 + sum_k eps^k Q_k(x)); may be negative."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != c.dimension:
        raise EdgeworthError("point dimension mismatch")
    base = gaussian_density(c.covariance_array(), x)
    if r == 0:
        return base
    qs = build_Q(c, r)
    corr = np.ones(x.shape[:-1])
    for k, qk in enumerate(qs, start=1):
        corr = corr + eps ** k * qk(x)
    return base * corr


def edgeworth_signed_moments(c: CumulantSet, qs: list, eps, max_order: int) -> Dict[tuple, Coeff]:
    """Moments of the signed density phi_Sigma (1 + sum eps^k Q_k), exact.

    qs is Q_1..Q_r as build_Q(c, r) gives them (empty for the Gaussian
    alone).  The factor 1 + sum eps^k Q_k is built once, and every
    E[x^alpha (1 + sum eps^k Q_k)] is read off c.gaussian, the one moment
    table of Sigma.  eps is rational (e.g. the reciprocal square root of
    a perfect-square m).
    """
    q = c.dimension
    factor = sum_of_products(q, [(Polynomial.constant(q, Fraction(1)), 1)]
                             + [(qk, eps ** k) for k, qk in enumerate(qs, start=1)])
    alphas = [a for d in range(1, max_order + 1) for a in multi_indices(q, d)]
    return dict(zip(alphas, c.gaussian.expectations(factor, alphas)))


def scaled_sum_moments(c: CumulantSet, m, max_order: int) -> Dict[tuple, Coeff]:
    """Exact moments of m^(-1/2) (X_1 + ... + X_m) up to max_order.

    The cumulant of order |alpha| scales by m^(1 - |alpha|/2), so m must
    be a perfect square.
    """
    if c.order < max_order:
        raise EdgeworthError("cumulant order too low")
    root = math.isqrt(int(m))
    if root * root != m:
        raise EdgeworthError("m must be a perfect square")
    mu = {
        a: c.mu[a] * Fraction(1, root ** (sum(a) - 2))
        for d in range(2, max_order + 1)
        for a in multi_indices(c.dimension, d)
    }
    return cumulants_to_moments(CumulantSet(c.dimension, max_order, mu)).values
