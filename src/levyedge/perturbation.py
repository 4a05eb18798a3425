"""Gradient perturbations of a Gaussian and the operator that links them.

A map x -> x + sum_k eps^k grad u_k(x) pushes N(0, Sigma) forward to a
"perturbed normal" law.  This module recovers the potentials u_k from a
target sequence of density corrections (typically the Edgeworth
polynomials Q_k): each level solves

    -Lap u + x . Sigma^{-1} grad u = rhs,

whose eigenfunctions are tensor Hermite products with eigenvalue
nu_alpha = sum_j alpha_j / lambda_j, after subtracting the inter-level
correction S~ produced by the series expansion of the pushforward
density.  All arithmetic stays in exact rationals when the inputs are
rational and Sigma is diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .edgeworth import deterministic_eigh, multi_indices
from .polycore import (
    Coeff,
    EpsSeries,
    Polynomial,
    PolynomialError,
    gaussian_expectation,
    gaussian_inner_product,
    hermite_tensor,
    taylor_shift,
)


class PerturbationError(ValueError):
    pass


def rational_inverse(mat: Sequence[Sequence[Coeff]]) -> list:
    """Exact inverse of a small matrix by Gauss-Jordan on Fractions."""
    n = len(mat)
    a = [[Fraction(x) if not isinstance(x, float) else x for x in row] for row in mat]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise PerturbationError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def _as_matrix(sigma) -> list:
    if isinstance(sigma, np.ndarray):
        return [[float(x) for x in row] for row in sigma]
    return [list(row) for row in sigma]


def _is_diagonal(sig: list) -> bool:
    n = len(sig)
    return all(sig[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def is_curl_free(U: Sequence[Polynomial]) -> bool:
    """Exact symmetric-partials test for a vector polynomial field."""
    q = len(U)
    return all(
        (U[i].partial(j) - U[j].partial(i)).is_zero()
        for i in range(q)
        for j in range(i + 1, q)
    )


class GradientPolyMap:
    """Potentials u_1..u_r and their gradient fields p_k for one covariance."""

    def __init__(self, sigma, potentials: Sequence[Polynomial]):
        self.sigma = _as_matrix(sigma)
        self.dimension = len(self.sigma)
        self.potentials = list(potentials)
        self.gradients = [u.gradient() for u in self.potentials]
        for k, (u, p) in enumerate(zip(self.potentials, self.gradients), start=1):
            if u.dimension != self.dimension:
                raise PerturbationError("potential dimension mismatch")
            if u.degree() > 3 * k:
                raise PerturbationError(f"deg u_{k} exceeds 3k")
            if not is_curl_free(p):
                raise AssertionError("gradient field not curl-free")

    @property
    def order(self) -> int:
        return len(self.potentials)

    def displacement(self, eps: float) -> List[Polynomial]:
        """The vector field x -> sum_k eps^k p_k(x) at a fixed eps."""
        q = self.dimension
        out = [Polynomial.zero(q) for _ in range(q)]
        for k, p in enumerate(self.gradients, start=1):
            for j in range(q):
                out[j] = out[j] + p[j] * (eps ** k)
        return out

    def apply(self, eps: float, x: np.ndarray) -> np.ndarray:
        """Evaluate x + sum_k eps^k p_k(x) along the last axis."""
        x = np.asarray(x, dtype=float)
        disp = self.displacement(eps)
        out = x.copy()
        for j in range(self.dimension):
            out[..., j] += disp[j](x)
        return out


def apply_L(u: Polynomial, sigma) -> Polynomial:
    """The divergence-form operator U = grad u  ->  div U - x . Sigma^{-1} U."""
    return u.laplacian() - _x_dot_inv_grad(u, _as_matrix(sigma))


def solve_hermite_pde(rhs: Polynomial, sigma) -> Polynomial:
    """Solve -Lap u + x . Sigma^{-1} grad u = rhs for diagonal Sigma.

    Expands rhs over the Hermite eigenbasis of the operator and divides
    each coefficient by its eigenvalue nu_alpha = sum_j alpha_j/lambda_j.
    rhs must integrate to zero against the N(0, Sigma) density (the
    constant mode has eigenvalue 0).  Result normalized to zero constant
    term; exact when rhs and Sigma are rational.
    """
    sig = _as_matrix(sigma)
    if not _is_diagonal(sig):
        raise PerturbationError("solver requires diagonal covariance; rotate first")
    q = rhs.dimension
    lambdas = [sig[j][j] for j in range(q)]
    if any(l <= 0 for l in lambdas):
        raise PerturbationError("covariance must be positive definite")
    exact = all(isinstance(l, Fraction) or isinstance(l, int) for l in lambdas)
    mean = gaussian_expectation(rhs, sig)
    if (mean != 0) if exact else (abs(float(mean)) > 1e-9):
        raise PerturbationError("rhs must have zero Gaussian mean")
    d = rhs.degree()
    u = Polynomial.zero(q)
    for total in range(1, d + 1):
        for alpha in multi_indices(q, total):
            basis = hermite_tensor(alpha, lambdas, "scaled")
            c = gaussian_inner_product(rhs, basis, sig)
            if c == 0:
                continue
            norm_sq = math.prod(math.factorial(a) for a in alpha)
            lam_pow: Coeff = Fraction(1) if exact else 1.0
            nu: Coeff = Fraction(0) if exact else 0.0
            for a, l in zip(alpha, lambdas):
                lam_pow = lam_pow * l ** a
                nu = nu + Fraction(a, 1) / l if exact else nu + a / l
            u = u + basis * (c / (norm_sq * lam_pow * nu))
    residual = (u.laplacian() * -1) + _x_dot_inv_grad(u, sig) - rhs
    if exact:
        if not residual.is_zero():
            raise AssertionError("PDE residual nonzero in exact mode")
    else:
        if any(abs(float(c)) > 1e-8 for c in residual.terms.values()):
            raise AssertionError("PDE residual above tolerance")
    return u


def _x_dot_inv_grad(u: Polynomial, sig) -> Polynomial:
    q = u.dimension
    inv = rational_inverse(sig)
    grad = u.gradient()
    out = Polynomial.zero(q)
    for i in range(q):
        xi = Polynomial.variable(q, i)
        for j in range(q):
            if inv[i][j] != 0:
                out = out + xi * grad[j] * inv[i][j]
    return out


def compute_S_tilde(
    potentials: Sequence[Polynomial],
    targets: Sequence[Polynomial],
    sigma,
) -> Polynomial:
    """Next-level correction of the pushforward-density series.

    Given u_1..u_k already matching the density corrections S_1..S_k,
    expands  phi(x) / [phi(y) det DY]  with y = x + sum eps^j grad u_j(x)
    as 1 + eps T_1 + ... and Taylor-shifts each S_j(y) back to x; the
    eps^(k+1) balance yields S~_{k+1} = T_{k+1} - sum_{j+l=k+1} w_{j,l}.
    Verifies the lower-level balances exactly and the zero-Gaussian-mean
    property of the output.
    """
    sig = _as_matrix(sigma)
    k = len(potentials)
    if len(targets) != k:
        raise PerturbationError("need one target per potential")
    if k == 0:
        raise PerturbationError("empty input; the first correction is identically zero")
    q = len(sig)
    order = k + 1
    inv = rational_inverse(sig)
    grads = [u.gradient() for u in potentials]
    exact = all(
        isinstance(c, Fraction)
        for u in list(potentials) + list(targets)
        for c in u.terms.values()
    ) and all(not isinstance(x, float) for row in sig for x in row)

    # exponent: sum_j eps^j x.Sigma^{-1} grad u_j
    #         + (1/2) sum eps^{j1+j2} grad u_{j1} . Sigma^{-1} grad u_{j2}
    expo = [Polynomial.zero(q) for _ in range(order + 1)]
    for j, u in enumerate(potentials, start=1):
        expo[j] = expo[j] + _x_dot_inv_grad(u, sig)
    for j1 in range(1, k + 1):
        for j2 in range(1, k + 1):
            if j1 + j2 > order:
                continue
            cross = Polynomial.zero(q)
            for a in range(q):
                for b in range(q):
                    if inv[a][b] != 0:
                        cross = cross + grads[j1 - 1][a] * grads[j2 - 1][b] * inv[a][b]
            expo[j1 + j2] = expo[j1 + j2] + cross * Fraction(1, 2)
    numer = EpsSeries(expo, order).exp()

    # det(I + sum_j eps^j Hess u_j) as an eps-series, cofactor expansion
    hess = [
        [
            EpsSeries(
                [Polynomial.constant(q, Fraction(1) if a == b else Fraction(0))]
                + [grads[j][a].partial(b) for j in range(k)],
                order,
            )
            for b in range(q)
        ]
        for a in range(q)
    ]
    det = _series_det(hess, q, order)
    series = numer * det.reciprocal()

    # Taylor shifts of the targets along the displacement field
    displacement = [grads[j] for j in range(k)]
    w = [taylor_shift(s, displacement, order - j) for j, s in enumerate(targets, start=1)]
    for l in range(1, k + 1):
        level = series[l]
        for j in range(1, l + 1):
            level = level - w[j - 1][l - j]
        diff = level
        if exact:
            if not diff.is_zero():
                raise PerturbationError(f"inconsistent inputs at level {l}")
        elif any(abs(float(c)) > 1e-7 for c in diff.terms.values()):
            raise PerturbationError(f"inconsistent inputs at level {l}")

    out = series[order]
    for j in range(1, k + 1):
        out = out - w[j - 1][order - j]
    mean = gaussian_expectation(out, sig)
    if (mean != 0) if exact else (abs(float(mean)) > 1e-8):
        raise AssertionError("correction polynomial must have zero Gaussian mean")
    return out


def _series_det(m, q: int, order: int) -> EpsSeries:
    if q == 1:
        return m[0][0]
    total: Optional[EpsSeries] = None
    for i in range(q):
        minor = [[m[r][c] for c in range(q) if c != 0] for r in range(q) if r != i]
        term = m[i][0] * _series_det(minor, q - 1, order)
        if i % 2:
            term = term * -1
        total = term if total is None else total + term
    return total


def invert_S_map(Q: Sequence[Polynomial], sigma) -> GradientPolyMap:
    """Potentials whose gradient perturbation realizes target corrections.

    Solves the level-by-level recursion S~_k - L_Sigma(grad u_k) = Q_k
    with S~_1 = 0.  Non-diagonal covariance is diagonalized with the
    deterministic sign convention; the recursion runs in the eigenframe
    and the potentials are rotated back (float coefficients).
    """
    sig = _as_matrix(sigma)
    if _is_diagonal(sig):
        return GradientPolyMap(sig, _invert_diagonal(Q, sig))
    lams, A = deterministic_eigh(np.array([[float(x) for x in row] for row in sig]))
    q = len(sig)
    diag = [[float(lams[i]) if i == j else 0.0 for j in range(q)] for i in range(q)]
    rotated_Q = [qk.compose_affine(A) for qk in Q]  # Q_k(A y) in the eigenframe
    pots = _invert_diagonal(rotated_Q, diag)
    back = [u.compose_affine(A.T) for u in pots]  # u_k(A^T x)
    return GradientPolyMap(sig, back)


def _invert_diagonal(Q: Sequence[Polynomial], sig) -> List[Polynomial]:
    pots: List[Polynomial] = []
    for idx, qk in enumerate(Q, start=1):
        if idx == 1:
            rhs = qk
        else:
            s_tilde = compute_S_tilde(pots, list(Q[: idx - 1]), sig)
            rhs = qk - s_tilde
        pots.append(solve_hermite_pde(rhs, sig))
    return pots


def pushforward_density_1d(u: Polynomial, eps: float, ys: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Exact density of T(xi) for xi ~ N(0, lam), T(x) = x + eps u'(x).

    Inverts the (assumed monotone) map by Newton iteration started at y
    and applies the one-dimensional change-of-variables formula.
    """
    if u.dimension != 1:
        raise PerturbationError("one-dimensional potentials only")
    p = u.partial(0)
    dp = p.partial(0)
    ys = np.asarray(ys, dtype=float)
    x = ys.copy()
    for _ in range(60):
        t = x + eps * p(x[..., None]) - ys
        deriv = 1.0 + eps * dp(x[..., None])
        if np.any(deriv <= 0):
            raise PerturbationError("map not monotone at this eps")
        step = t / deriv
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    dens_x = np.exp(-x * x / (2 * lam)) / np.sqrt(2 * np.pi * lam)
    return dens_x / (1.0 + eps * dp(x[..., None]))
