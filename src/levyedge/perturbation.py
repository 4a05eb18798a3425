"""Gradient perturbations of a Gaussian and the operator that links them.

A map x -> x + sum_k eps^k grad u_k(x) pushes N(0, Sigma) forward to a
"perturbed normal" law.  This module recovers the potentials u_k from a
target sequence of density corrections (typically the Edgeworth
polynomials Q_k): each level solves

    -Lap u + x . Sigma^{-1} grad u = rhs

one degree at a time (x . Sigma^{-1} grad keeps the degree, -Lap lowers
it by two), after subtracting the inter-level correction S~ produced by
the series expansion of the pushforward density.  All arithmetic stays
in exact rationals when the inputs and Sigma are rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .edgeworth import multi_indices
from .polycore import (
    EpsSeries,
    Polynomial,
    gaussian_expectation,
    rational_inverse,
    solve_linear,
    taylor_shift,
)


class PerturbationError(ValueError):
    pass


def _as_matrix(sigma) -> list:
    if isinstance(sigma, np.ndarray):
        return [[float(x) for x in row] for row in sigma]
    return [list(row) for row in sigma]


def is_curl_free(U: Sequence[Polynomial]) -> bool:
    """Exact symmetric-partials test for a vector polynomial field."""
    q = len(U)
    return all(
        (U[i].partial(j) - U[j].partial(i)).is_zero()
        for i in range(q)
        for j in range(i + 1, q)
    )


class GradientPolyMap:
    """Potentials u_1..u_r and their gradient fields p_k for one covariance.

    s_tilde holds S~_1..S~_r (S~_1 = 0) of the recursion that built the
    potentials, when invert_S_map built them; otherwise it is None.
    """

    def __init__(self, sigma, potentials: Sequence[Polynomial],
                 s_tilde: Optional[Sequence[Polynomial]] = None):
        self.sigma = _as_matrix(sigma)
        self.dimension = len(self.sigma)
        self.potentials = list(potentials)
        self.s_tilde = None if s_tilde is None else list(s_tilde)
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
    return u.laplacian() - _x_dot_inv_grad(u, rational_inverse(_as_matrix(sigma)))


def solve_hermite_pde(rhs: Polynomial, sigma) -> Polynomial:
    """Solve -Lap u + x . Sigma^{-1} grad u = rhs for positive-definite Sigma.

    x . Sigma^{-1} grad keeps the degree and -Lap lowers it by two, so the
    degree-d part u_d solves x . Sigma^{-1} grad u_d = rhs_d + Lap u_{d+2},
    from the top degree down: one linear system on the degree-d
    monomials each, diagonal when Sigma is.  The degree-0 balance holds
    exactly when rhs integrates to zero against the N(0, Sigma) density,
    and the free constant is chosen so that u does too.  Exact when rhs
    and Sigma are rational.
    """
    sig = _as_matrix(sigma)
    inv = rational_inverse(sig)
    q = rhs.dimension
    exact = not any(
        isinstance(c, float) for c in list(rhs.terms.values()) + [x for row in sig for x in row]
    )
    top = max(rhs.degree(), 0)
    parts = [Polynomial.zero(q)] * (top + 3)  # parts[d]: degree-d part of u
    for d in range(top, 0, -1):
        lap = parts[d + 2].laplacian()
        monos = list(multi_indices(q, d))
        b = [[rhs.coefficient(a) + lap.coefficient(a)] for a in monos]
        if any(row[0] != 0 for row in b):
            # column beta holds x . Sigma^{-1} grad x^beta, again of degree d
            cols = [_x_dot_inv_grad(Polynomial(q, {beta: 1}), inv) for beta in monos]
            sol = solve_linear([[col.coefficient(a) for col in cols] for a in monos], b)
            parts[d] = Polynomial(q, {a: row[0] for a, row in zip(monos, sol)})
    mean = rhs.constant_term() + parts[2].laplacian().constant_term()
    if (mean != 0) if exact else (abs(float(mean)) > 1e-9):
        raise PerturbationError("rhs must have zero Gaussian mean")
    u = Polynomial.zero(q)
    for part in parts[1:top + 1]:
        u = u + part
    u = u - gaussian_expectation(u, sig)
    residual = _x_dot_inv_grad(u, inv) - u.laplacian() - rhs
    if exact:
        if not residual.is_zero():
            raise AssertionError("PDE residual nonzero in exact mode")
    else:
        if any(abs(float(c)) > 1e-8 for c in residual.terms.values()):
            raise AssertionError("PDE residual above tolerance")
    return u


def _x_dot_inv_grad(u: Polynomial, inv) -> Polynomial:
    """x . Sigma^{-1} grad u, given inv = Sigma^{-1}."""
    q = u.dimension
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
        expo[j] = expo[j] + _x_dot_inv_grad(u, inv)
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
    with S~_1 = 0, and keeps each S~_k on the map; exact for rational Q
    and Sigma.
    """
    sig = _as_matrix(sigma)
    pots: List[Polynomial] = []
    s_tilde: List[Polynomial] = []
    for k, qk in enumerate(Q):
        if k:
            s_tilde.append(compute_S_tilde(pots, list(Q[:k]), sig))
            qk = qk - s_tilde[k]
        else:
            s_tilde.append(Polynomial.zero(len(sig)))
        pots.append(solve_hermite_pde(qk, sig))
    return GradientPolyMap(sig, pots, s_tilde)


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
