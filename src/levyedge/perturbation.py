"""Gradient perturbations of a Gaussian and the operator that links them.

A map x -> x + sum_k eps^k grad u_k(x) pushes N(0, Sigma) forward to a
"perturbed normal" law.  This module recovers the potentials u_k from a
target sequence of density corrections (typically the Edgeworth
polynomials Q_k): each level solves

    -Lap u + x . Sigma^{-1} grad u = rhs

one degree at a time (x . Sigma^{-1} grad keeps the degree, -Lap lowers
it by two), after subtracting the inter-level correction S~ produced by
the series expansion of the pushforward density.  The expansion is one
pass: each eps-coefficient of the balance depends on u_k linearly and on
no later potential, so every level adds the new potential's term,
checks its own balance and makes only the next coefficients, from which
S~ of the next level follows; nothing lower is expanded again.  All
arithmetic is in exact rationals: the inputs and Sigma must be rational
(a float raises polycore.PolynomialError), and every balance is checked
as an exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .polycore import (
    GaussianMoments,
    Polynomial,
    diagonal_degree_solve,
    exp_coefficient,
    multi_indices,
    rational_inverse,
    solve_linear,
    sum_of_products,
    taylor_terms,
    x_dot_inv_grad,
)


class PerturbationError(ValueError):
    pass


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

    The fields stay exact; the map x -> x + sum_k eps^k p_k(x) is
    evaluated at float points by its users, each p_k[j] at the points
    and then scaled by eps^k.

    When invert_S_map built the potentials, s_tilde holds S~_1..S~_r
    (S~_1 = 0) of its recursion, gradients the grad u_k that the
    recursion built, l_sigma the L_Sigma u_k = x . Sigma^{-1} grad u_k
    - Lap u_k that it checked and moments its GaussianMoments table of
    Sigma; otherwise s_tilde, l_sigma and moments are None and the
    gradients are built here.
    """

    def __init__(self, sigma, potentials: Sequence[Polynomial],
                 s_tilde: Optional[Sequence[Polynomial]] = None,
                 gradients: Optional[Sequence[list]] = None,
                 l_sigma: Optional[Sequence[Polynomial]] = None,
                 moments: Optional[GaussianMoments] = None):
        self.sigma = [list(row) for row in sigma]
        self.dimension = len(self.sigma)
        self.potentials = list(potentials)
        self.s_tilde = None if s_tilde is None else list(s_tilde)
        self.l_sigma = None if l_sigma is None else list(l_sigma)
        self.moments = moments
        self.gradients = ([u.gradient() for u in self.potentials] if gradients is None
                          else list(gradients))
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


def apply_L(u: Polynomial, sigma, inv=None) -> Polynomial:
    """The divergence-form operator U = grad u  ->  div U - x . Sigma^{-1} U.

    inv, when given, is Sigma^{-1}, from a caller that has inverted Sigma.
    """
    if inv is None:
        inv = rational_inverse(sigma)
    return u.laplacian() - x_dot_inv_grad(u, inv)


def _l_sigma(u: Polynomial, inv) -> Polynomial:
    """L_Sigma u = x . Sigma^{-1} grad u - Lap u, given inv = Sigma^{-1}."""
    return x_dot_inv_grad(u, inv) - u.laplacian()


def solve_hermite_pde(rhs: Polynomial, sigma, inv=None, moments=None) -> Polynomial:
    """Solve -Lap u + x . Sigma^{-1} grad u = rhs for positive-definite Sigma.

    x . Sigma^{-1} grad keeps the degree and -Lap lowers it by two, so the
    degree-d part u_d solves x . Sigma^{-1} grad u_d = rhs_d + Lap u_{d+2},
    from the top degree down: one linear system on the degree-d
    monomials each.  When Sigma^{-1} is diagonal so is the system,
    x . Sigma^{-1} grad x^beta = (sum_i beta_i / sigma_ii) x^beta, and each
    coefficient is one exact division.  The degree-0 balance holds
    exactly when rhs integrates to zero against the N(0, Sigma) density,
    and the free constant is chosen so that u does too.  rhs and Sigma
    are rational, and L_Sigma u = x . Sigma^{-1} grad u - Lap u is built
    once and checked to equal rhs exactly.  inv
    (Sigma^{-1}) and moments (a GaussianMoments table of Sigma), when
    given, come from a caller that already made them for this Sigma.
    """
    if inv is None:
        inv = rational_inverse(sigma)
    q = rhs.dimension
    if moments is None:
        moments = GaussianMoments(sigma, q)
    diagonal = all(inv[i][j] == 0 for i in range(q) for j in range(q) if i != j)
    top = max(rhs.degree(), 0)
    parts = [Polynomial.zero(q)] * (top + 3)  # parts[d]: degree-d part of u
    for d in range(top, 0, -1):
        lap = parts[d + 2].laplacian()
        if diagonal:
            parts[d] = diagonal_degree_solve([rhs, lap], d, [inv[i][i] for i in range(q)])
            continue
        monos = list(multi_indices(q, d))
        b = [rhs.coefficient(a) + lap.coefficient(a) for a in monos]
        if any(b):
            sol = [row[0] for row in solve_linear(_operator_matrix(monos, inv), [[v] for v in b])]
            parts[d] = Polynomial(q, dict(zip(monos, sol)))
    mean = rhs.constant_term() + parts[2].laplacian().constant_term()
    if mean != 0:
        raise PerturbationError("rhs must have zero Gaussian mean")
    u = Polynomial.zero(q)
    for part in parts[1:top + 1]:
        u = u + part
    u = u - moments.expectation(u)
    if _l_sigma(u, inv) != rhs:
        raise AssertionError("PDE residual nonzero")
    return u


def _operator_matrix(monos: list, inv) -> list:
    """x . Sigma^{-1} grad on the span of the monomials `monos` of one
    degree: column beta holds the coefficients of
    x . Sigma^{-1} grad x^beta = sum_ij (Sigma^{-1})_ij beta_j x^(beta - e_j + e_i)."""
    q = len(inv)
    row = {a: n for n, a in enumerate(monos)}
    mat = [[Fraction(0)] * len(monos) for _ in monos]
    for col, beta in enumerate(monos):
        for i in range(q):
            for j in range(q):
                if beta[j] and inv[i][j] != 0:
                    a = list(beta)
                    a[j] -= 1
                    a[i] += 1
                    mat[row[tuple(a)]][col] += inv[i][j] * beta[j]
    return mat


class _Recursion:
    """The eps-series of the pushforward balance, kept across levels.

    With d = sum_j eps^j p_j, p_j = grad u_j, and y = x + d, the density
    balance phi(x) / [phi(y) det DY] = sum_j eps^j S_j(y) (S_0 = 1) reads

        exp(G) = sum_j eps^j sum_beta (d^beta S_j / beta!)(x) d^beta,
        G = x . Sigma^{-1} d + |d|^2_{Sigma^{-1}} / 2 - log det(I + A),
        A = sum_j eps^j Hess u_j.

    The eps^m coefficient of each series depends on u_1..u_m only, and
    on u_m only through x . Sigma^{-1} grad u_m - Lap u_m.  So level k
    adds that term of u_k to the eps^k coefficients made at level k - 1,
    checks the level-k balance, and makes the eps^(k+1) coefficients
    without u_(k+1): their difference is S~_(k+1).  Nothing is
    recomputed.  The state: L_Sigma u_k and grad u_k of each level; G_m
    (as m G_m) and F_m = exp(G)_m; the coefficients B_m of (I + A)^{-1}
    (log det(I + A) has n L_n = sum_i i tr(A_i B_(n-i))); the
    eps-coefficients of every d^beta, one column per level; and
    d^beta S_j / beta! for |beta| <= order - j.
    Every check is an exact equality.
    """

    def __init__(self, sig, order: int):
        q = len(sig)
        self.q, self.order = q, order
        self.inv = rational_inverse(sig)
        self.moments = GaussianMoments(sig, q)
        zero, one = Polynomial.zero(q), Polynomial.constant(q, Fraction(1))
        self.zero = zero
        self.l_sigma: list = []  # L_Sigma u_j
        self.grads: list = []  # p_j
        self.inv_grads: list = []  # Sigma^{-1} p_j
        self.hess: list = []  # A_j = Hess u_j
        self.b = [[[one if a == c else zero for c in range(q)] for a in range(q)]]  # B_0 = I
        self.ig = [zero, zero]  # m G_m; the eps^1 coefficients before u_1 are zero
        self.f = [one, zero]
        self.dpow = {(0,) * q: [one]}  # beta -> [(d^beta)_0, (d^beta)_1, ...]
        self.taylor: list = []  # per target j: taylor_terms(S_j, order - j)
        self.s_tilde = zero  # S~ of the next level

    def level(self, u: Polynomial, target: Polynomial, lin: Optional[Polynomial] = None) -> None:
        """Take u_k and S_k, check the level-k balance
        S~_k + L_Sigma u_k = S_k, and, below the order, make S~_(k+1).

        lin is L_Sigma u_k when the caller has it: invert_S_map passes the
        right-hand side that its solve checked L_Sigma u_k to equal.
        Otherwise it is built here."""
        q, k = self.q, len(self.grads) + 1
        if lin is None:
            lin = _l_sigma(u, self.inv)
        if self.s_tilde + lin != target:
            raise PerturbationError(f"inconsistent inputs at level {k}")
        self.l_sigma.append(lin)
        self.f[k] = self.f[k] + lin
        self.ig[k] = self.ig[k] + lin * k
        grad = u.gradient()
        hess = [[None] * q for _ in range(q)]
        for a in range(q):
            for c in range(a, q):
                hess[a][c] = hess[c][a] = grad[a].partial(c)
        self.grads.append(grad)
        self.inv_grads.append([
            sum_of_products(q, [(grad[c], self.inv[a][c]) for c in range(q)]) for a in range(q)
        ])
        self.hess.append(hess)
        self.taylor.append(taylor_terms(target, self.order - k))
        if k < self.order:
            self._next(k + 1)

    def _next(self, n: int) -> None:
        """The eps^n coefficients without u_n, from u_1..u_(n-1)."""
        q, k = self.q, n - 1
        grads, hess, b = self.grads, self.hess, self.b
        # B_k = -sum_(i=1..k) A_i B_(k-i); symmetric
        bk = [[None] * q for _ in range(q)]
        for a in range(q):
            for c in range(a, q):
                bk[a][c] = bk[c][a] = sum_of_products(
                    q, [(hess[i - 1][a][j], b[k - i][j][c])
                        for i in range(1, k + 1) for j in range(q)], -1)
        b.append(bk)
        # column k of the d^beta table: (d^beta)_k = sum_i p_i[j] (d^(beta - e_j))_(k-i)
        # for the first j with beta_j > 0
        dpow = self.dpow
        dpow[(0,) * q].append(self.zero)
        for m in range(1, k + 1):
            for beta in multi_indices(q, m):
                j = next(i for i, e in enumerate(beta) if e)
                low = dpow[beta[:j] + (beta[j] - 1,) + beta[j + 1:]]
                row = dpow.setdefault(beta, [self.zero] * m)
                row.append(sum_of_products(
                    q, [(grads[i - 1][j], low[k - i]) for i in range(1, k - m + 2)]))
        # n G_n without u_n: n/2 sum_(i+j=n) p_i . Sigma^{-1} p_j - n L_n
        half = sum_of_products(
            q, [(grads[i - 1][a], self.inv_grads[n - i - 1][a])
                for i in range(1, n) for a in range(q)], Fraction(n, 2))
        logdet = sum_of_products(
            q, [(hess[i - 1][a][c] * i, b[n - i][c][a])
                for i in range(1, n) for a in range(q) for c in range(q)])
        self.ig.append(half - logdet)
        self.f.append(exp_coefficient(self.ig, self.f, n))
        shifted = sum_of_products(
            q, [(t, dpow[beta][n - j])
                for j, terms in enumerate(self.taylor, start=1)
                for beta, t in terms if sum(beta) <= n - j])
        out = self.f[n] - shifted
        if self.moments.expectation(out) != 0:
            raise AssertionError("correction polynomial must have zero Gaussian mean")
        self.s_tilde = out


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
    property of the output.  The same recursion as invert_S_map's.
    """
    k = len(potentials)
    if len(targets) != k:
        raise PerturbationError("need one target per potential")
    if k == 0:
        raise PerturbationError("empty input; the first correction is identically zero")
    rec = _Recursion(sigma, k + 1)
    for u, s in zip(potentials, targets):
        rec.level(u, s)
    return rec.s_tilde


def invert_S_map(Q: Sequence[Polynomial], sigma) -> GradientPolyMap:
    """Potentials whose gradient perturbation realizes target corrections.

    Solves the level-by-level recursion S~_k + L_Sigma u_k = Q_k with
    S~_1 = 0, in one pass of the balance recursion, and keeps each S~_k,
    grad u_k, L_Sigma u_k and the moment table on the map; Q and Sigma
    are rational.  Each level's L_Sigma u_k is built once, by the solve's
    residual check, and the right-hand side Q_k - S~_k it equals stands
    for it after that.
    """
    rec = _Recursion(sigma, len(Q))
    pots: List[Polynomial] = []
    s_tilde: List[Polynomial] = []
    for qk in Q:
        s_tilde.append(rec.s_tilde)
        rhs = qk - rec.s_tilde
        pots.append(solve_hermite_pde(rhs, sigma, rec.inv, rec.moments))
        rec.level(pots[-1], qk, rhs)
    return GradientPolyMap(sigma, pots, s_tilde, rec.grads, rec.l_sigma, rec.moments)


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
