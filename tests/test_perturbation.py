"""Gradient perturbations of the normal law and the elliptic solve
-Delta u + x . Sigma^{-1} grad u = rhs behind them."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyedge.edgeworth import (
    CumulantSet,
    build_Q,
    edgeworth_signed_moments,
    multi_indices,
    scaled_sum_moments,
)
from levyedge import perturbation, polycore
from levyedge.perturbation import (
    GradientPolyMap,
    PerturbationError,
    _operator_matrix,
    apply_L,
    compute_S_tilde,
    invert_S_map,
    is_curl_free,
    pushforward_density_1d,
    solve_hermite_pde,
)
from levyedge.polycore import (
    EpsSeries,
    Polynomial,
    PolynomialError,
    gaussian_expectation,
    hermite_1d,
    hermite_sigma,
    rational_inverse,
    x_dot_inv_grad,
)


def x(j, q=2):
    return Polynomial.variable(q, j)


# -- the from-scratch expansion, kept as the reference for the recursion --


def x_dot_inv_grad_products(u: Polynomial, inv) -> Polynomial:
    """Reference x . Sigma^{-1} grad u: sum_ij (Sigma^{-1})_ij x_i d_j u by
    polynomial products."""
    q = u.dimension
    out = Polynomial.zero(q)
    for i in range(q):
        for j in range(q):
            if inv[i][j] != 0:
                out = out + x(i, q) * u.partial(j) * inv[i][j]
    return out


def series_sum(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    return EpsSeries([u + v for u, v in zip(a.coeffs, b.coeffs)], min(a.order, b.order))


def series_reciprocal(d: EpsSeries) -> EpsSeries:
    """1/d for d_0 = 1: R_n = -sum_(i=1..n) d_i R_(n-i), R_0 = 1."""
    out = [d[0]]
    for n in range(1, d.order + 1):
        acc = Polynomial.zero(d.dimension)
        for i in range(1, n + 1):
            acc = acc + d[i] * out[n - i]
        out.append(-acc)
    return EpsSeries(out, d.order)


def series_det(m, q: int) -> EpsSeries:
    """Cofactor expansion along the first column."""
    if q == 1:
        return m[0][0]
    total = None
    for i in range(q):
        minor = [[m[r][c] for c in range(1, q)] for r in range(q) if r != i]
        term = m[i][0] * series_det(minor, q - 1) * (-1) ** i
        total = term if total is None else series_sum(total, term)
    return total


def substitution_shift(S: Polynomial, displacement, order: int) -> EpsSeries:
    """S(x + sum_k eps^k U_k) by substituting the series x_j + sum_k eps^k U_k[j]
    for x_j in every monomial of S, with truncated series products."""
    q = S.dimension
    coords = [
        EpsSeries([x(j, q)] + [U[j] for U in displacement], order)
        for j in range(q)
    ]
    out = EpsSeries([Polynomial.zero(q)], order)
    for alpha, c in S.terms.items():
        term = EpsSeries([Polynomial.constant(q, c)], order)
        for j, e in enumerate(alpha):
            for _ in range(e):
                term = term * coords[j]
        out = series_sum(out, term)
    return out


def reference_S_tilde(potentials, targets, sigma) -> Polynomial:
    """S~_(k+1) from u_1..u_k and S_1..S_k by expanding
    phi(x) / [phi(y) det DY], y = x + sum_j eps^j grad u_j, from scratch:
    the exponential of the exponent, the cofactor determinant of
    I + sum_j eps^j Hess u_j and its reciprocal, and each S_j(y) by
    substitution; no lower level is checked."""
    sig = [[Fraction(v) for v in row] for row in sigma]
    q, k = len(sig), len(potentials)
    order = k + 1
    inv = rational_inverse(sig)
    grads = [u.gradient() for u in potentials]
    expo = [Polynomial.zero(q) for _ in range(order + 1)]
    for j, u in enumerate(potentials, start=1):
        expo[j] = expo[j] + x_dot_inv_grad_products(u, inv)
    for j1 in range(1, k + 1):
        for j2 in range(1, k + 1):
            if j1 + j2 <= order:
                for a in range(q):
                    for b in range(q):
                        cross = grads[j1 - 1][a] * grads[j2 - 1][b] * inv[a][b]
                        expo[j1 + j2] = expo[j1 + j2] + cross * Fraction(1, 2)
    hess = [
        [
            EpsSeries([Polynomial.constant(q, int(a == b))]
                      + [grads[j][a].partial(b) for j in range(k)], order)
            for b in range(q)
        ]
        for a in range(q)
    ]
    series = EpsSeries(expo, order).exp() * series_reciprocal(series_det(hess, q))
    out = series[order]
    for j, target in enumerate(targets, start=1):
        out = out - substitution_shift(target, grads, order - j)[order - j]
    return out


class TestSolver:
    def test_univariate_eigen_solve(self):
        # rhs = H3 has eigenvalue 3, so u = H3 / 3
        u = solve_hermite_pde(hermite_1d(3), [[1]])
        assert u == Fraction(1, 3) * hermite_1d(3)

    def test_mixed_eigen_solve(self):
        # lambda = (1, 2): H^Sigma_(2,1) has eigenvalue 2/1 + 1/2 = 5/2
        sig = [[1, 0], [0, 2]]
        g = hermite_sigma((2, 1), rational_inverse(sig))
        u = solve_hermite_pde(g, sig)
        assert u == Fraction(2, 5) * g

    def test_solution_has_zero_gaussian_mean(self):
        # H2 = x^2 - 1 has eigenvalue 2; the solution keeps its constant
        # term, since it is normalised to zero Gaussian mean
        u = solve_hermite_pde(hermite_1d(2), [[1]])
        assert u == Fraction(1, 2) * hermite_1d(2)
        assert u.constant_term() == Fraction(-1, 2)

    def test_correlated_covariance_solve(self):
        # x1 x2 under Sigma = [[2, 1], [1, 1]] (Sigma^{-1} = [[1, -1], [-1, 2]])
        sig = [[2, 1], [1, 1]]
        rhs = x(0) * x(1) - 1
        u = solve_hermite_pde(rhs, sig)
        assert (-apply_L(u, sig)) - rhs == Polynomial.zero(2)
        assert gaussian_expectation(u, sig) == 0
        assert all(isinstance(c, Fraction) for c in u.terms.values())

    def test_diagonal_sigma_solves_without_elimination(self, monkeypatch):
        # a diagonal Sigma^{-1} makes each degree's system diagonal: one
        # exact division per monomial, no Gauss-Jordan
        def no_elimination(*args):
            raise AssertionError("solve_linear called for a diagonal Sigma")

        monkeypatch.setattr(perturbation, "solve_linear", no_elimination)
        sig = [[2, 0], [0, Fraction(1, 3)]]
        rhs = x(0) ** 3 * x(1) - Fraction(5, 2) * x(0) * x(1) ** 2 + x(1) ** 2 + 7 * x(0)
        rhs = rhs - gaussian_expectation(rhs, sig)
        u = solve_hermite_pde(rhs, sig)
        assert (-apply_L(u, sig)) - rhs == Polynomial.zero(2)
        assert gaussian_expectation(u, sig) == 0

    def test_invert_S_map_inverts_sigma_once(self, monkeypatch):
        # one Sigma^{-1} and moment table serve every level's solve, and a
        # table passed in serves them all, with no new table or inverse
        c = CumulantSet(2, 5, {(2, 0): 1, (0, 2): 2, (1, 1): Fraction(1, 2), (3, 0): 1,
                               (1, 2): Fraction(-1, 3), (4, 0): 2, (0, 5): Fraction(1, 7)})
        Q = build_Q(c, 3)
        made = []
        real_inverse, real_init = polycore.rational_inverse, polycore.GaussianMoments.__init__
        monkeypatch.setattr(polycore, "rational_inverse",
                            lambda s: made.append("inverse") or real_inverse(s))
        monkeypatch.setattr(polycore.GaussianMoments, "__init__",
                            lambda table, s: made.append("moments") or real_init(table, s))
        pmap = invert_S_map(Q, c.covariance)
        assert len(pmap.potentials) == 3
        assert sorted(made) == ["inverse", "moments"]
        made.clear()
        reused = invert_S_map(Q, c.gaussian)  # build_Q read c.gaussian.inv already
        assert made == []
        assert reused.potentials == pmap.potentials

    def test_nonzero_mean_rejected(self):
        with pytest.raises(PerturbationError):
            solve_hermite_pde(Polynomial.constant(1, 1), [[1]])

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_random_rational_residual_exact(self, seed):
        # oracle-free self-check: apply_L inverts the solve exactly
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 3))
        sig = [[Fraction(int(rng.integers(1, 4))) if i == j else 0 for j in range(q)] for i in range(q)]
        rhs = Polynomial.zero(q)
        for total in range(1, 5):
            for alpha in multi_indices(q, total):
                c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                rhs = rhs + c * Polynomial(q, {alpha: Fraction(1)})
        rhs = rhs - gaussian_expectation(rhs, sig)
        u = solve_hermite_pde(rhs, sig)
        assert (-apply_L(u, sig)) - rhs == Polynomial.zero(q)


class TestWorkedCubicSolve:
    MU = {
        (2, 0): Fraction(1), (0, 2): Fraction(1), (1, 1): Fraction(0),
        (3, 0): Fraction(3), (2, 1): Fraction(6),
        (1, 2): Fraction(4), (0, 3): Fraction(4),
    }

    def eigen_u1(self):
        # cubic rhs built from third cumulants: every term is an eigen-
        # function of degree 3 with eigenvalue 3, so u1 = Q1 / 3
        c = CumulantSet(2, 3, self.MU)
        (q1,) = build_Q(c, 1)
        return Fraction(1, 3) * q1

    def test_cubic_solution_identity(self):
        c = CumulantSet(2, 3, self.MU)
        (q1,) = build_Q(c, 1)
        u1 = solve_hermite_pde(q1, [[1, 0], [0, 1]])
        assert u1 == self.eigen_u1()

    @pytest.mark.xfail(
        strict=True,
        reason="adding first-degree terms to the cubic solution breaks the "
        "defining equation: H1 is an eigenfunction with eigenvalue 1, not a "
        "kernel element",
    )
    def test_first_degree_augmented_variant_solves_pde(self):
        mu = self.MU
        c = CumulantSet(2, 3, mu)
        (q1,) = build_Q(c, 1)
        variant = self.eigen_u1() \
            + Fraction(1, 3) * (mu[(3, 0)] + mu[(1, 2)]) * x(0) \
            + Fraction(1, 3) * (mu[(0, 3)] + mu[(2, 1)]) * x(1)
        assert (-apply_L(variant, [[1, 0], [0, 1]])) == q1


class TestGradientMap:
    def test_curl_free_detection(self):
        U = [x(1), x(0)]            # gradient of x1 x2
        V = [x(1), -x(0)]           # rotational field
        assert is_curl_free(U)
        assert not is_curl_free(V)

    def test_apply_matches_displacement(self):
        # u_1 = H_3 / 9 has grad u_1 = (x^2 - 1) / 3, exactly
        u1 = Fraction(1, 9) * hermite_1d(3).compose_affine([[1]])
        pmap = GradientPolyMap([[1]], [u1])
        assert pmap.gradients == [[Fraction(1, 3) * (x(0, 1) ** 2 - 1)]]
        pts = np.array([[0.5], [-1.2], [2.0]])
        eps = 0.1
        manual = pts[:, 0] + eps * (pts[:, 0] ** 2 - 1) / 3.0
        mapped = pts[:, 0] + pmap.gradients[0][0](pts) * eps
        assert np.allclose(mapped, manual, rtol=1e-14)

    def test_degree_cap_enforced(self):
        with pytest.raises(PerturbationError):
            GradientPolyMap([[1]], [hermite_1d(4) + hermite_1d(3)])


class TestSeriesCorrection:
    def test_next_correction_zero_mean(self):
        c = CumulantSet(1, 3, {(2,): Fraction(1), (3,): Fraction(2)})
        (q1,) = build_Q(c, 1)
        u1 = solve_hermite_pde(q1, [[1]])
        s2 = compute_S_tilde([u1], [q1], [[1]])
        assert gaussian_expectation(s2, [[1]]) == 0

    def test_inconsistent_potentials_rejected(self):
        c = CumulantSet(1, 3, {(2,): Fraction(1), (3,): Fraction(2)})
        (q1,) = build_Q(c, 1)
        wrong = Fraction(1, 2) * hermite_1d(3)  # not the solution
        with pytest.raises(PerturbationError):
            compute_S_tilde([wrong], [q1], [[1]])

    def test_invert_map_diagonal_vs_rotated(self):
        # a non-diagonal covariance is handled by diagonalizing; for a
        # diagonal input both paths must agree exactly
        mu = {
            (2, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(0),
            (3, 0): Fraction(1, 2), (2, 1): Fraction(0),
            (1, 2): Fraction(0), (0, 3): Fraction(1),
        }
        c = CumulantSet(2, 3, mu)
        Q = build_Q(c, 1)
        pmap = invert_S_map(Q, c.covariance)
        u1 = pmap.potentials[0]
        assert (-apply_L(u1, c.covariance)) - Q[0] == Polynomial.zero(2)


@st.composite
def ldl_cumulants(draw, max_r=2):
    """Rational cumulants with Sigma = L D L^T: L unit lower-triangular,
    D positive diagonal, so Sigma is positive definite and, in general,
    not diagonal."""
    q = draw(st.integers(1, 3))
    r = draw(st.integers(1, max_r))
    small = st.fractions(-2, 2, max_denominator=3)
    L = [[Fraction(int(i == j)) if j >= i else draw(small) for j in range(q)] for i in range(q)]
    D = [draw(st.fractions(Fraction(1, 2), 3, max_denominator=4)) for _ in range(q)]
    mu = {}
    for total in range(3, r + 3):
        for alpha in multi_indices(q, total):
            mu[alpha] = draw(small)
    for i in range(q):
        for j in range(q):
            e = [0] * q
            e[i] += 1
            e[j] += 1
            mu[tuple(e)] = sum(L[i][k] * D[k] * L[j][k] for k in range(q))
    return CumulantSet(q, r + 2, mu), r


class TestGeneralCovariance:
    @given(ldl_cumulants())
    @settings(deadline=None, max_examples=20)
    def test_exact_build_for_general_covariance(self, case):
        c, r = case
        sig = c.covariance
        Q = build_Q(c, r)
        pmap = invert_S_map(Q, sig)
        for k, u in enumerate(pmap.potentials):
            assert all(isinstance(v, Fraction) for v in u.terms.values())
            s_tilde = compute_S_tilde(pmap.potentials[:k], Q[:k], sig) if k else 0
            assert (apply_L(u, sig) + Q[k] - s_tilde).is_zero()
        eps = Fraction(1, 3)
        assert edgeworth_signed_moments(c, Q, eps, r + 2) == scaled_sum_moments(c, 9, r + 2)


class TestClosedFormOperator:
    @given(ldl_cumulants())
    @settings(deadline=None, max_examples=30)
    def test_x_dot_inv_grad_equals_product_form(self, case):
        c, _ = case
        q = c.dimension
        inv = rational_inverse(c.covariance)
        u = Polynomial(q, {alpha: Fraction(len(alpha) + sum(alpha) * k, 7)
                           for k, alpha in enumerate(
                               a for d in range(5) for a in multi_indices(q, d))})
        for p in (u, hermite_sigma((1,) * q, inv), Polynomial.zero(q)):
            got = x_dot_inv_grad(p, inv)
            assert got == x_dot_inv_grad_products(p, inv)
            assert all(type(v) is Fraction for v in got.terms.values())

    def test_x_dot_inv_grad_float_inverse(self):
        u = x(0) ** 3 * x(1) + Fraction(1, 3) * x(1) ** 2 - x(0)
        for inv in ([[0.75, -0.25], [-0.25, 0.5]], np.array([[3, -1], [-1, 2]]) / 4):
            with pytest.raises(PolynomialError, match="rational"):
                x_dot_inv_grad(u, inv)

    @given(ldl_cumulants(), st.integers(1, 5))
    @settings(deadline=None, max_examples=30)
    def test_operator_matrix_equals_per_monomial_build(self, case, d):
        c, _ = case
        q = c.dimension
        inv = rational_inverse(c.covariance)
        monos = list(multi_indices(q, d))
        cols = [x_dot_inv_grad_products(Polynomial(q, {beta: 1}), inv) for beta in monos]
        assert _operator_matrix(monos, inv) == [[col.coefficient(a) for col in cols] for a in monos]


class TestRecursionReference:
    """The one-pass recursion against the from-scratch expansion."""

    @given(ldl_cumulants(max_r=3))
    @settings(deadline=None, max_examples=25)
    def test_s_tilde_equals_expansion(self, case):
        c, r = case
        sig = c.covariance
        Q = build_Q(c, r)
        pmap = invert_S_map(Q, sig)
        assert pmap.s_tilde[0] == Polynomial.zero(c.dimension)
        for k in range(1, r):
            want = reference_S_tilde(pmap.potentials[:k], Q[:k], sig)
            assert pmap.s_tilde[k] == want
            assert compute_S_tilde(pmap.potentials[:k], Q[:k], sig) == want
            assert all(type(v) is Fraction for v in want.terms.values())

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_perturbed_potential_names_its_level(self, level):
        mu = {(2,): Fraction(1), (3,): Fraction(2), (4,): Fraction(-1), (5,): Fraction(1, 2)}
        c = CumulantSet(1, 5, mu)
        Q = build_Q(c, 3)
        pots = list(invert_S_map(Q, [[1]]).potentials)
        pots[level - 1] = pots[level - 1] + Fraction(1, 1000) * hermite_1d(2)
        with pytest.raises(PerturbationError, match=f"inconsistent inputs at level {level}"):
            compute_S_tilde(pots, Q, [[1]])


class TestPushforward:
    def test_linear_map_gives_scaled_gaussian(self):
        # u = x^2/2 makes the map x -> (1+eps) x; the pushforward of
        # N(0,1) is N(0, (1+eps)^2)
        u = Polynomial(1, {(2,): Fraction(1, 2)})
        eps = 0.25
        ys = np.linspace(-3, 3, 41)
        got = pushforward_density_1d(u, eps, ys)
        s = 1.0 + eps
        want = np.exp(-ys ** 2 / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        assert np.allclose(got, want, rtol=1e-10)

    def test_density_integrates_to_one(self):
        u = Fraction(1, 9) * hermite_1d(3)
        ys = np.linspace(-8, 8, 3201)
        got = pushforward_density_1d(u, 0.05, ys)
        assert np.trapezoid(got, ys) == pytest.approx(1.0, abs=1e-7)
