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
from levyedge.perturbation import (
    GradientPolyMap,
    PerturbationError,
    apply_L,
    compute_S_tilde,
    invert_S_map,
    is_curl_free,
    pushforward_density_1d,
    solve_hermite_pde,
)
from levyedge.polycore import (
    Polynomial,
    gaussian_expectation,
    hermite_1d,
    hermite_sigma,
    rational_inverse,
)


def x(j, q=2):
    return Polynomial.variable(q, j)


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
        u1 = Fraction(1, 9) * hermite_1d(3).compose_affine([[1]])
        pmap = GradientPolyMap([[1]], [u1])
        pts = np.array([[0.5], [-1.2], [2.0]])
        eps = 0.1
        manual = pts[:, 0] + eps * (pts[:, 0] ** 2 - 1) / 3.0
        assert np.allclose(pmap.apply(eps, pts)[:, 0], manual, rtol=1e-14)

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
def ldl_cumulants(draw):
    """Rational cumulants with Sigma = L D L^T: L unit lower-triangular,
    D positive diagonal, so Sigma is positive definite and, in general,
    not diagonal."""
    q = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
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
