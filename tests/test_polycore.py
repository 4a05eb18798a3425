"""Exact-arithmetic core: polynomials, Hermite bases, Gaussian moments,
formal power series in the expansion parameter."""

import itertools
import math
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from levyedge import polycore
from levyedge.perturbation import invert_S_map
from levyedge.polycore import (
    MAX_DEGREE,
    MAX_EXPONENT,
    EpsSeries,
    GaussianMoments,
    Polynomial,
    PolynomialError,
    diagonal_degree_solve,
    gaussian_expectation,
    gaussian_moment,
    grlex_key,
    hermite_1d,
    hermite_sigma,
    hermite_sum,
    multi_indices,
    positive_definite,
    rational_inverse,
    solve_linear,
    sum_of_products,
    taylor_terms,
    x_dot_inv_grad,
)


def x(j, q=2):
    return Polynomial.variable(q, j)


def isserlis(indices: tuple, sigma) -> Fraction:
    """Reference E[x_i1 ... x_in] under N(0, sigma) by recursive pairing:
    the first index pairs with each other one in turn (Isserlis)."""
    if not indices:
        return Fraction(1)
    if len(indices) % 2:
        return Fraction(0)
    first, rest = indices[0], indices[1:]
    total = Fraction(0)
    for pos in range(len(rest)):
        cov = sigma[first][rest[pos]]
        if cov != 0:
            total = total + cov * isserlis(rest[:pos] + rest[pos + 1:], sigma)
    return total


def pairwise_product(p: Polynomial, r: Polynomial) -> dict:
    """Reference product terms: one coefficient product per pair of
    terms, summed in pair order, zero sums dropped."""
    terms = {}
    for a1, c1 in p.terms.items():
        for a2, c2 in r.terms.items():
            key = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {a: c for a, c in terms.items() if c}


def series(q: int, coeffs, order: int) -> EpsSeries:
    """The series sum_k eps^k c_k from scalars or polynomials c_k."""
    return EpsSeries([c if isinstance(c, Polynomial) else Polynomial.constant(q, c)
                      for c in coeffs], order)


def series_sum(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    return EpsSeries([u + v for u, v in zip(a.coeffs, b.coeffs)], min(a.order, b.order))


def series_exp_by_powers(s: EpsSeries) -> EpsSeries:
    """Reference exp: sum_k s^k / k! by repeated series products."""
    one = series(s.dimension, [1], s.order)
    out, term = one, one
    for k in range(1, s.order + 1):
        term = term * s * Fraction(1, k)
        out = series_sum(out, term)
    return out


def series_reciprocal_by_powers(s: EpsSeries) -> EpsSeries:
    """Reference 1/s: sum_k (1 - s)^k by repeated series products."""
    one = series(s.dimension, [1], s.order)
    v = series_sum(one, s * -1)
    out, term = one, one
    for _ in range(1, s.order + 1):
        term = term * v
        out = series_sum(out, term)
    return out


def reference_hermite(alpha: tuple, inv, memo: dict) -> Polynomial:
    """H^Sigma_alpha by the product form y_j H_(alpha-e_j) - d_j H_(alpha-e_j),
    y_j = (Sigma^(-1) x)_j, with the subtraction written as a + (-b)."""
    if alpha not in memo:
        q = len(alpha)
        j = next((i for i, a in enumerate(alpha) if a), None)
        if j is None:
            memo[alpha] = Polynomial.constant(q, Fraction(1))
        else:
            h = reference_hermite(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:], inv, memo)
            y_j = Polynomial(q, {tuple(int(k == i) for k in range(q)): inv[j][i] for i in range(q)})
            memo[alpha] = y_j * h + (-h.partial(j))
    return memo[alpha]


def term_by_term(table: GaussianMoments, p: Polynomial, alpha: tuple):
    """E[x^alpha p(x)] summed over the terms of p in order, as one
    Fraction operation per term."""
    total = Fraction(0)
    for beta, c in p.terms.items():
        m = table(tuple(map(add, alpha, beta)))
        if m != 0:
            total = total + c * m
    return total


RATIONALS = st.fractions(-5, 5, max_denominator=12)


@st.composite
def polynomials(draw, q, max_degree, coeffs=RATIONALS, max_terms=6):
    """A polynomial in q variables with up to max_terms terms of total
    degree <= max_degree."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        left, alpha = draw(st.integers(0, max_degree)), []
        for _ in range(q):
            alpha.append(draw(st.integers(0, left)))
            left -= alpha[-1]
        terms[tuple(alpha)] = draw(coeffs)
    return Polynomial(q, terms)


@st.composite
def product_case(draw):
    """Two rational polynomials in q <= 6 variables."""
    q = draw(st.integers(1, 6))
    return draw(polynomials(q, 6)), draw(polynomials(q, 6))


@st.composite
def sum_case(draw):
    """q <= 6 and 0-4 pairs of rational polynomials in q variables."""
    q = draw(st.integers(1, 6))
    pairs = [(draw(polynomials(q, 4)), draw(polynomials(q, 4)))
             for _ in range(draw(st.integers(0, 4)))]
    return q, pairs


@st.composite
def series_case(draw):
    """A rational series in q <= 2 variables with zero order-0 coefficient."""
    q = draw(st.integers(1, 2))
    order = draw(st.integers(0, 4))
    coeffs = [Polynomial.zero(q)] + [draw(polynomials(q, 2, max_terms=3)) for _ in range(order)]
    return EpsSeries(coeffs, order)


@st.composite
def ldl_moment_case(draw):
    """A rational Sigma = L D L^T (L unit lower-triangular, D positive
    diagonal), q <= 4, and a few exponent tuples with |gamma| <= 8."""
    q = draw(st.integers(1, 4))
    small = st.fractions(-2, 2, max_denominator=3)
    L = [[Fraction(int(i == j)) if j >= i else draw(small) for j in range(q)] for i in range(q)]
    D = [draw(st.fractions(Fraction(1, 2), 3, max_denominator=4)) for _ in range(q)]
    sigma = [[sum(L[i][k] * D[k] * L[j][k] for k in range(q)) for j in range(q)] for i in range(q)]
    gammas = []
    for _ in range(draw(st.integers(1, 4))):
        left, gamma = draw(st.integers(0, 8)), []
        for _ in range(q):
            gamma.append(draw(st.integers(0, left)))
            left -= gamma[-1]
        gammas.append(tuple(gamma))
    return sigma, gammas


@st.composite
def expectation_case(draw):
    """A rational Sigma = L D L^T, q <= 6, non-diagonal when q > 1 (every
    entry of L below the diagonal nonzero) and with an entry whose
    denominator is not 1; a rational polynomial of degree <= 5 and a few
    exponent tuples alpha with |alpha| <= 3 (degree <= 3 and |alpha| <= 2
    for q > 3)."""
    q = draw(st.integers(1, 6))
    small = q > 3
    below = st.fractions(-2, 2, max_denominator=3).filter(bool)
    L = [[Fraction(int(i == j)) if j >= i else draw(below) for j in range(q)] for i in range(q)]
    D = [draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(2)]))
         for _ in range(q)]
    sigma = [[sum(L[i][k] * D[k] * L[j][k] for k in range(q)) for j in range(q)] for i in range(q)]
    assume(any(c.denominator > 1 for row in sigma for c in row))
    alphas = []
    for _ in range(draw(st.integers(1, 4))):
        left, alpha = draw(st.integers(0, 2 if small else 3)), []
        for _ in range(q):
            alpha.append(draw(st.integers(0, left)))
            left -= alpha[-1]
        alphas.append(tuple(alpha))
    return sigma, draw(polynomials(q, 3 if small else 5)), alphas


class TestPolynomial:
    def test_arithmetic_exact(self):
        p = x(0) * x(0) - 2 * Fraction(1, 3) * x(1) + 5
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((0, 1)) == Fraction(-2, 3)
        assert p.constant_term() == 5

    def test_partial_and_laplacian(self):
        p = x(0) ** 3 * x(1) + x(1) ** 2
        assert p.partial(0) == 3 * x(0) ** 2 * x(1)
        assert p.laplacian() == 6 * x(0) * x(1) + Polynomial.constant(2, 2)

    def test_call_vectorized(self):
        p = x(0) ** 2 + x(1)
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.allclose(p(pts), [3.0, 8.0])

    def test_compose_affine_rotation(self):
        # p(Ax) for a 90-degree rotation swaps the variables up to sign:
        # Ax = (-x2, x1), so x1^2 - x2 becomes x2^2 - x1
        p = x(0) ** 2 - x(1)
        A = [[0, -1], [1, 0]]
        assert p.compose_affine(A) == x(1) ** 2 - x(0)

    def test_public_constructor_checks(self):
        for dim, terms in [(2, {(1,): 1}), (2, {(1, -1): 1}), (1, {(1,): "a"})]:
            with pytest.raises(PolynomialError):
                Polynomial(dim, terms)
        for c in (0.5, 0.0, np.float32(0.5), np.float64(2.0)):
            with pytest.raises(PolynomialError, match="rational"):
                Polynomial(1, {(1,): c})
        assert Polynomial(2, {(1, 0): 0, (0, 1): Fraction(0), (2, 0): 5}).terms == {(2, 0): 5}
        p = Polynomial(1, {(np.int64(2),): np.int64(3), (1,): Fraction(1, 2)})
        assert list(p.terms) == [(2,), (1,)]
        assert all(type(e) is int for alpha in p.terms for e in alpha)
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p.terms == {(2,): 3, (1,): Fraction(1, 2)}

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_evaluate_exact_matches_float(self, a, b):
        p = 3 * x(0) ** 2 * x(1) - Fraction(1, 2) * x(1) ** 3 + 7
        exact = p.evaluate_exact([a, b])
        assert float(exact) == pytest.approx(p(np.array([a, b], dtype=float)))


    def test_equal_polynomials_compare_and_hash_alike(self):
        # one canonical form however the coefficients were reached
        p = x(0) * Fraction(2, 3) + x(1) * Fraction(1, 6)
        q = (x(0) * 4 + x(1)) * Fraction(1, 6)
        assert p == q and hash(p) == hash(q)
        assert p * 6 - x(1) == 4 * x(0)
        half = Polynomial(2, {(1, 0): Fraction(2, 4)})
        assert half == Fraction(1, 2) * x(0) and hash(half) == hash(Fraction(1, 2) * x(0))
        with pytest.raises(PolynomialError, match="rational"):
            x(0) * 0.5  # no float polynomial to compare
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = 1  # a read-only view

    @given(polynomials(3, 5), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_evaluate_into_equals_call(self, p, seed):
        # the same floats bit for bit, on the strided columns of a sample
        xs = np.random.default_rng(seed).standard_normal((257, 3)) * 3
        want = p(xs)
        got = np.empty(257)
        assert p.evaluate_into(xs, got, np.empty(257), np.empty(257)) is got
        assert want.tobytes() == got.tobytes()

    @given(product_case())
    @settings(deadline=None, max_examples=200)
    def test_product_equals_pairwise_reference(self, case):
        p, r = case
        got = p * r
        want = pairwise_product(p, r)
        assert got.terms == want
        assert list(got.terms.items()) == list(want.items())  # same dict order
        assert all(type(c) is type(want[a]) for a, c in got.terms.items())

    @given(product_case(), st.sampled_from([None, 3, Fraction(-1, 2), Fraction(1, 4)]))
    @settings(deadline=None, max_examples=200)
    def test_sub_equals_add_negated(self, case, scalar):
        # one dict pass gives the terms, the order and the coefficient
        # types of a + (-b)
        a, b = case
        if scalar is not None:
            b = scalar
        got, want = a - b, a + (-b)
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is type(want.terms[k]) for k, c in got.terms.items())
        with pytest.raises(PolynomialError, match="dimension mismatch"):
            a - x(0, q=a.dimension + 1)

    def test_product_cancellation_and_zero(self):
        p = (x(0) + x(1)) * (x(0) - x(1))  # the x1 x2 terms cancel
        assert list(p.terms.items()) == [((2, 0), 1), ((0, 2), -1)]
        assert list(p.terms) == list(pairwise_product(x(0) + x(1), x(0) - x(1)))
        half = Fraction(1, 2) * x(0) - Fraction(1, 3) * x(1)
        assert (half * (3 * x(0) + 2 * x(1))).terms == {(2, 0): Fraction(3, 2), (0, 2): Fraction(-2, 3)}
        for zero in (Polynomial.zero(2), x(0) * 0, x(0) * Fraction(0)):
            assert (zero * half).is_zero() and (half * zero).is_zero()
        with pytest.raises(PolynomialError, match="rational"):
            x(0) * 0.0

    def test_product_degree_cap_and_dimension(self):
        low = x(0) ** (MAX_DEGREE // 2)
        assert (low * low).degree() == MAX_DEGREE
        for a, b in [(low * x(0), low), (low * Fraction(1, 2) * x(1), low * x(0))]:
            with pytest.raises(PolynomialError, match="degree exceeds cap"):
                a * b
        with pytest.raises(PolynomialError, match="dimension mismatch"):
            x(0) * x(0, q=3)


class TestHermite:
    def test_first_polynomials(self):
        # probabilists' convention: H0=1, H1=x, H2=x^2-1, H3=x^3-3x, H4=x^4-6x^2+3
        y = Polynomial.variable(1, 0)
        assert hermite_1d(0) == Polynomial.constant(1, 1)
        assert hermite_1d(1) == y
        assert hermite_1d(2) == y ** 2 - 1
        assert hermite_1d(3) == y ** 3 - 3 * y
        assert hermite_1d(4) == y ** 4 - 6 * y ** 2 + 3

    @given(st.integers(1, 8))
    def test_derivative_identity(self, j):
        # H_j' = j H_{j-1}
        assert hermite_1d(j).partial(0) == j * hermite_1d(j - 1)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(deadline=None)
    def test_orthogonality_standard_gaussian(self, i, j):
        # E[H_i(Z) H_j(Z)] = i! [i == j]
        hi, hj = hermite_sigma((i,), [[1]]), hermite_sigma((j,), [[1]])
        assert hi == hermite_1d(i)
        val = gaussian_expectation(hi * hj, [[1]])
        assert val == (math.factorial(i) if i == j else 0)

    def test_tensor_scaled_orthogonality(self):
        # for Sigma = diag(lam) the squared norm is alpha! * prod(lam^-alpha)
        sig = [[1, 0], [0, 3]]
        inv = rational_inverse(sig)
        a, b = (2, 1), (2, 1)
        ga = hermite_sigma(a, inv)
        gb = hermite_sigma(b, inv)
        assert gaussian_expectation(ga * gb, sig) == Fraction(2, 3)  # 2! 1! * 1^-2 3^-1
        gc = hermite_sigma((1, 2), inv)
        assert gaussian_expectation(ga * gc, sig) == 0

    def test_tensor_eigenfunction(self):
        # -Delta g + x . Sigma^{-1} grad g = (sum alpha_j / lambda_j) g
        lam = [Fraction(2), Fraction(5)]
        sig = [[2, 0], [0, 5]]
        alpha = (3, 2)
        g = hermite_sigma(alpha, rational_inverse(sig))
        lhs = -g.laplacian() + sum(
            Fraction(1, l) * Polynomial.variable(2, j) * g.partial(j)
            for j, l in enumerate(lam)
        )
        nu = Fraction(3, 2) + Fraction(2, 5)
        assert lhs == nu * g

    def test_sigma_hermite_is_gaussian_derivative(self):
        # H^Sigma_alpha phi_Sigma = (-d)^alpha phi_Sigma for a correlated
        # Sigma: the first two orders from grad phi = -phi Sigma^{-1} x
        sig = [[2, 1], [1, 1]]
        inv = rational_inverse(sig)
        assert inv == [[1, -1], [-1, 2]]
        y1 = x(0) - x(1)                     # (Sigma^{-1} x)_1
        y2 = -x(0) + 2 * x(1)                # (Sigma^{-1} x)_2
        assert hermite_sigma((1, 0), inv) == y1
        assert hermite_sigma((1, 1), inv) == y1 * y2 + 1  # minus d_2 y1 = -(-1)
        assert hermite_sigma((0, 2), inv) == y2 * y2 - 2


    @pytest.mark.parametrize("inv", [
        [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]],
        [[1, 1], [1, -1]],
        rational_inverse([[2, 1, 0], [1, 2, Fraction(1, 2)], [0, Fraction(1, 2), 1]]),
        [[Fraction(1, 2), Fraction(-1, 4)], [Fraction(-1, 4), 1]],
        [[1, Fraction(1, 2), 0], [Fraction(1, 2), 2, Fraction(-1, 4)],
         [0, Fraction(-1, 4), Fraction(3, 2)]],
    ])
    def test_fused_step_keeps_reference_order(self, inv):
        # non-diagonal rational Sigma^(-1): the same terms in the same dict
        # order as the product form, which __call__ sums in that order
        q = len(inv)
        memo, ref = {}, {}
        for d in range(7 if q == 2 else 5):
            for alpha in itertools.product(range(d + 1), repeat=q):
                if sum(alpha) == d:
                    got, want = hermite_sigma(alpha, inv, memo), reference_hermite(alpha, inv, ref)
                    assert list(got.terms.items()) == list(want.terms.items())
                    assert all(type(c) is type(want.terms[a]) for a, c in got.terms.items())

    def test_fused_step_cancelled_product_term(self):
        # with Sigma^(-1) = [[1, 1], [1, -1]], y_1 H_(0,3) cancels at x1 x2,
        # and d_1 H_(0,3) brings that monomial back: it goes after the
        # product's terms, as in the product form
        inv = [[1, 1], [1, -1]]
        h = hermite_sigma((0, 3), inv)
        raw: dict = {}
        for a1 in [(1, 0), (0, 1)]:
            for a2, c in h.terms.items():
                key = tuple(map(add, a1, a2))
                raw[key] = raw.get(key, 0) + c
        assert raw[(1, 1)] == 0 and (1, 1) in h.partial(0).terms
        got = hermite_sigma((1, 3), inv)
        assert list(got.terms) == list(reference_hermite((1, 3), inv, {}).terms)
        order = list(got.terms)
        assert all(order.index((1, 1)) > order.index(k) for k, v in raw.items() if v and k in order)

    def test_hermite_degree_cap(self):
        with pytest.raises(PolynomialError, match="degree exceeds cap"):
            hermite_sigma((MAX_DEGREE + 1,), [[1]])


class TestLinearSolve:
    def test_exact_inverse_with_row_swaps(self):
        mat = [[0, 2, 1], [1, 1, 0], [Fraction(1, 2), 0, 3]]
        inv = rational_inverse(mat)
        assert all(isinstance(v, Fraction) for row in inv for v in row)
        prod = [[sum(mat[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert prod == [[int(i == j) for j in range(3)] for i in range(3)]

    def test_singular_rejected(self):
        with pytest.raises(PolynomialError):
            rational_inverse([[1, 2], [2, 4]])


class TestPositiveDefinite:
    @pytest.mark.parametrize("mat", [
        [[Fraction(1, 10**400)]],  # 0.0 as a float
        [[1, 0], [0, Fraction(1, 10**11)]],  # condition number 1e11
        [[2, 1], [1, 1]],
        [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    ])
    def test_definite(self, mat):
        assert positive_definite(mat) and positive_definite(mat, semi=True)

    @pytest.mark.parametrize("mat", [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],  # a zero first pivot eliminates nothing
        [[1, 1], [1, 1]],
        [[0]],
    ])
    def test_semi_definite(self, mat):
        assert not positive_definite(mat) and positive_definite(mat, semi=True)

    @pytest.mark.parametrize("mat", [
        [[0, 1], [1, 0]],  # zero pivots, but the minor is -1
        [[1, 2], [2, 1]],
        [[-Fraction(1, 10**400)]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # second pivot 0, column below it not
    ])
    def test_indefinite(self, mat):
        assert not positive_definite(mat) and not positive_definite(mat, semi=True)

    def test_float_rejected(self):
        with pytest.raises(PolynomialError, match="rational"):
            positive_definite([[1.0]])


class TestGaussianMoments:
    def test_univariate_even_moments(self):
        # E Z^{2k} = (2k-1)!!
        assert gaussian_moment((2,), [[1]]) == 1
        assert gaussian_moment((4,), [[1]]) == 3
        assert gaussian_moment((6,), [[1]]) == 15
        assert gaussian_moment((8,), [[1]]) == 105
        assert gaussian_moment((3,), [[1]]) == 0

    def test_correlated_pair(self):
        # E[X^2 Y^2] = s11 s22 + 2 s12^2 (Isserlis)
        sig = [[2, 1], [1, 3]]
        assert gaussian_moment((2, 2), sig) == 2 * 3 + 2 * 1

    def test_monte_carlo_cross_check(self):
        # independent stochastic oracle for a degree-6 mixed moment
        sig = np.array([[1.0, 0.5], [0.5, 2.0]])
        exact = float(gaussian_moment((4, 2), [[1, Fraction(1, 2)], [Fraction(1, 2), 2]]))
        rng = np.random.default_rng(42)
        z = rng.multivariate_normal([0, 0], sig, size=2_000_000)
        mc = float(np.mean(z[:, 0] ** 4 * z[:, 1] ** 2))
        assert mc == pytest.approx(exact, rel=0.02)

    @given(ldl_moment_case())
    @settings(deadline=None, max_examples=60)
    def test_table_equals_isserlis_pairing(self, case):
        sigma, gammas = case
        table = GaussianMoments(sigma)
        for gamma in gammas:
            m = table(gamma)
            indices = tuple(j for j, a in enumerate(gamma) for _ in range(a))
            assert type(m) is Fraction and m == isserlis(indices, sigma)
            if sum(gamma) % 2:
                assert m == 0

    @given(expectation_case())
    @settings(deadline=None, max_examples=80)
    def test_expectations_equal_pairing_reference(self, case):
        # the integer-numerator sums against E[x^(alpha+beta)] by Isserlis
        # pairing, one exact Fraction per requested moment
        sigma, p, alphas = case
        table = GaussianMoments(sigma)

        def ref(alpha):
            total = Fraction(0)
            for beta, c in p.terms.items():
                gamma = tuple(map(add, alpha, beta))
                total += c * isserlis(tuple(j for j, a in enumerate(gamma) for _ in range(a)), sigma)
            return total

        got = table.expectations(p, alphas)
        assert got == [ref(a) for a in alphas]
        assert got == [term_by_term(table, p, a) for a in alphas]
        assert all(type(v) is Fraction for v in got)
        assert table.expectation(p) == gaussian_expectation(p, sigma) == ref((0,) * len(sigma))

    def test_expectation_checks_sigma_once(self, monkeypatch):
        # one symmetry and definiteness check per call, not one per monomial
        calls = []
        monkeypatch.setattr(polycore, "positive_definite",
                            lambda *a, **k: calls.append(1) or positive_definite(*a, **k))
        p = x(0) ** 4 + x(0) * x(1) ** 3 + x(1) ** 2 + 1
        assert gaussian_expectation(p, [[1, 0], [0, 1]]) == 3 + 1 + 1
        assert len(calls) == 1
        with pytest.raises(PolynomialError, match="symmetric"):
            gaussian_expectation(p, [[1, 1], [0, 1]])
        with pytest.raises(PolynomialError, match="positive semi-definite"):
            gaussian_expectation(p, [[1, 2], [2, 1]])
        # the table's dimension is len(sigma); a sigma of another shape is refused
        with pytest.raises(PolynomialError, match="square"):
            gaussian_expectation(p, [[1, 0], [0]])
        with pytest.raises(PolynomialError, match="dimension mismatch"):
            gaussian_expectation(p, [[1]])
        with pytest.raises(PolynomialError, match="dimension mismatch"):
            gaussian_expectation(p, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_gaussian_expectation_linear(self):
        p = 3 * x(0) ** 2 + x(0) * x(1) - 4
        sig = [[1, Fraction(1, 4)], [Fraction(1, 4), 1]]
        assert gaussian_expectation(p, sig) == 3 + Fraction(1, 4) - 4


class TestSumOfProducts:
    @given(sum_case(), st.sampled_from([1, Fraction(-2, 3), Fraction(1, 2)]))
    @settings(deadline=None, max_examples=150)
    def test_equals_sum_of_products(self, case, scale):
        q, cases = case
        got = sum_of_products(q, cases, scale)
        want = Polynomial.zero(q)
        for a, b in cases:
            want = want + a * b
        assert got == want * scale
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_one_fraction_per_term_in_lowest_terms(self):
        a = Fraction(1, 6) * x(0) + Fraction(1, 4) * x(1)
        b = Fraction(3, 10) * x(0) - Fraction(2, 9)
        got = sum_of_products(2, [(a, b), (b, a), (x(1), Fraction(5, 12))])
        assert got == a * b * 2 + x(1) * Fraction(5, 12)
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_cancellation_and_empty_sum(self):
        a, b = x(0) + Fraction(1, 3) * x(1), x(0) * x(1) - 2
        assert sum_of_products(2, [(a, b), (a, b * -1)]).terms == {}
        assert sum_of_products(2, [(a, b), (b * -1, a)]).is_zero()
        assert sum_of_products(2, []) == Polynomial.zero(2)
        assert sum_of_products(2, [(Polynomial.zero(2), a), (a, 0), (a, Fraction(0))]).is_zero()
        # the x1 x2 terms cancel across the two pairs, the rest stays
        got = sum_of_products(2, [(x(0), x(1)), (x(1), x(0) * -1 + x(1))])
        assert got.terms == {(0, 2): 1}

    def test_degree_cap(self):
        low = x(0) ** (MAX_DEGREE // 2)
        assert sum_of_products(2, [(low, low), (x(1), x(0))]).degree() == MAX_DEGREE
        with pytest.raises(PolynomialError, match="degree exceeds cap"):
            sum_of_products(2, [(x(1), x(0)), (low * x(0), low)])
        high = Polynomial(2, {(MAX_DEGREE + 1, 0): 1})
        assert sum_of_products(2, [(high, 2)]) == high * 2
        with pytest.raises(PolynomialError, match="degree exceeds cap"):
            sum_of_products(2, [(high, x(1))])


def plain_terms(pairs) -> dict:
    """Reference terms: each (alpha, c) added in turn to a dict of
    Fractions, zero sums dropped at the end."""
    terms = {}
    for alpha, c in pairs:
        terms[alpha] = terms.get(alpha, 0) + c
    return {a: c for a, c in terms.items() if c}


def shifted(alpha: tuple, j: int, by: int) -> tuple:
    return alpha[:j] + (alpha[j] + by,) + alpha[j + 1:]


@st.composite
def hermite_step_case(draw):
    """A rational polynomial h in q <= 6 variables, a rational row and an
    index j < q."""
    q = draw(st.integers(1, 6))
    row = [draw(st.fractions(-3, 3, max_denominator=6)) for _ in range(q)]
    return draw(polynomials(q, 5)), row, draw(st.integers(0, q - 1))


@st.composite
def matrix_case(draw):
    """A rational polynomial in q <= 6 variables and a q x q rational
    matrix, some entries zero."""
    q = draw(st.integers(1, 6))
    mat = [[draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(q)] for _ in range(q)]
    return draw(polynomials(q, 4)), mat


def mono_text(alpha: tuple) -> str:
    return " ".join(f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}" for j, e in enumerate(alpha) if e)


def items(p: Polynomial) -> list:
    return list(p.terms.items())


class TestFractionReference:
    """The integer-numerator kernels on packed monomial keys against
    plain term-by-term Fraction arithmetic on exponent tuples, on random
    rational polynomials in 1 to 6 variables: the same terms, in the same
    dict order, each a Fraction."""

    @given(sum_case(), st.sampled_from([1, Fraction(-2, 3), Fraction(7, 4)]))
    @settings(deadline=None, max_examples=100)
    def test_sum_of_products(self, case, scale):
        q, pairs = case
        want = plain_terms((tuple(map(add, a1, a2)), c1 * c2 * scale)
                           for a, b in pairs
                           for a1, c1 in a.terms.items() for a2, c2 in b.terms.items())
        got = sum_of_products(q, pairs, scale)
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.terms.values())

    @given(product_case())
    @settings(deadline=None, max_examples=100)
    def test_partial_and_laplacian(self, case):
        p = case[0]
        q = p.dimension
        for j in range(q):
            want = plain_terms((shifted(a, j, -1), c * a[j]) for a, c in p.terms.items() if a[j])
            assert list(p.partial(j).terms.items()) == list(want.items())
        want = plain_terms((shifted(a, j, -2), c * a[j] * (a[j] - 1))
                           for j in range(q) for a, c in p.terms.items() if a[j] > 1)
        got = p.laplacian()
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.terms.values())

    @given(hermite_step_case())
    @settings(deadline=None, max_examples=100)
    def test_hermite_step(self, case):
        h, row, j = case
        # the product's terms, less those that cancel, then the derivative's
        want = plain_terms((shifted(a, i, 1), s * c)
                           for i, s in enumerate(row) if s for a, c in h.terms.items())
        for a, c in h.terms.items():
            if a[j]:
                key = shifted(a, j, -1)
                want[key] = want.get(key, 0) - c * a[j]
        want = {a: c for a, c in want.items() if c}
        got = polycore._hermite_step(h, polycore._integer_row(row), j)
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.terms.values())

    @given(expectation_case())
    @settings(deadline=None, max_examples=60)
    def test_expectations(self, case):
        sigma, p, alphas = case
        table = GaussianMoments(sigma)
        want = []
        for alpha in alphas:
            total = Fraction(0)
            for beta, c in p.terms.items():
                gamma = tuple(map(add, alpha, beta))
                total += c * isserlis(tuple(j for j, a in enumerate(gamma) for _ in range(a)), sigma)
            want.append(total)
        got = table.expectations(p, alphas)
        assert got == want and all(type(v) is Fraction for v in got)

    @given(product_case())
    @settings(deadline=None, max_examples=80)
    def test_add_and_sub(self, case):
        a, b = case
        for sign, got in ((1, a + b), (-1, a - b)):
            want = plain_terms(list(a.terms.items()) + [(k, sign * c) for k, c in b.terms.items()])
            assert items(got) == list(want.items())

    @given(matrix_case())
    @settings(deadline=None, max_examples=80)
    def test_x_dot_inv_grad(self, case):
        u, inv = case
        q = u.dimension
        want = plain_terms((shifted(shifted(b, j, -1), i, 1), c * b[j] * inv[i][j])
                           for i in range(q) for j in range(q) if inv[i][j]
                           for b, c in u.terms.items() if b[j])
        got = x_dot_inv_grad(u, inv)
        assert items(got) == list(want.items())
        assert all(type(c) is Fraction for c in got.terms.values())

    @given(product_case(), st.integers(1, 4))
    @settings(deadline=None, max_examples=60)
    def test_taylor_terms(self, case, top):
        S = case[0]
        q = S.dimension
        want = []
        for m in range(1, min(top, S.degree()) + 1):
            for beta in multi_indices(q, m):
                terms = {tuple(a - b for a, b in zip(alpha, beta)):
                         c * math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                         for alpha, c in S.terms.items() if all(a >= b for a, b in zip(alpha, beta))}
                if terms:
                    want.append((beta, list(terms.items())))
        assert [(beta, items(t)) for beta, t in taylor_terms(S, top)] == want

    @given(st.integers(1, 6), st.data())
    @settings(deadline=None, max_examples=30)
    def test_hermite_sigma_and_sum(self, q, data):
        # a non-diagonal rational Sigma^(-1) and shared memos: H^Sigma of
        # each index of low degree, and their combination over the terms
        # of a polynomial
        inv = [[Fraction(2) if i == j else Fraction(-1, 2) if abs(i - j) == 1 else 0
                for j in range(q)] for i in range(q)]
        memo, ref = {}, {}
        for alpha in (a for d in range(3 if q > 3 else 4) for a in multi_indices(q, d)):
            got, want = hermite_sigma(alpha, inv, memo), reference_hermite(alpha, inv, ref)
            assert items(got) == items(want)
        p = data.draw(polynomials(q, 3, max_terms=4))
        want = sum_of_products(q, [(reference_hermite(a, inv, ref), c) for a, c in p.terms.items()])
        assert items(hermite_sum(p, inv, memo)) == items(want)

    @given(product_case(), st.integers(1, 4), st.data())
    @settings(deadline=None, max_examples=60)
    def test_diagonal_degree_solve(self, case, d, data):
        a, b = case
        q = a.dimension
        diag = [data.draw(st.fractions(Fraction(1, 3), 3, max_denominator=3)) for _ in range(q)]
        want = {}
        for alpha in multi_indices(q, d):
            v = a.coefficient(alpha) + b.coefficient(alpha)
            if v:
                want[alpha] = v / sum(w * e for w, e in zip(diag, alpha))
        assert items(diagonal_degree_solve([a, b], d, diag)) == list(want.items())

    @given(product_case(), st.integers(-1, 7))
    @settings(deadline=None, max_examples=60)
    def test_truncate(self, case, n):
        p = case[0]
        want = {a: c for a, c in p.terms.items() if sum(a) <= n}
        got = polycore.truncate(p, n)
        assert items(got) == list(want.items()) and got == Polynomial(p.dimension, want)

    @given(product_case())
    @settings(deadline=None, max_examples=80)
    def test_to_text(self, case):
        p = case[0]
        want = " + ".join(f"{c} {mono_text(a)}".strip()
                          for a, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0])))
        assert p.to_text() == (want or "0")


class TestPackedKeys:
    """Exponents at the edges of what a packed key holds."""

    @pytest.mark.parametrize("q", [1, 2, 6])
    def test_product_reaching_max_degree_in_one_variable(self, q):
        for j in range(q):
            low = x(j, q) ** (MAX_DEGREE // 2)
            top = tuple(MAX_DEGREE if k == j else 0 for k in range(q))
            got = low * low * Fraction(1, 3)
            assert items(got) == [(top, Fraction(1, 3))] and got.degree() == MAX_DEGREE
            assert got.partial(j).terms == {shifted(top, j, -1): Fraction(MAX_DEGREE, 3)}
            with pytest.raises(PolynomialError, match="degree exceeds cap"):
                low * low * x(j, q)

    def test_constructed_high_exponents(self):
        high = Polynomial(2, {(MAX_DEGREE + 1, 0): 1})
        assert items(high * Fraction(2, 3)) == [((MAX_DEGREE + 1, 0), Fraction(2, 3))]
        assert high.degree() == MAX_DEGREE + 1
        assert high.partial(0).terms == {(MAX_DEGREE, 0): MAX_DEGREE + 1}
        widest = Polynomial(3, {(0, MAX_EXPONENT, 0): 5, (1, 0, MAX_EXPONENT): 1})
        assert items(widest) == [((0, MAX_EXPONENT, 0), 5), ((1, 0, MAX_EXPONENT), 1)]
        assert widest.to_text() == f"5 x2^{MAX_EXPONENT} + 1 x1 x3^{MAX_EXPONENT}"
        with pytest.raises(PolynomialError, match="degree exceeds cap"):
            x_dot_inv_grad(widest, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("alpha", [(MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (1, 2 ** 40)])
    def test_exponent_past_the_field_raises(self, alpha):
        with pytest.raises(PolynomialError, match=f"in \\[0, {MAX_EXPONENT}\\]"):
            Polynomial(2, {alpha: 1})
        # no key aliases a tuple that no polynomial can hold
        p = Polynomial(2, {(1, 0): 1, (0, 1): 2, (1, 1): 3, (0, 0): 4})
        assert p.coefficient(alpha) == 0


class TestExactKernels:
    def test_float_reaching_a_kernel_raises(self):
        # coefficients are rational only: no float polynomial can be built,
        # and a float scalar or matrix entry reaching a kernel raises
        calls = [
            lambda: 0.5 * x(0) + x(1),
            lambda: x(0) + 0.5,
            lambda: Polynomial.constant(2, np.float64(1.0)),
            lambda: sum_of_products(2, [(x(0), 0.5)]),
            lambda: sum_of_products(2, [(x(0), x(1))], 0.5),
            lambda: x(0).compose_affine([[1.0, 0], [0, 1]]),
            lambda: x_dot_inv_grad(x(0) ** 2, [[1, 0.5], [0.5, 1]]),
            lambda: x_dot_inv_grad(x(0) ** 2, np.eye(2)),
            lambda: hermite_sigma((2, 1), [[1, 0.5], [0.5, 1]]),
            lambda: GaussianMoments([[1.0, 0], [0, 1]]),
            lambda: solve_linear([[2, 1], [1, 0.5]], [[1], [0]]),
            lambda: solve_linear([[2, 1], [1, 3]], [[1], [0.25]]),
            lambda: invert_S_map([Polynomial(1, {(3,): 0.5, (1,): -1.5})], [[1]]),
            lambda: invert_S_map([hermite_1d(3)], np.array([[1.0]])),
            lambda: polycore.coefficient_text(0.5),
        ]
        for call in calls:
            with pytest.raises(PolynomialError, match="rational"):
                call()
        # an integer prints as its Fraction does
        texts = [polycore.coefficient_text(c) for c in (0, -3, Fraction(-3, 6))]
        assert texts == ["0", "-3", "-1/2"]


class TestEpsSeries:
    def test_exp_reciprocal_inverse(self):
        # exp(-s) is the reciprocal of exp(s)
        p = x(0) + Fraction(1, 2) * x(1) ** 2
        s = series(2, [0, p], 4)
        e = s.exp()
        assert e * (s * -1).exp() == series(2, [1], 4)

    def test_exp_matches_scalar_exp(self):
        # constant-argument series reduces to the Maclaurin series of e^c
        s = series(1, [0, 1], 5)
        e = s.exp()
        for k in range(6):
            assert e[k].constant_term() == Fraction(1, math.factorial(k))

    @given(series_case())
    @settings(deadline=None, max_examples=60)
    def test_exp_and_reciprocal_equal_power_sums(self, s):
        # exp(s) is its power sum, and exp(-s) the power-sum reciprocal of exp(s)
        e = s.exp()
        assert e == series_exp_by_powers(s)
        assert (s * -1).exp() == series_reciprocal_by_powers(e)
        assert e * (s * -1).exp() == series(s.dimension, [1], s.order)

    def test_product_truncates_to_smaller_order(self):
        a = series(2, [1, x(0), x(1)], 2)
        b = series(2, [x(1), 2, x(0), x(0) * x(1)], 3)
        assert a * b == series(2, [x(1), x(0) * x(1) + 2, x(1) ** 2 + 2 * x(0) + x(0)], 2)

    def test_exp_checks_input(self):
        s = EpsSeries([x(0), x(1)], 2)
        with pytest.raises(PolynomialError, match="exp needs"):
            s.exp()
