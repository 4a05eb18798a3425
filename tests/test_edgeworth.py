"""Cumulant/moment algebra and the density-expansion builders."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyedge import edgeworth
from levyedge.edgeworth import (
    CumulantSet,
    EdgeworthError,
    MomentSet,
    build_P,
    build_Q,
    cumulants_to_moments,
    edgeworth_density,
    edgeworth_signed_moments,
    moments_to_cumulants,
    multi_indices,
    scaled_sum_moments,
)
from levyedge.polycore import Polynomial, hermite_1d


def _fact(alpha):
    return math.prod(math.factorial(a) for a in alpha)


def exp_cumulants(order=6):
    # centered Exp(1): kappa_j = (j-1)!
    return CumulantSet(1, order, {(j,): Fraction(math.factorial(j - 1)) for j in range(2, order + 1)})


def reference_cumulants_to_moments(c: CumulantSet) -> dict:
    """The moments from exp(gen) - 1 = sum_l gen^l / l!, each power
    truncated at the cumulant order n after its product (the former
    edgeworth._poly_expm1)."""
    q, n = c.dimension, c.order
    gen = Polynomial(q, {a: Fraction(1, _fact(a)) * c.mu[a]
                         for d in range(2, n + 1) for a in multi_indices(q, d)})
    out, power = Polynomial.zero(q), Polynomial.constant(q, Fraction(1))
    for l in range(1, n + 1):
        power = Polynomial(q, {a: v for a, v in (power * gen).terms.items() if sum(a) <= n})
        power = power * Fraction(1, l)
        if power.is_zero():
            break
        out = out + power
    return {a: out.coefficient(a) * _fact(a) for d in range(1, n + 1) for a in multi_indices(q, d)}


rational = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)


@st.composite
def random_cumulants(draw, q=2, order=4):
    mu = {}
    for total in range(2, order + 1):
        for alpha in multi_indices(q, total):
            mu[alpha] = draw(rational)
    # force a positive-definite diagonal covariance
    for j in range(q):
        e = [0] * q
        e[j] = 2
        mu[tuple(e)] = draw(st.fractions(min_value=Fraction(1, 2), max_value=Fraction(3), max_denominator=4))
    for i in range(q):
        for j in range(i + 1, q):
            e = [0] * q
            e[i] = e[j] = 1
            mu[tuple(e)] = Fraction(0)
    return CumulantSet(q, order, mu)


class TestRoundTrip:
    @given(random_cumulants())
    @settings(deadline=None, max_examples=30)
    def test_cumulant_moment_round_trip(self, c):
        again = moments_to_cumulants(cumulants_to_moments(c))
        assert again.mu == c.mu

    @given(random_cumulants(q=3, order=6))
    @settings(deadline=None, max_examples=8)
    def test_graded_exp_equals_truncated_powers(self, c):
        # q = 3, order 6: the eps-graded exp recursion gives the moments of
        # the truncated power series exactly
        assert cumulants_to_moments(c).values == reference_cumulants_to_moments(c)

    def test_exponential_moments(self):
        # central moments of Exp(1)-1: m2=1, m3=2, m4=9 (from E(X-1)^4)
        m = cumulants_to_moments(exp_cumulants(4))
        assert m.values[(2,)] == 1
        assert m.values[(3,)] == 2
        assert m.values[(4,)] == 9

    def test_text_round_trip(self):
        c = exp_cumulants(4)
        assert CumulantSet.from_text(c.to_text()).mu == c.mu

    def test_decimals_read_exactly(self):
        c = CumulantSet.from_text("2 1.5\n3 0.7\n4 -3e-2\n5 2E3\n6 1_0.5e+1\n")
        assert c.mu == {(2,): Fraction(3, 2), (3,): Fraction(7, 10), (4,): Fraction(-3, 100),
                        (5,): Fraction(2000), (6,): Fraction(105)}
        assert all(type(v) is Fraction for v in c.mu.values())
        assert CumulantSet.from_text(c.to_text()).mu == c.mu

    @pytest.mark.parametrize("value", ["1e-1001", "1e1001", "1e-10000000", "-2.5E+99999999999"])
    def test_decimal_exponent_bound(self, value, monkeypatch):
        # the exponent is checked before the value is converted: 1e-10000000
        # would take seconds to become a Fraction
        converted = []
        monkeypatch.setattr(edgeworth, "Fraction", lambda v: converted.append(v) or Fraction(v))
        with pytest.raises(EdgeworthError, match="line 2: exponent over 1000"):
            CumulantSet.from_text(f"2 1\n3 {value}\n")
        assert converted == ["1"]
        monkeypatch.undo()
        c = CumulantSet.from_text("2 1\n3 1e-1000\n4 1e1000\n")
        assert c.mu[(3,)] == Fraction(1, 10 ** 1000) and c.mu[(4,)] == 10 ** 1000


class TestBuilders:
    def test_degree_window(self):
        # P_k and Q_k only carry monomials of total degree in [k+2, 3k]
        c = exp_cumulants(6)
        for k, p in enumerate(build_P(c, 3), start=1):
            degs = [sum(a) for a in p.terms]
            assert degs and min(degs) >= 0 and max(degs) <= 3 * k
        for k, q in enumerate(build_Q(c, 3), start=1):
            degs = [sum(a) for a in q.terms]
            assert max(degs) <= 3 * k

    def test_q1_univariate_formula(self):
        # Q1 = (kappa3 / 6) H3(x) for unit variance
        c = exp_cumulants(3)
        (q1,) = build_Q(c, 1)
        assert q1 == Fraction(2, 6) * hermite_1d(3)

    def test_q1_scaling_with_variance(self):
        # for variance lam, Q1 = (kappa3/6) lam^{-3/2} H3(x / sqrt(lam));
        # with lam = 4 the scaling factors are exact rationals
        c = CumulantSet(1, 3, {(2,): Fraction(4), (3,): Fraction(16)})
        (q1,) = build_Q(c, 1)
        y = Polynomial.variable(1, 0)
        expected = Fraction(16, 6) * (Fraction(1, 64) * y ** 3 - Fraction(3, 16) * y)
        assert q1 == expected

    def test_rotation_invariance_of_density(self):
        # Y = A^T X for a rotation A has density f_X(A y), so the exact
        # expansion of Y is the expansion of X composed with A
        mu = {
            (2, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(0),
            (3, 0): Fraction(1, 2), (2, 1): Fraction(1, 3),
            (1, 2): Fraction(-1, 4), (0, 3): Fraction(1, 5),
            (4, 0): Fraction(1), (3, 1): Fraction(-1, 2), (2, 2): Fraction(1, 3),
            (1, 3): Fraction(0), (0, 4): Fraction(2, 3),
        }
        c = CumulantSet(2, 4, mu)
        A = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
        # the degree-d cumulant polynomial of Y is that of X at A z
        mu_y = {}
        for d in range(2, 5):
            cd = Polynomial(2, {a: c.mu[a] / _fact(a) for a in multi_indices(2, d)})
            rotated = cd.compose_affine(A)
            for a in multi_indices(2, d):
                mu_y[a] = rotated.coefficient(a) * _fact(a)
        cy = CumulantSet(2, 4, mu_y)
        assert cy.covariance[0][1] != 0
        for qy, qx in zip(build_Q(cy, 2), build_Q(c, 2)):
            assert all(isinstance(v, Fraction) for v in qy.terms.values())
            assert qy == qx.compose_affine(A)

    def test_density_integrates_to_one(self):
        c = exp_cumulants(4)
        xs = np.linspace(-10, 10, 4001)[:, None]
        vals = edgeworth_density(c, 2, 0.3, xs)
        assert np.trapezoid(vals, xs[:, 0]) == pytest.approx(1.0, abs=1e-8)

    @given(random_cumulants())
    @settings(deadline=None, max_examples=20)
    def test_signed_moments_match_scaled_sum(self, c):
        # the expansion with r = n-2 matches the normalized-sum moments
        # through order n exactly (m a perfect square so sqrt(m) is rational)
        m = 9
        eps = Fraction(1, 3)
        left = edgeworth_signed_moments(c, build_Q(c, 2), eps, 4)
        right = scaled_sum_moments(c, m, 4)
        for alpha in left:
            assert left[alpha] == right[alpha]


class TestValidation:
    def test_mean_must_be_zero(self):
        with pytest.raises(EdgeworthError):
            MomentSet(1, 2, {(1,): 1, (2,): 1})

    def test_zero_covariance_rejected(self):
        c = CumulantSet(2, 3, {(3, 0): Fraction(1)})
        with pytest.raises(EdgeworthError):
            c.check_nonsingular()

    def test_scaled_sum_needs_perfect_square(self):
        assert scaled_sum_moments(exp_cumulants(4), 9, 4)[(4,)] == 3 + Fraction(6, 9)
        with pytest.raises(EdgeworthError, match="perfect square"):
            scaled_sum_moments(exp_cumulants(4), 10, 4)

    def test_singular_covariance_rejected(self):
        c = CumulantSet(2, 2, {(2, 0): 1, (0, 2): 0, (1, 1): 0})
        with pytest.raises(EdgeworthError):
            c.check_nonsingular()
