"""Distance oracles: 1D quantile formula, exact assignment, rate fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from levyedge.wasserstein import (
    WassersteinError,
    _wp_1d_in_place,
    rate_fit,
    wp_1d_exact,
    wp_empirical,
)


class TestOneDimensional:
    def test_point_mass_translation(self):
        # W_p between translated copies equals the translation
        x = np.array([0.0, 1.0, 2.0])
        assert wp_1d_exact(x, x + 3.0) == pytest.approx(3.0)

    def test_quantile_mode_gaussian_shift(self):
        # W_2(N(0,1), N(m,1)) = |m| exactly
        f = lambda t: stats.norm.ppf(t)
        g = lambda t: stats.norm.ppf(t) + 1.5
        assert wp_1d_exact(f, g) == pytest.approx(1.5, rel=1e-9)

    def test_quantile_mode_gaussian_scale(self):
        # W_2(N(0,1), N(0,s^2)) = |s - 1|
        f = lambda t: stats.norm.ppf(t)
        g = lambda t: 2.0 * stats.norm.ppf(t)
        assert wp_1d_exact(f, g) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_in_place_matches_sorted_copies(self, p):
        # the in-place kernel: the same bits as mean(|sort(a) - sort(b)|^p)
        # on copies, and wp_1d_exact leaves its inputs as they were
        rng = np.random.default_rng(p)
        a = rng.standard_normal((2000, 1))
        b = rng.standard_normal((2000, 2))[:, 1]  # a strided view
        a0, b0 = a.copy(), b.copy()
        want = float(np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b)) ** p) ** (1.0 / p))
        assert wp_1d_exact(a, b, p) == want
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
        assert _wp_1d_in_place(a0[:, 0], b0, p) == want
        assert np.array_equal(b0, np.sort(b))

    def test_mixed_inputs_rejected(self):
        with pytest.raises(WassersteinError):
            wp_1d_exact(np.zeros(3), lambda t: t)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_matches_assignment_in_1d(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(60)
        b = rng.standard_normal(60) * 1.3 + 0.2
        assert wp_empirical(a, b) == pytest.approx(wp_1d_exact(a, b), abs=1e-12)


class TestEmpirical:
    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((200, 2)), rng.standard_normal((200, 2))
        assert wp_empirical(a, b) == pytest.approx(wp_empirical(b, a), abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=20)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((100, 2)) for _ in range(3))
        assert wp_empirical(a, c) <= wp_empirical(a, b) + wp_empirical(b, c) + 1e-9

    def test_any_explicit_coupling_is_an_upper_bound(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((150, 2)), rng.standard_normal((150, 2)) + 0.3
        opt = wp_empirical(a, b) ** 2 * a.shape[0]
        identity_cost = float((cdist(a, b) ** 2)[np.arange(150), np.arange(150)].sum())
        assert opt <= identity_cost + 1e-9

    def test_size_cap(self):
        big = np.zeros((5000, 2))
        with pytest.raises(WassersteinError):
            wp_empirical(big, big)

    def test_certificate_accepts_optimal(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((80, 2)), rng.standard_normal((80, 2))
        assert wp_empirical(a, b, certify=True) >= 0

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [np.nan, 0.0]]),
        np.array([[0.0, np.inf], [1.0, 0.0]]),
        np.zeros((2, 2, 2)),
        np.zeros(0),
    ], ids=["nan", "inf", "three-dim", "empty"])
    def test_point_check(self, bad):
        ok = np.zeros((2, 2))
        with pytest.raises(WassersteinError, match="finite \\(n, q\\) array"):
            wp_empirical(bad, ok)
        with pytest.raises(WassersteinError, match="finite \\(n, q\\) array"):
            wp_empirical(ok, bad)

    def test_one_dimensional_input_is_a_column(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert wp_empirical(a, b) == wp_empirical(a[:, None], b.reshape(50, 1))

    def test_null_bias_positive_and_decreasing(self):
        # finite-sample floor of the two-sample distance on a common law
        rng = np.random.default_rng(12)
        vals = []
        for n in (250, 1000, 4000):
            a = rng.standard_normal((n, 2))
            b = rng.standard_normal((n, 2))
            vals.append(wp_empirical(a, b))
        assert vals[0] > vals[1] > vals[2] > 0


class TestRateFit:
    def test_exact_inverse_sqrt(self):
        xs = np.array([1.0, 4.0, 16.0, 64.0])
        slope, ci = rate_fit(xs, xs ** -0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert ci == (slope, slope)

    def test_linear_scaling(self):
        xs = np.array([2.0, 3.0, 5.0, 7.0])
        slope, _ = rate_fit(xs, 4.2 * xs)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(31)
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        hits = 0
        for _ in range(40):
            ys = xs ** -1.0 * (1 + 0.01 * rng.standard_normal(xs.size))
            s, _ = rate_fit(xs, ys)
            hits += -1.05 <= s <= -0.95
        assert hits >= 38

    def test_bootstrap_ci_brackets_slope(self):
        rng = np.random.default_rng(8)
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        reps = xs[:, None] ** -0.5 * (1 + 0.05 * rng.standard_normal((4, 30)))
        slope, (lo, hi) = rate_fit(xs, reps.mean(axis=1), bootstrap_reps=200, replicates=reps)
        assert lo <= slope <= hi
        assert lo <= -0.5 <= hi

    def test_rejects_nonpositive(self):
        with pytest.raises(WassersteinError):
            rate_fit([1, 2, 3], [1.0, -1.0, 1.0])

    def test_no_usable_bootstrap_resample(self):
        # every resample has nonpositive means: a typed error, not IndexError
        with pytest.raises(WassersteinError):
            rate_fit([1, 2, 4], [1, 1, 1], bootstrap_reps=10, replicates=-np.ones((3, 2)))
