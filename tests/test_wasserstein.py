"""Distance oracles: 1D quantile formula, exact assignment, rate fits."""

import importlib.machinery
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from levyedge import wasserstein
from levyedge.wasserstein import (
    WassersteinError,
    _cost,
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
        # W_2(N(0,1), N(m,1)) = |m|; in the normal score the quantile
        # functions are z and z + m, and the rule is exact on constants
        f = lambda z: z
        g = lambda z: z + 1.5
        assert wp_1d_exact(f, g) == pytest.approx(1.5, rel=1e-12)

    def test_quantile_mode_gaussian_scale(self):
        # W_2(N(0,1), N(0,s^2)) = |s - 1|: z against 2z, E Z^2 = 1 exactly
        f = lambda z: z
        g = lambda z: 2.0 * z
        assert wp_1d_exact(f, g) == pytest.approx(1.0, rel=1e-12)

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


class TestCost:
    @pytest.mark.parametrize("q", range(1, 11))
    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4])
    def test_cost_is_cdist_bit_for_bit(self, q, p, scale):
        # the squared differences summed in coordinate order, the square
        # root, then the power: cdist's arithmetic, so the same bytes; the
        # rows differ in scale by up to e^(+-9) and 300 rows span two blocks
        rng = np.random.default_rng(1000 * q + int(p))
        for n in (1, 7, 300):
            a = scale * rng.standard_normal((n, q)) * np.exp(3.0 * rng.standard_normal((n, 1)))
            b = scale * rng.standard_t(2, (n, q))
            assert np.array_equal(_cost(a, b, p), cdist(a, b) ** p)

    @pytest.mark.parametrize("q", [2, 4])
    def test_peak_memory_is_one_cost_matrix(self, q):
        # numpy reports its buffers to tracemalloc: the (n, n) cost and one
        # row block of scratch, not a full temporary per coordinate or a
        # second matrix for the power
        n = 1200
        rng = np.random.default_rng(q)
        a, b = rng.standard_normal((n, q)), rng.standard_normal((n, q))
        tracemalloc.start()
        try:
            wp_empirical(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * n * n


class TestSolverLoad:
    def test_solver_is_the_compiled_lsap_builtin(self):
        solve = wasserstein.linear_sum_assignment
        assert isinstance(solve, types.BuiltinFunctionType)
        module = solve.__self__
        assert module.__name__ == "_lsap"
        assert isinstance(module.__spec__.loader, importlib.machinery.ExtensionFileLoader)
        assert Path(module.__file__).parent.name == "optimize"

    @pytest.mark.parametrize("order", ["scipy.optimize first", "levyedge first"])
    def test_value_equals_scipy_optimize_solve(self, order):
        # the solver loaded alone and scipy.optimize's own copy of the same
        # extension coexist, in either import order, and agree bit for bit
        code = (
            "import numpy as np\n"
            + ("import scipy.optimize\nfrom levyedge.wasserstein import wp_empirical\n"
               if order == "scipy.optimize first" else
               "from levyedge.wasserstein import wp_empirical\nimport scipy.optimize\n")
            + "from scipy.spatial.distance import cdist\n"
            "rng = np.random.default_rng(3)\n"
            "for q, p in ((1, 2.0), (2, 2.0), (3, 4.0), (5, 2.0)):\n"
            "    a, b = rng.standard_normal((150, q)), rng.standard_t(3, (150, q))\n"
            "    cost = cdist(a, b) ** p\n"
            "    rows, cols = scipy.optimize.linear_sum_assignment(cost)\n"
            "    want = (float(cost[rows, cols].sum()) / 150) ** (1.0 / p)\n"
            "    assert wp_empirical(a, b, p) == want, (q, p)\n"
        )
        src = str(Path(wasserstein.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestRateFit:
    def test_exact_inverse_sqrt(self):
        xs = np.array([1.0, 4.0, 16.0, 64.0])
        slope, ci = rate_fit(xs, (xs ** -0.5)[:, None])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert ci == (slope, slope)

    def test_linear_scaling(self):
        xs = np.array([2.0, 3.0, 5.0, 7.0])
        slope, _ = rate_fit(xs, (4.2 * xs)[:, None])
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(31)
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        hits = 0
        for _ in range(40):
            ys = xs ** -1.0 * (1 + 0.01 * rng.standard_normal(xs.size))
            s, _ = rate_fit(xs, ys[:, None])
            hits += -1.05 <= s <= -0.95
        assert hits >= 38

    def test_bootstrap_ci_brackets_slope(self):
        rng = np.random.default_rng(8)
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        reps = xs[:, None] ** -0.5 * (1 + 0.05 * rng.standard_normal((4, 30)))
        slope, (lo, hi) = rate_fit(xs, reps)
        assert lo <= slope <= hi
        assert lo <= -0.5 <= hi

    def test_rejects_a_matrix_of_the_wrong_shape(self):
        # one row per x, and one column or more: a bare vector is refused
        for reps in ([1.0, 2.0, 3.0], np.ones((4, 2)), np.ones((3, 0))):
            with pytest.raises(WassersteinError):
                rate_fit([1, 2, 3], reps)

    def test_rejects_nonpositive(self):
        with pytest.raises(WassersteinError):
            rate_fit([1, 2, 3], [[1.0], [-1.0], [1.0]])

    def test_no_usable_bootstrap_resample(self):
        # every row mean is positive, but a resample keeps them all positive
        # only when it is a permutation of the 12 columns (probability
        # 12!/12^12, about 5e-5): a typed error, not IndexError
        reps = np.full((12, 12), -1.0) + 101.0 * np.eye(12)
        for seed in range(5):
            with pytest.raises(WassersteinError, match="no bootstrap resample"):
                rate_fit(np.arange(1.0, 13.0), reps, seed)
