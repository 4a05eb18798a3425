"""Built-in sample laws and their exact cumulants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levyedge.edgeworth import cumulants_to_moments
from levyedge.laws import (
    LawError,
    centered_exponential,
    gaussian_law,
    make_law,
    product_exponential,
    uniform_disk,
)


class TestCenteredExponential:
    def test_cumulant_values(self):
        c = centered_exponential(5).cumulants
        assert c.mu[(2,)] == 1
        assert c.mu[(3,)] == 2
        assert c.mu[(4,)] == 6
        assert c.mu[(5,)] == 24

    def test_gamma_shortcut_distribution(self):
        # one Gamma draw must reproduce the m-fold normalized sum law:
        # compare low moments against the exact cumulant scaling
        law = centered_exponential()
        m, n = 25, 400_000
        rng = np.random.default_rng(0)
        y = law.sample_sum(m, n, rng)[:, 0]
        assert y.mean() == pytest.approx(0.0, abs=5e-3)
        assert y.var() == pytest.approx(1.0, rel=5e-3)
        # kappa_3(Y_m) = kappa_3 / sqrt(m) = 2/5
        skew = np.mean(y ** 3)
        assert skew == pytest.approx(2 / math.sqrt(m), rel=0.05)

    def test_shortcut_matches_direct_sum_law(self):
        # direct summation (generic path) and the Gamma shortcut agree in law
        law = centered_exponential()
        rng = np.random.default_rng(1)
        direct = sum(law.sample(50_000, rng) for _ in range(9)) / 3.0
        short = law.sample_sum(9, 50_000, rng)
        for mom in (1, 2, 3):
            assert np.mean(direct ** mom) == pytest.approx(
                np.mean(short ** mom), abs=0.03
            )

    def test_sum_quantile_matches_samples(self):
        law = centered_exponential()
        m = 16
        qf = law.sum_quantile(m)
        rng = np.random.default_rng(2)
        y = np.sort(law.sample_sum(m, 200_000, rng)[:, 0])
        for t in (0.1, 0.5, 0.9):
            emp = y[int(t * y.size)]
            assert qf(t) == pytest.approx(emp, abs=0.02)


class TestQuantiles:
    T = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1], [1e-300, 1e-12, 1 - 1e-12]])

    @pytest.mark.parametrize("m", [1, 16, 1024])
    def test_gamma_quantile_equals_stats_ppf(self, m):
        # the same special function scipy.stats' ppf calls, bit for bit
        from scipy import stats

        qf = centered_exponential().sum_quantile(m)
        got = np.array([qf(t) for t in self.T])
        assert np.array_equal(got, (stats.gamma.ppf(self.T, m) - m) / math.sqrt(m))

    def test_normal_quantile_equals_stats_ppf(self):
        from scipy import stats

        qf = gaussian_law().sum_quantile(16)
        assert np.array_equal([qf(t) for t in self.T], stats.norm.ppf(self.T))


class TestProductExponential:
    def test_cross_cumulants_vanish(self):
        c = product_exponential(4).cumulants
        assert c.mu[(2, 1)] == 0
        assert c.mu[(1, 2)] == 0
        assert c.mu[(2, 2)] == 0
        assert c.mu[(3, 0)] == 2

    def test_sampler_independence(self):
        law = product_exponential()
        rng = np.random.default_rng(3)
        z = law.sample(200_000, rng)
        corr = np.corrcoef(z.T)[0, 1]
        assert corr == pytest.approx(0.0, abs=0.01)


class TestUniformDisk:
    def test_exact_moments(self):
        # E x^2 = 1/4, E x^4 = 1/8, E x^2 y^2 = 1/24 for the unit disk
        m = cumulants_to_moments(uniform_disk(4).cumulants)
        assert m.values[(2, 0)] == Fraction(1, 4)
        assert m.values[(4, 0)] == Fraction(1, 8)
        assert m.values[(2, 2)] == Fraction(1, 24)
        assert m.values[(3, 0)] == 0

    def test_sampler_matches_moments(self):
        law = uniform_disk()
        rng = np.random.default_rng(4)
        z = law.sample(400_000, rng)
        assert np.mean(z[:, 0] ** 2) == pytest.approx(0.25, rel=0.01)
        assert np.mean(z[:, 0] ** 2 * z[:, 1] ** 2) == pytest.approx(1 / 24, rel=0.03)
        assert np.max(np.linalg.norm(z, axis=1)) <= 1.0


class TestRegistry:
    def test_gaussian_null_law(self):
        law = gaussian_law()
        assert all(v == 0 for a, v in law.cumulants.mu.items() if sum(a) > 2)
        rng = np.random.default_rng(5)
        y = law.sample_sum(64, 10_000, rng)
        assert y.var() == pytest.approx(1.0, rel=0.05)

    def test_lattice_laws_rejected_with_reason(self):
        with pytest.raises(LawError, match="characteristic function"):
            make_law("rademacher")

    def test_unknown_law(self):
        with pytest.raises(LawError, match="built-ins"):
            make_law("cauchy")
