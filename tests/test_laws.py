"""Built-in sample laws and their exact cumulants."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from levyedge import laws
from levyedge.edgeworth import cumulants_to_moments
from levyedge.laws import (
    BUILTIN_LAWS,
    LawError,
    centered_exponential,
    gaussian_law,
    make_law,
    product_exponential,
    uniform_disk,
)
from levyedge.wasserstein import SCORE_RULE


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
        z = np.array([-1.2815515655446004, 0.0, 1.2815515655446004])  # Phi(z) = 0.1, 0.5, 0.9
        for t, q in zip((0.1, 0.5, 0.9), qf(z)):
            emp = y[int(t * y.size)]
            assert q == pytest.approx(emp, abs=0.02)


class TestQuantiles:
    #: the nodes of wp_1d_exact's rule, out to |z| = 13.4, and a grid to |z| = 8
    Z = np.concatenate([SCORE_RULE[0], np.linspace(-8.0, 8.0, 161)])

    @pytest.mark.parametrize("m", [1, 4, 16, 1024])
    def test_gamma_quantile_equals_stats_ppf(self, m):
        # each side the special function scipy.stats calls, bit for bit:
        # ppf at Phi(z) below the median, isf at Phi(-z) above it
        from scipy import stats

        qf = centered_exponential().sum_quantile(m)
        lo, hi = self.Z[self.Z < 0], self.Z[self.Z >= 0]
        root = math.sqrt(m)
        assert np.array_equal(qf(lo), (stats.gamma.ppf(stats.norm.cdf(lo), m) - m) / root)
        assert np.array_equal(qf(hi), (stats.gamma.isf(stats.norm.cdf(-hi), m) - m) / root)

    def test_normal_quantile_equals_stats_ppf(self):
        # the standard normal's quantile at Phi(z) is z itself, which
        # scipy.stats' ppf (isf above the median) gives back to rounding
        from scipy import stats

        qf = gaussian_law().sum_quantile(16)
        assert np.array_equal(qf(self.Z), self.Z)
        lo, hi = self.Z[self.Z < 0], self.Z[self.Z >= 0]
        assert np.allclose(stats.norm.ppf(stats.norm.cdf(lo)), lo, rtol=1e-13, atol=0)
        assert np.allclose(stats.norm.isf(stats.norm.cdf(-hi)), hi, rtol=1e-13, atol=1e-300)


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


def allocating_sum(name, law, m, n, rng):
    """The normalized sum of the law called name as a fresh-array
    expression: the reference its in-place sampler must match bit for bit."""
    if name in ("centered-exponential", "product-exponential"):
        return (rng.gamma(m, size=(n, law.dimension)) - m) / math.sqrt(m)
    if name == "gaussian":
        return rng.standard_normal((n, 1))
    total = np.zeros((n, law.dimension))
    for _ in range(m):
        total += law.sample(n, rng)
    return total / math.sqrt(m)


class TestSumIntoBuffer:
    @pytest.mark.parametrize("name", [*BUILTIN_LAWS, "gaussian"])
    def test_in_place_equals_allocating(self, name):
        law = make_law(name)
        n = 500
        buf = np.full((n, law.dimension), np.nan)  # a stale buffer must not leak in
        for m in (1, 3, 64):
            want = allocating_sum(name, law, m, n, np.random.default_rng(m))
            fresh = law.sample_sum(m, n, np.random.default_rng(m))
            into = law.sample_sum(m, n, np.random.default_rng(m), out=buf)
            assert into is buf
            assert want.tobytes() == fresh.tobytes() == buf.tobytes()


class TestQuantileLoad:
    @pytest.mark.parametrize("order", ["scipy.special first", "levyedge first"])
    def test_sum_quantile_equals_scipy_special(self, order):
        # ndtr, gammaincinv and gammainccinv of the extension loaded alone
        # equal scipy.special's bit for bit at the SCORE_RULE nodes, in
        # either import order, and so does the exponential's sum quantile
        code = (
            "import math\n"
            "import numpy as np\n"
            + ("import scipy.special as sp\nfrom levyedge.laws import centered_exponential, special\n"
               if order == "scipy.special first" else
               "from levyedge.laws import centered_exponential, special\nimport scipy.special as sp\n")
            + "from levyedge.wasserstein import SCORE_RULE\n"
            "z = SCORE_RULE[0]\n"
            "lo, hi = sp.ndtr(z), sp.ndtr(-z)\n"
            "assert np.array_equal(special.ndtr(z), lo) and np.array_equal(special.ndtr(-z), hi)\n"
            "law = centered_exponential()\n"
            "for m in (1, 16, 64, 256, 1024):\n"
            "    for u in (lo, hi):\n"
            "        assert np.array_equal(special.gammaincinv(m, u), sp.gammaincinv(m, u)), m\n"
            "        assert np.array_equal(special.gammainccinv(m, u), sp.gammainccinv(m, u)), m\n"
            "    g = np.where(z < 0, sp.gammaincinv(m, lo), sp.gammainccinv(m, hi))\n"
            "    assert np.array_equal(law.sum_quantile(m)(z), (g - m) / math.sqrt(m)), m\n"
        )
        src = str(Path(laws.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
