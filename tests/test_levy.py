"""Radial jump-intensity measures: interval masses, dyadic annuli,
small-jump variances, the one-interval decomposition, and the
characteristic-decay probe."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from levyedge import levy
from levyedge.levy import (
    AnnulusDecomposition,
    CustomRadialMeasure,
    LevyError,
    StableLikeMeasure,
    cramer_amplify,
    cramer_probe,
    measure_from_config,
)

Q, ALPHA = 2, 1.5


@pytest.fixture(scope="module")
def meas():
    return StableLikeMeasure(Q, ALPHA, 1.0)


def first_jumps(m, a, b, n, rng):
    """The first n jumps that 2n candidates of sample_interval give: the
    ball keeps over half the cube for q <= 3, and every candidate beyond."""
    z = m.sample_interval(a, b, 2 * n, rng)
    assert len(z) >= n
    return z[:n]


class TestClosedForms:
    def test_interval_mass(self, meas):
        # nu(a, b] = S_{q-1} (a^-alpha - b^-alpha) / alpha with S_1 = 2 pi
        a, b = 0.25, 0.5
        want = 2 * math.pi * (a ** -ALPHA - b ** -ALPHA) / ALPHA
        assert meas.interval_mass(a, b) == pytest.approx(want, rel=1e-12)

    def test_annulus_intensity_growth(self, meas):
        # nu_r = S_{q-1} (2^alpha - 1) 2^{alpha r} / alpha, geometric in r
        for r in (1, 4, 7):
            want = 2 * math.pi * (2 ** ALPHA - 1) * 2 ** (ALPHA * r) / ALPHA
            assert meas.interval_mass(*meas.annulus_bounds(r)) == pytest.approx(want, rel=1e-12)

    def test_small_jump_covariance_closed_form(self, meas):
        # Sigma_eps = (S_{q-1} / (q(2-alpha))) eps^{2-alpha} I; at eps=1/4
        # this is exactly pi I for q=2, alpha=3/2
        assert meas.small_jump_variance(0.25) == pytest.approx(math.pi, rel=1e-12)

    def test_small_jump_covariance_scaling(self, meas):
        # eps-halving scales the variance by 2^{-(2-alpha)}
        s1 = meas.small_jump_variance(0.125)
        s2 = meas.small_jump_variance(0.0625)
        assert s2 / s1 == pytest.approx(2.0 ** -(2 - ALPHA), rel=1e-12)

    def test_truncated_variance_additivity(self, meas):
        # band-by-band second moments plus the analytic sub-resolution tail
        # reassemble the closed-form truncated variance
        eps = 0.25
        total = 0.0
        for r in range(2, 200):
            a, b = meas.annulus_bounds(r)
            total += meas.interval_radial_second_moment(a, b)
        want = 2 * math.pi * eps ** (2 - ALPHA) / (2 - ALPHA)
        assert total == pytest.approx(want, rel=1e-6)

    def test_big_jump_compensator_zero(self, meas):
        # isotropy kills the mean of any interval law
        rng = np.random.default_rng(0)
        draws = first_jumps(meas, 0.25, 1.0, 200_000, rng)
        assert np.abs(draws.mean(axis=0)).max() < 5e-3


class TestSampling:
    def test_interval_radii_distribution(self, meas):
        # inverse-CDF radii: empirical CDF vs the closed form on (a, b]
        a, b = 0.1, 0.8
        rng = np.random.default_rng(7)
        radii = np.linalg.norm(first_jumps(meas, a, b, 100_000, rng), axis=1)
        assert radii.min() >= a and radii.max() <= b
        for t in (0.15, 0.3, 0.6):
            want = (a ** -ALPHA - t ** -ALPHA) / (a ** -ALPHA - b ** -ALPHA)
            got = np.mean(radii <= t)
            assert got == pytest.approx(want, abs=5e-3)

    def test_directions_uniform(self, meas):
        rng = np.random.default_rng(11)
        z = first_jumps(meas, 0.2, 0.4, 50_000, rng)
        ang = np.arctan2(z[:, 1], z[:, 0])
        hist, _ = np.histogram(ang, bins=8, range=(-np.pi, np.pi))
        assert hist.min() > 0.9 * z.shape[0] / 8

    def test_custom_radial_samples_the_law_it_reports(self):
        # a coarse table, where a sampler of another interpolation than
        # the one the closed forms integrate shows: the sampled E|z|^2 on
        # (0.05, 1] against the reported second moment over the mass
        radii = np.linspace(0.05, 1.0, 6)
        cm = CustomRadialMeasure(2, radii, radii ** -3.5)
        z = first_jumps(cm, 0.05, 1.0, 200_000, np.random.default_rng(5))
        r2 = (z ** 2).sum(axis=1)
        want = cm.interval_radial_second_moment(0.05, 1.0) / cm.interval_mass(0.05, 1.0)
        assert abs(r2.mean() - want) < 4 * r2.std() / math.sqrt(r2.size)

    def test_custom_radial_matches_stable_like(self, meas):
        # a dense tabulation of the per-Lebesgue power-law density
        # |z|^(-q-alpha) reproduces the closed-form interval masses
        radii = np.geomspace(0.05, 1.0, 4000)
        dens = radii ** (-Q - ALPHA)
        cm = CustomRadialMeasure(2, list(radii), list(dens))
        got = cm.interval_mass(0.1, 0.5)
        want = meas.interval_mass(0.1, 0.5)
        assert got == pytest.approx(want, rel=1e-5)


def _ks_uniform(u):
    """KS distance of the sample u to U(0, 1)."""
    return stats.kstest(u, "uniform").statistic


def _ks_critical(n):
    """The 1% critical value of the one-sample KS distance at n draws."""
    return stats.kstwo.ppf(0.99, n)


def _ks2_critical(n1, n2):
    """The asymptotic 1% critical value of the two-sample KS distance."""
    return 1.6276 * math.sqrt((n1 + n2) / (n1 * n2))


def _custom_measure(q):
    # tabulated and not a power law: sampling inverts its
    # piecewise-linear radial CDF
    radii = np.geomspace(0.05, 1.0, 200)
    return CustomRadialMeasure(q, radii, np.exp(-3.0 * radii) * radii ** (-q - 0.5))


def _radial_cdf(m, a, b, rho):
    """The exact radial CDF of m restricted to (a, b]: closed form for the
    power law; for the custom measure, that of the radial mass density
    rho^(q-1) g(rho) interpolated linearly between the table's nodes (the
    surface factor cancels), by the trapezoid rule over the nodes up to
    each point, which is exact on linear pieces."""
    if isinstance(m, StableLikeMeasure):
        al = m.alpha
        return (a ** -al - rho ** -al) / (a ** -al - b ** -al)
    r = m.radii
    mass = r ** (m.dimension - 1) * m.density

    def F(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(r, x, side="right") - 1, 0, r.size - 2)
        at_nodes = np.concatenate([[0.0], np.cumsum(np.diff(r) * (mass[1:] + mass[:-1]) / 2)])
        return at_nodes[k] + (x - r[k]) * (mass[k] + np.interp(x, r, mass)) / 2

    return (F(rho) - F(a)) / (F(b) - F(a))


class TestCustomRadius:
    """sample_radius of a custom measure inverts the reference CDF."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("a, b", [(0.05, 1.0), (0.1, 0.4), (0.0731, 0.0744), (0.0, 2.0)])
    def test_inverse_of_reference_cdf(self, q, a, b):
        m = _custom_measure(q)
        u = np.linspace(0.0, 1.0, 1001)
        rho = m.sample_radius(a, b, u.copy())
        lo, hi = max(a, m.radii[0]), min(b, m.tau)
        assert np.all((rho >= lo) & (rho <= hi))
        assert np.allclose(_radial_cdf(m, lo, hi, rho), u, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a, b", [(0.05, 1.0), (0.1, 0.4), (0.0731, 0.0744), (0.0, 2.0)])
    def test_mass_and_second_moment_integrate_the_law(self, a, b):
        # against adaptive quadrature of the interpolated radial mass
        # density, split at the table's nodes
        m = _custom_measure(2)
        lo, hi = max(a, m.radii[0]), min(b, m.tau)
        nodes = [r for r in m.radii if lo < r < hi]
        for power, got in ((0, m.interval_mass(a, b)), (2, m.interval_radial_second_moment(a, b))):
            want = sum(integrate.quad(lambda t: t ** power * m.radial_mass_density(t), x0, x1)[0]
                       for x0, x1 in zip([lo] + nodes, nodes + [hi]))
            assert got == pytest.approx(want, rel=1e-10)

    def test_zero_slope_and_zero_density_cells(self):
        radii = [0.1, 0.2, 0.3, 0.4, 0.5]
        u = np.linspace(0.0, 1.0, 101)
        # a flat density at q = 1: zero slopes, uniform radii
        flat = CustomRadialMeasure(1, radii, [1.0] * 5)
        assert np.allclose(flat.sample_radius(0.1, 0.5, u.copy()), 0.1 + 0.4 * u,
                           rtol=0, atol=1e-15)
        # density 0 at the inner node: F(rho) = ((rho - 0.1) / 0.1)^2 on
        # the first cell; the massless last cell is never drawn
        ramp = CustomRadialMeasure(1, radii, [0.0, 1.0, 1.0, 0.0, 0.0])
        assert np.allclose(ramp.sample_radius(0.1, 0.2, u.copy()), 0.1 + 0.1 * np.sqrt(u),
                           rtol=0, atol=1e-15)
        assert ramp.sample_radius(0.1, 0.5, u.copy()).max() == pytest.approx(0.4, abs=1e-15)


class TestIntervalLaw:
    """The exact law of sample_interval, at fixed seeds and 1% critical
    values: q <= 3 takes the ball route, q = 4 the Gaussian-direction one."""

    N = 20_000
    A, B = 0.1, 0.4

    @pytest.fixture(params=[(k, q) for k in ("stable", "custom") for q in (1, 2, 3, 4)],
                    ids=lambda p: f"{p[0]}-q{p[1]}")
    def draw(self, request):
        kind, q = request.param
        m = StableLikeMeasure(q, ALPHA, 1.0) if kind == "stable" else _custom_measure(q)
        z = first_jumps(m, self.A, self.B, self.N, np.random.default_rng(2026 + q))
        rho = np.linalg.norm(z, axis=1)
        return q, z / rho[:, None], rho, _radial_cdf(m, self.A, self.B, rho)

    def test_radii(self, draw):
        _, _, rho, F = draw
        assert rho.min() > self.A and rho.max() <= self.B
        assert _ks_uniform(F) < _ks_critical(self.N)

    def test_directions(self, draw):
        q, u, _, _ = draw
        if q == 1:
            # sign balance: |#positive - n/2| within the two-sided 1% value
            assert abs((u[:, 0] > 0).sum() - self.N / 2) < 2.5758 * math.sqrt(self.N) / 2
            return
        if q == 2:
            v = (np.arctan2(u[:, 1], u[:, 0]) + math.pi) / (2 * math.pi)  # uniform angle
        elif q == 3:
            v = (u[:, 0] + 1) / 2  # Archimedes: u_1 uniform on (-1, 1)
        else:
            v = u[:, 0] ** 2 + u[:, 1] ** 2  # Beta(1, 1) on the 3-sphere
        assert _ks_uniform(v) < _ks_critical(self.N)

    def test_radius_independent_of_direction(self, draw):
        # the radius CDF values of the two direction halves: by sign at
        # q = 1, else by |u_1| against its median
        q, u, _, F = draw
        if q == 1:
            half = u[:, 0] > 0
        else:
            half = np.abs(u[:, 0]) < np.median(np.abs(u[:, 0]))
        d = stats.ks_2samp(F[half], F[~half]).statistic
        assert d < _ks2_critical(half.sum(), (~half).sum())


def dyadic_bands(meas, eps):
    """The (lo, hi, mass) pieces of the decomposition's one interval, from
    the dyadic annulus of eps, cut at eps, down to inner."""
    bands = []
    for r in range(math.floor(-math.log2(eps)), math.ceil(-math.log2(eps)) + 6):
        lo, hi = meas.annulus_bounds(r)
        hi = min(hi, eps)
        bands.append((lo, hi, meas.interval_mass(lo, hi)))
    return bands


class TestDecomposition:
    def test_band_structure(self, meas):
        # dyadic eps = 1/4: one interval (2^-8, 1/4], the six annuli
        # r = 2..7, whose masses add up to its intensity
        dec = AnnulusDecomposition(meas, 0.25)
        assert (dec.lo, dec.hi) == (2.0 ** -8, 0.25)
        assert dec.intensity == meas.interval_mass(2.0 ** -8, 0.25)
        bands = dyadic_bands(meas, 0.25)
        assert (bands[0][1], bands[-1][0]) == (dec.hi, dec.lo)
        assert all(h == l for (l, _, _), (_, h, _) in zip(bands, bands[1:]))  # contiguous
        assert dec.intensity == pytest.approx(sum(m for _, _, m in bands), rel=1e-12)
        # S_1 (inner^-alpha - eps^-alpha) / alpha = 2 pi (2^12 - 2^3) / alpha
        assert dec.intensity == pytest.approx(2 * math.pi * (2.0 ** 12 - 8.0) / ALPHA, rel=1e-14)

    def test_non_dyadic_eps_partial_band(self, meas):
        # eps = 0.2 cuts its annulus (1/8, 1/4] at 0.2: the interval is
        # (2^-9, 0.2], the partial band and the annuli r = 3..8
        dec = AnnulusDecomposition(meas, 0.2)
        assert (dec.lo, dec.hi) == (2.0 ** -9, 0.2)
        bands = dyadic_bands(meas, 0.2)
        assert bands[0][:2] == (0.125, 0.2)
        assert dec.intensity == pytest.approx(sum(m for _, _, m in bands), rel=1e-12)
        want = 2 * math.pi * (2.0 ** 13.5 - 0.2 ** -ALPHA) / ALPHA
        assert dec.intensity == pytest.approx(want, rel=1e-14)

    def test_gaussianize_tail_variance_matched(self, meas):
        # the band second moments plus the sub-resolution tail reassemble
        # the closed-form small-jump variance
        eps = 0.25
        dec = AnnulusDecomposition(meas, eps)
        band_var = sum(
            meas.interval_radial_second_moment(lo, hi) / Q for lo, hi, _ in dyadic_bands(meas, eps)
        )
        assert dec.tail_variance == meas.interval_variance(0.0, dec.lo)
        assert band_var + dec.tail_variance == pytest.approx(
            meas.small_jump_variance(eps), rel=1e-12
        )

    def test_draw_interval_spans_bands_with_mass(self, meas):
        dec = AnnulusDecomposition(meas, 0.2)
        assert (dec.lo, dec.hi) == (2.0 ** -9, 0.2)  # inner = 2^-(ceil(-log2 0.2) + 6)
        # zero density on [1/4, 1/2]: the band next to eps = 1/2 carries no
        # mass, so the interval (2^-7, 1/2] has the mass and the radial law
        # of (2^-7, 1/4], and draws the same jumps
        radii = 2.0 ** (np.arange(-32, 1) / 4)
        gap = CustomRadialMeasure(2, radii, np.where(radii >= 0.25, 0.0, radii ** -3.5))
        dec = AnnulusDecomposition(gap, 0.5)
        assert (dec.lo, dec.hi) == (2.0 ** -7, 0.5)
        assert dec.intensity == gap.interval_mass(dec.lo, 0.25)
        assert dec.intensity == pytest.approx(6160.9401282912295, rel=1e-12)
        for seed in range(3):
            wide = gap.sample_interval(dec.lo, dec.hi, 500, np.random.default_rng(seed))
            cut = gap.sample_interval(dec.lo, 0.25, 500, np.random.default_rng(seed))
            assert wide.tobytes() == cut.tobytes()

    def test_small_jump_covariance_eps_outside_support(self, meas):
        # one rule with AnnulusDecomposition: eps must lie in (0, tau]
        for eps in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(LevyError, match="tau"):
                meas.small_jump_variance(eps)
        assert meas.small_jump_variance(1.0) > 0

    def test_custom_tail_below_table_is_empty(self):
        # the table starts at 0.01, above inner = 2^-7 of eps = 1/2: the
        # sub-resolution tail (0, 2^-7] carries no variance
        radii = np.linspace(0.01, 1.0, 50)
        cm = CustomRadialMeasure(2, radii, radii ** -3.5)
        assert cm.interval_radial_second_moment(0.0, 2.0 ** -7) == 0.0
        dec = AnnulusDecomposition(cm, 0.5)
        assert dec.tail_variance == 0.0

    def test_intensity_guard(self, meas):
        # eps = 2^-14 needs ~4.5e9 jumps per unit time: refuse, not hang
        with pytest.raises(LevyError, match="larger eps") as info:
            AnnulusDecomposition(meas, 2.0 ** -14)
        assert "4.49e+09" in str(info.value)
        assert "6.103515625e-05" in str(info.value)
        # 2^-12 is just over the budget (5.61e8), 2^-11 within it
        with pytest.raises(LevyError):
            AnnulusDecomposition(meas, 2.0 ** -12)
        assert AnnulusDecomposition(meas, 2.0 ** -11).intensity < 5e8

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_unrepresentable_intensity_is_over_budget(self, meas, eps):
        # at 1e-300, inner ** -alpha overflows a float; at 5e-324 inner
        # underflows to 0.0 and 0.0 ** -alpha divides by zero: either is
        # an intensity over the budget
        with pytest.raises(LevyError, match="larger eps") as info:
            AnnulusDecomposition(meas, eps)
        assert "intensity of inf" in str(info.value)


class TestCharacteristicProbe:
    def test_probe_value_frozen(self, meas):
        # frozen oracle: Bessel-quadrature evaluation of the rescaled
        # annulus characteristic function, sup over |s| in [8, 60]
        grid = np.linspace(8.0, 60.0, 200)
        assert cramer_probe(meas, 4, 8.0, grid) == pytest.approx(0.100733, abs=2e-4)

    def test_probe_r_independent_for_power_law(self, meas):
        # the rescaled annulus law of a pure power law does not depend on r
        grid = np.linspace(8.0, 40.0, 100)
        v1 = cramer_probe(meas, 2, 8.0, grid)
        v2 = cramer_probe(meas, 6, 8.0, grid)
        assert v1 == pytest.approx(v2, rel=1e-10)

    @given(st.floats(0.05, 0.45), st.floats(0.05, 0.95))
    @settings(deadline=None, max_examples=30)
    def test_amplify_bounds(self, delta, gamma):
        rho = 8.0
        g = cramer_amplify(rho, gamma, delta)
        assert gamma < 1 and 0 < g < 1
        assert g >= gamma  # covering dilations can only weaken the rate


class TestConfig:
    def test_stable_like_from_config(self):
        m = measure_from_config({"kind": "stable-like", "q": "2", "alpha": "1.5"})
        assert isinstance(m, StableLikeMeasure)
        assert m.alpha == 1.5

    def test_unknown_kind(self):
        with pytest.raises(LevyError):
            measure_from_config({"kind": "tempered"})

    def test_alpha_range_enforced(self):
        with pytest.raises(LevyError):
            StableLikeMeasure(2, 2.5, 1.0)


class TestBesselLoad:
    @pytest.mark.parametrize("order", ["scipy.special first", "levyedge first"])
    def test_jv_equals_scipy_special(self, order):
        # the jv of the extension loaded alone and scipy.special's own coexist,
        # in either import order, and agree bit for bit at the orders q/2 - 1
        # of q = 2..5, on arguments from 1e-300 to 1e4 and negative ones
        code = (
            "import numpy as np\n"
            + ("import scipy.special\nfrom levyedge.levy import special\n"
               if order == "scipy.special first" else
               "from levyedge.levy import special\nimport scipy.special\n")
            + "assert special.jv is not scipy.special.jv\n"
            "u = np.concatenate([np.logspace(-300, 4, 3001), np.linspace(0.0, 200.0, 2001),\n"
            "                    -np.logspace(-12, 3, 301)])\n"
            "for p in (0.0, 0.5, 1.0, 1.5):\n"
            "    assert np.array_equal(special.jv(p, u), scipy.special.jv(p, u), equal_nan=True), p\n"
        )
        src = str(Path(levy.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
