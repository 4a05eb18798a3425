"""Reproducible streams and the increment samplers built on them."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyedge import sampling
from levyedge.edgeworth import CumulantSet, build_Q, edgeworth_signed_moments
from levyedge.levy import AnnulusDecomposition, CustomRadialMeasure, LevyError, StableLikeMeasure
from levyedge.perturbation import invert_S_map
from levyedge.sampling import (
    RngStream,
    SamplingError,
    derive_stream_id,
    sample_big_jumps,
    sample_compound_poisson,
    sample_gaussian,
    sample_perturbed_normal,
    sample_small_jumps,
    sym_sqrt,
)
from levyedge.sde import SchemeConfig, SdeError, SdeSpec, coupled_paths


class TestStreams:
    def test_reproducible(self):
        a = RngStream(123, 45).standard_normal(8)
        b = RngStream(123, 45).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 45).standard_normal(8)
        b = RngStream(123, 46).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_order_independent(self):
        root = RngStream(9, 0)
        first = root.child(3, 7, "w").standard_normal(4)
        # drawing from other children must not disturb the (3, 7) stream
        root.child(0, 0, "w").standard_normal(100)
        again = root.child(3, 7, "w").standard_normal(4)
        assert np.array_equal(first, again)

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(deadline=None, max_examples=50)
    def test_stream_id_purpose_separation(self, rep, step):
        assert derive_stream_id(rep, step, "bw") != derive_stream_id(rep, step, "jump")


class TestGaussian:
    def test_sym_sqrt_squares_back(self):
        sig = np.array([[2.0, 0.6], [0.6, 1.0]])
        root = sym_sqrt(sig)
        assert np.allclose(root @ root, sig, rtol=1e-12)
        assert np.allclose(root, root.T, rtol=1e-12)

    def test_sym_sqrt_rejects_indefinite(self):
        with pytest.raises(SamplingError):
            sym_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sample_covariance(self):
        sig = np.array([[2.0, 0.5], [0.5, 1.0]])
        z = sample_gaussian(sig, RngStream(1, 2), 200_000)
        emp = np.cov(z.T)
        assert np.allclose(emp, sig, atol=0.02)

    @pytest.mark.parametrize("sig", [np.array([[1.5]]), np.array([[2.0, 0.5], [0.5, 1.0]])])
    def test_into_buffers_equals_allocating(self, sig):
        n, q = 1000, sig.shape[0]
        want = sample_gaussian(sig, RngStream(1, 3), n)
        out, scratch = np.empty((n, q)), np.empty((n, q))
        got = sample_gaussian(sig, RngStream(1, 3), n, out=out, scratch=scratch)
        assert got is out and want.tobytes() == out.tobytes()


class TestPerturbedNormal:
    def pmap(self):
        c = CumulantSet(1, 3, {(2,): Fraction(1), (3,): Fraction(2)})
        return invert_S_map(build_Q(c, 1), [[1]])

    def test_r0_equals_plain_gaussian(self):
        pmap = self.pmap()
        a = sample_perturbed_normal(pmap, 0.2, 0, RngStream(5, 1), 64)
        b = sample_gaussian(np.eye(1), RngStream(5, 1), 64)
        assert np.array_equal(a, b)

    def test_into_buffers_equals_allocating(self):
        pmap = self.pmap()
        want = sample_perturbed_normal(pmap, 0.2, 1, RngStream(5, 3), 1000)
        out, scratch = np.empty((1000, 1)), np.empty((1000, 1))
        got = sample_perturbed_normal(pmap, 0.2, 1, RngStream(5, 3), 1000, out=out,
                                      scratch=scratch)
        assert got is out and want.tobytes() == out.tobytes()

    def test_third_moment_matches_expansion(self):
        # E Y^3 of the perturbed draw should track the signed-density
        # moment 2 eps to first order
        pmap = self.pmap()
        eps = 0.1
        y = sample_perturbed_normal(pmap, eps, 1, RngStream(5, 2), 400_000)
        c = CumulantSet(1, 3, {(2,): Fraction(1), (3,): Fraction(2)})
        want = float(edgeworth_signed_moments(c, build_Q(c, 1), Fraction(1, 10), 3)[(3,)])
        assert np.mean(y ** 3) == pytest.approx(want, abs=0.02)


class TestCompoundPoisson:
    def test_zero_intensity(self):
        meas = StableLikeMeasure(2, 1.5, 1.0)
        out = sample_compound_poisson(meas, 0.25, 0.5, 0.0, 1.0, RngStream(0, 0), 5)
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_chunking_consistency(self, monkeypatch):
        # the planned slicing and reduceat scatter reproduce the row-by-row
        # loop bit for bit (same sample_interval calls, same sums), over
        # dimensions, jump budgets and mean counts per replicate; no
        # call draws more than the budget
        for q, mean_count, budget in itertools.product([1, 2, 3], [0.3, 4.0, 30.0], [1, 5, 64]):
            meas = StableLikeMeasure(q, 1.5, 1.0)
            blocks = []
            draw = meas.sample_interval

            def recorded(a, b, c, g, draw=draw):
                blocks.append(c)
                return draw(a, b, c, g)

            monkeypatch.setattr(meas, "sample_interval", recorded)
            monkeypatch.setattr(sampling, "_JUMP_BUDGET", budget)
            a = sample_compound_poisson(meas, 0.25, 0.5, mean_count, 1.0, RngStream(7, q), 300)
            kernel = blocks[:]
            blocks.clear()
            b = compound_poisson_row_loop(meas, 0.25, 0.5, mean_count, 1.0,
                                          RngStream(7, q).generator, 300, budget)
            assert np.array_equal(a, b), (q, mean_count, budget)
            assert kernel == blocks
            assert max(kernel) <= budget  # memory stays bounded
            if mean_count > 1:
                assert len(kernel) > 1
            else:
                assert (a == 0).all(axis=1).any()  # jump-free rows

    def test_long_replicate_memory_bounded(self, monkeypatch):
        # one replicate of about 2^22 jumps is drawn in budget-sized
        # pieces: the peak stays far below its (n, q) jump array
        meas = StableLikeMeasure(2, 1.5, 1.0)
        calls = []
        draw = meas.sample_interval

        def recorded(a, b, c, g):
            calls.append(c)
            return draw(a, b, c, g)

        monkeypatch.setattr(meas, "sample_interval", recorded)
        tracemalloc.start()
        try:
            out = sample_compound_poisson(meas, 0.25, 0.5, float(1 << 22), 1.0, RngStream(3, 0), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(calls) > 4_000_000 and max(calls) <= sampling._JUMP_BUDGET
        assert peak < (1 << 22) * 2 * 8 / 16, peak
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("draw", ["compound", "small", "small-no-bands", "big"])
    def test_negative_time_rejected(self, draw):
        meas = StableLikeMeasure(2, 1.5, 1.0)
        # zero density: the decomposition has no bands to draw from
        empty = CustomRadialMeasure(2, np.linspace(0.1, 1.0, 16), np.zeros(16))
        calls = {
            "compound": lambda: sample_compound_poisson(
                meas, 0.25, 0.5, 1.0, -1.0, RngStream(0, 0), 3),
            "small": lambda: sample_small_jumps(
                AnnulusDecomposition(meas, 0.5), -1.0, RngStream(0, 0), 3),
            "small-no-bands": lambda: sample_small_jumps(
                AnnulusDecomposition(empty, 0.5), -1.0, RngStream(0, 0), 3),
            "big": lambda: sample_big_jumps(meas, 0.5, -1.0, RngStream(0, 0), 3),
        }
        with pytest.raises(SamplingError, match="t must be nonnegative"):
            calls[draw]()


def compound_poisson_row_loop(spec, lo, hi, intensity, t, g, n, budget):
    """Reference kernel: plan runs of rows one row at a time, then sum each
    row's own slice of the run's jumps on its own; a row over the budget
    is drawn and summed in pieces of the budget."""
    out = np.zeros((n, spec.dimension))
    counts = g.poisson(t * intensity, size=n)
    start = 0
    while start < n:
        stop = start
        block = 0
        while stop < n and (block == 0 or block + counts[stop] <= budget):
            block += counts[stop]
            stop += 1
        if block > budget:
            # one row over the budget: the sums of its pieces, in draw order
            for done in range(0, int(block), budget):
                jumps = spec.sample_interval(lo, hi, min(budget, int(block) - done), g)
                out[stop - 1] += np.add.reduceat(jumps, [0], axis=0)[0]
        elif block:
            jumps = spec.sample_interval(lo, hi, int(block), g)
            first = 0
            for row in range(start, stop):
                if counts[row]:
                    row_jumps = jumps[first:first + counts[row]]
                    out[row] = np.add.reduceat(row_jumps, [0], axis=0)[0]
                    first += counts[row]
        start = stop
    return out


def _gapped_measure():
    """q = 2 power law with zero density on [1/16, 1/8]: that dyadic band
    carries no mass, so the decomposition drops it."""
    radii = 2.0 ** (np.arange(-32, 1) / 4)
    density = np.where((radii >= 1 / 16) & (radii <= 1 / 8), 0.0, radii ** -3.5)
    return CustomRadialMeasure(2, radii, density)


def _edge_gap_measure():
    """q = 2 power law with zero density on [1/4, 1/2]: the outermost band
    below eps = 1/2 carries no mass, so one draw covers (inner, 1/4]."""
    radii = 2.0 ** (np.arange(-32, 1) / 4)
    density = np.where((radii >= 1 / 4) & (radii <= 1 / 2), 0.0, radii ** -3.5)
    return CustomRadialMeasure(2, radii, density)


class TestSmallJumpLaw:
    @pytest.mark.parametrize("meas", [
        StableLikeMeasure(1, 1.5, 1.0), StableLikeMeasure(2, 1.5, 1.0), _gapped_measure(),
        _edge_gap_measure(),
    ], ids=["q1", "q2", "zero-mass-band", "zero-mass-edge-band"])
    def test_one_draw_spreads_jumps_over_bands(self, meas, monkeypatch):
        # one compound-Poisson draw over (inner, eps] puts a share
        # mass_b / intensity of its jumps in each band b, as the sum of
        # one draw per band would
        dec = AnnulusDecomposition(meas, 0.5)
        radii, calls = [], []
        draw = meas.sample_interval

        def recorded(a, b, c, g):
            z = draw(a, b, c, g)
            radii.append(np.linalg.norm(z, axis=1))
            return z

        def counted(*args, **kwargs):
            calls.append(args[:4])
            return sample_compound_poisson(*args, **kwargs)

        monkeypatch.setattr(meas, "sample_interval", recorded)
        monkeypatch.setattr(sampling, "sample_compound_poisson", counted)
        for seed in range(3):
            sample_small_jumps(dec, 0.5, RngStream(11, seed), 200)
        # one draw over (lo, hi], the span of the bands with mass
        assert calls == [(meas, dec.bands[-1][0], dec.bands[0][1], dec.intensity)] * 3
        rho = np.concatenate(radii)
        lo = np.array([b[0] for b in dec.bands])
        hi = np.array([b[1] for b in dec.bands])
        inside = (rho[:, None] > lo) & (rho[:, None] <= hi)
        assert (inside.sum(axis=1) == 1).all()  # no jump outside the bands
        share = np.array([b[2] for b in dec.bands]) / dec.intensity
        counts = inside.sum(axis=0)
        bound = 5 * np.sqrt(rho.size * share * (1 - share))
        assert (np.abs(counts - rho.size * share) <= bound).all(), (counts, rho.size * share)


class TestLevyIncrement:
    MEAS = StableLikeMeasure(2, 1.5, 1.0)

    def test_small_jump_covariance_tracks_closed_form(self):
        eps, t = 0.5, 0.5
        dec = AnnulusDecomposition(self.MEAS, eps)
        z = sample_small_jumps(dec, t, RngStream(3, 1), 40_000)
        want = t * self.MEAS.small_jump_covariance(eps)
        emp = np.cov(z.T)
        assert np.allclose(emp, want, rtol=0.08, atol=0.08)

    def test_gaussianized_matches_exact_moments(self):
        # the driving increment a h + B W_h + small + big keeps its mean
        # and covariance when the exact small-jump sum is replaced by its
        # Gaussian surrogate sqrt(h) Sigma_eps^(1/2) xi
        a = np.array([0.2, -0.1])
        B = 0.4 * np.eye(2)
        eps, h, n = 0.5, 0.5, 25_000
        dec = AnnulusDecomposition(self.MEAS, eps)
        root = sym_sqrt(self.MEAS.small_jump_covariance(eps))

        def increment(g, small):
            bw = math.sqrt(h) * g.standard_normal((n, 2)) @ B.T
            return a * h + bw + small + sample_big_jumps(self.MEAS, eps, h, g, n)

        ge, gg = RngStream(4, 1), RngStream(4, 2)
        ze = increment(ge, sample_small_jumps(dec, h, ge, n))
        zg = increment(gg, math.sqrt(h) * gg.standard_normal((n, 2)) @ root.T)
        assert np.allclose(ze.mean(axis=0), zg.mean(axis=0), atol=0.08)
        assert np.allclose(np.cov(ze.T), np.cov(zg.T), rtol=0.1, atol=0.1)

    def test_eps_beyond_tau_rejected(self):
        # the cutoff is the step h, which must lie in (0, 1)
        with pytest.raises(SdeError):
            SchemeConfig(h=2.0)
        # h inside (0, 1) but beyond a smaller support radius
        meas = StableLikeMeasure(2, 1.5, 0.25)
        spec = SdeSpec(d=2, a=np.zeros(2), B=np.eye(2), x0=np.zeros(2), T=1.0,
                       measure=meas, sigma_fn=lambda x: np.tile(np.eye(2), (x.shape[0], 1, 1)))
        with pytest.raises(LevyError):
            coupled_paths(spec, SchemeConfig(h=0.5), 4, RngStream(0, 0))

    def test_big_jumps_mean_and_variance(self):
        # compound Poisson over eps < |z| <= tau: mean 0 (isotropy) and
        # per-coordinate variance t * (radial second moment) / q
        eps, t = 0.5, 0.5
        z = sample_big_jumps(self.MEAS, eps, t, RngStream(5, 1), 20_000)
        want = t * self.MEAS.interval_radial_second_moment(eps, self.MEAS.tau) / 2
        assert np.allclose(z.mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(z.var(axis=0), want, rtol=0.05)
        assert not sample_big_jumps(self.MEAS, self.MEAS.tau, t, RngStream(5, 1), 8).any()
