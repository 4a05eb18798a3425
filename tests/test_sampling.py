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

    @pytest.mark.parametrize("seed, stream_id, key", [
        # a master seed of 2^32 and up (-1 is 2^64 - 1): word pairs and a tag
        pytest.param(-1, 0, [2**32 - 1, 2**32 - 1, 0, 0, 1], id="-1-0"),
        pytest.param(9, 2**63, [9, 2**63], id=f"9-{2**63}"),
        pytest.param(-1, 2**64 - 1, [2**32 - 1] * 4 + [1], id=f"-1-{2**64 - 1}"),
        pytest.param(2024, derive_stream_id(3, 7, "w"), [2024, derive_stream_id(3, 7, "w")],
                     id=f"2024-{derive_stream_id(3, 7, 'w')}"),
    ])
    def test_stream_is_pcg64dxsm_of_its_key(self, seed, stream_id, key):
        want = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(key)))
        got = RngStream(seed, stream_id)
        assert got.generator.bit_generator.state == want.bit_generator.state

        def draws(g):
            return (g.random(64), g.standard_normal(64), g.standard_gamma(2.5, 64),
                    g.poisson(3.0, 64))

        assert [d.tobytes() for d in draws(got)] == [d.tobytes() for d in draws(want)]


    @pytest.mark.parametrize("a, b", [((5, 3 + 7 * 2**32), (5 + 3 * 2**32, 7)),
                                      ((5 + 7 * 2**32, 0), (5, 7)),
                                      ((-1, 0), (2**32 - 1, 2**32 - 1))])
    def test_large_seeds_keep_distinct_keys(self, a, b):
        # SeedSequence joins the 32-bit words of its entries and pads short
        # entropy with zeros: these pairs would draw one stream
        assert not np.array_equal(RngStream(*a).random(4), RngStream(*b).random(4))

    def test_small_seed_keys_unchanged(self):
        want = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([5, 7])))
        assert RngStream(5, 7).random(64).tobytes() == want.random(64).tobytes()


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
        z = sample_gaussian(sym_sqrt(sig), RngStream(1, 2), 200_000)
        emp = np.cov(z.T)
        assert np.allclose(emp, sig, atol=0.02)

    @pytest.mark.parametrize("sig", [np.array([[1.5]]), np.array([[2.0, 0.5], [0.5, 1.0]])])
    def test_into_buffers_equals_allocating(self, sig):
        n, q, root = 1000, sig.shape[0], sym_sqrt(sig)
        want = sample_gaussian(root, RngStream(1, 3), n)
        out, scratch = np.empty((n, q)), np.empty((n, q))
        got = sample_gaussian(root, RngStream(1, 3), n, out=out, scratch=scratch)
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
        # the block loop and its reduceat scatter reproduce a row-by-row
        # reference bit for bit (same sample_interval calls, same sums),
        # over dimensions, block sizes and mean counts per replicate; no
        # call draws more than _BLOCK candidates
        for q, mean_count, block in itertools.product([1, 2, 3, 4], [0.3, 4.0, 30.0], [1, 5, 64]):
            meas = StableLikeMeasure(q, 1.5, 1.0)
            calls = []
            draw = meas.sample_interval

            def recorded(a, b, k, g, draw=draw):
                calls.append(k)
                return draw(a, b, k, g)

            monkeypatch.setattr(meas, "sample_interval", recorded)
            monkeypatch.setattr(sampling, "_BLOCK", block)
            a = sample_compound_poisson(meas, 0.25, 0.5, mean_count, 1.0, RngStream(7, q), 300)
            kernel = calls[:]
            calls.clear()
            b, counts = compound_poisson_row_loop(meas, 0.25, 0.5, mean_count, 1.0,
                                                  RngStream(7, q).generator, 300, block)
            assert np.array_equal(a, b), (q, mean_count, block)
            assert kernel == calls
            assert max(kernel) <= block  # memory stays bounded
            assert (a[counts == 0] == 0).all()  # jump-free rows
            if mean_count > 1:
                assert len(kernel) > 1
            else:
                assert (counts == 0).any()

    def test_long_replicate_memory_bounded(self, monkeypatch):
        # one replicate of about 2^22 jumps is drawn in blocks of at most
        # _BLOCK candidates: the peak stays far below its (n, q) jump array
        meas = StableLikeMeasure(2, 1.5, 1.0)
        calls, jumps = [], []
        draw = meas.sample_interval

        def recorded(a, b, k, g):
            calls.append(k)
            z = draw(a, b, k, g)
            jumps.append(len(z))
            return z

        monkeypatch.setattr(meas, "sample_interval", recorded)
        tracemalloc.start()
        try:
            out = sample_compound_poisson(meas, 0.25, 0.5, float(1 << 22), 1.0, RngStream(3, 0), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(jumps) > 4_000_000 and max(calls) <= sampling._BLOCK
        assert peak < (1 << 22) * 2 * 8 / 16, peak
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("draw", ["compound", "small", "small-no-bands", "big"])
    def test_negative_time_rejected(self, draw):
        meas = StableLikeMeasure(2, 1.5, 1.0)
        # zero density: the decomposition's interval carries no mass
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


def compound_poisson_row_loop(spec, lo, hi, intensity, t, g, n, block):
    """Reference kernel: the jumps of blocks of at most `block` candidates,
    the last sized for the jumps still needed (spec.candidates),
    concatenated into one stream; each row sums its own slice of it, cut
    at the block boundaries, piece by piece in draw order.  Returns the
    sums and the Poisson counts."""
    q = spec.dimension
    counts = g.poisson(t * intensity, size=n)
    total = int(counts.sum())
    blocks, drawn = [], 0
    while drawn < total:
        need = total - drawn
        blocks.append(spec.sample_interval(lo, hi, min(block, spec.candidates(need)), g)[:need])
        drawn += len(blocks[-1])
    stream = np.concatenate(blocks) if blocks else np.empty((0, q))
    ends = np.cumsum([len(z) for z in blocks])  # stream position after each block
    out = np.zeros((n, q))
    start = 0
    for row in range(n):
        stop = start + int(counts[row])
        # a jump-free row or a block without jumps gives no piece
        cuts = sorted({start, stop} | {int(e) for e in ends if start < e < stop})
        for u, v in zip(cuts, cuts[1:]):
            out[row] += np.add.reduceat(stream[u:v], [0], axis=0)[0]
        start = stop
    return out, counts


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
        # mass_b / intensity of its jumps in each dyadic band b, as the sum
        # of one draw per band would, and none in a band without mass
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
        # one draw over (lo, hi] = (inner, eps], inner = 2^-(1 + 6)
        assert calls == [(meas, 2.0 ** -7, 0.5, dec.intensity)] * 3
        # the six annuli r = 1..6 tile (lo, hi]
        bounds = np.array([meas.annulus_bounds(r) for r in range(1, 7)])
        mass = np.array([meas.interval_mass(a, b) for a, b in bounds])
        assert (bounds[0, 1], bounds[-1, 0]) == (dec.hi, dec.lo)
        assert mass.sum() == pytest.approx(dec.intensity, rel=1e-12)
        rho = np.concatenate(radii)
        inside = (rho[:, None] > bounds[:, 0]) & (rho[:, None] <= bounds[:, 1])
        assert (inside.sum(axis=1) == 1).all()  # no jump outside the interval
        share = mass / dec.intensity
        counts = inside.sum(axis=0)
        assert (counts[share == 0] == 0).all()  # no jump in a band without mass
        bound = 5 * np.sqrt(rho.size * share * (1 - share))
        assert (np.abs(counts - rho.size * share) <= bound).all(), (counts, rho.size * share)


class TestLevyIncrement:
    MEAS = StableLikeMeasure(2, 1.5, 1.0)

    def test_small_jump_covariance_tracks_closed_form(self):
        eps, t = 0.5, 0.5
        dec = AnnulusDecomposition(self.MEAS, eps)
        z = sample_small_jumps(dec, t, RngStream(3, 1), 40_000)
        want = t * self.MEAS.small_jump_variance(eps) * np.eye(2)
        emp = np.cov(z.T)
        assert np.allclose(emp, want, rtol=0.08, atol=0.08)

    def test_gaussianized_matches_exact_moments(self):
        # the driving increment a h + B W_h + small + big keeps its mean
        # and covariance when the exact small-jump sum is replaced by its
        # Gaussian surrogate sqrt(h) Sigma_eps^(1/2) xi, Sigma_eps = s^2 I
        a = np.array([0.2, -0.1])
        B = 0.4 * np.eye(2)
        eps, h, n = 0.5, 0.5, 25_000
        dec = AnnulusDecomposition(self.MEAS, eps)
        s = math.sqrt(self.MEAS.small_jump_variance(eps))

        def increment(g, small):
            bw = math.sqrt(h) * g.standard_normal((n, 2)) @ B.T
            return a * h + bw + small + sample_big_jumps(self.MEAS, eps, h, g, n)

        ge, gg = RngStream(4, 1), RngStream(4, 2)
        ze = increment(ge, sample_small_jumps(dec, h, ge, n))
        zg = increment(gg, math.sqrt(h) * gg.standard_normal((n, 2)) * s)
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
        # the decomposition coupled_paths takes at h = 0.5 cannot be built
        with pytest.raises(LevyError):
            AnnulusDecomposition(meas, 0.5)
        # and one of a cutoff inside the support does not stand in for it
        with pytest.raises(SdeError, match="eps = cfg.h"):
            coupled_paths(spec, SchemeConfig(h=0.5), AnnulusDecomposition(meas, 0.25), 4,
                          RngStream(0, 0))

    def test_big_jumps_mean_and_variance(self):
        # compound Poisson over eps < |z| <= tau: mean 0 (isotropy) and
        # per-coordinate variance t * (radial second moment) / q
        eps, t = 0.5, 0.5
        z = sample_big_jumps(self.MEAS, eps, t, RngStream(5, 1), 20_000)
        want = t * self.MEAS.interval_radial_second_moment(eps, self.MEAS.tau) / 2
        assert np.allclose(z.mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(z.var(axis=0), want, rtol=0.05)
        assert not sample_big_jumps(self.MEAS, self.MEAS.tau, t, RngStream(5, 1), 8).any()
