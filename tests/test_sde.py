"""Coupled Euler schemes for jump-driven dynamics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levyedge.edgeworth import CumulantSet, build_Q
from levyedge.levy import CustomRadialMeasure, StableLikeMeasure
from levyedge.perturbation import invert_S_map
from levyedge.sampling import RngStream
from levyedge.sde import (
    MODE_GAUSSIANIZED,
    MODE_PERTURBED,
    CoupledResult,
    SchemeConfig,
    SdeError,
    SdeSpec,
    _radial_rank_match,
    coupled_paths,
    euler_path,
)

MEAS = StableLikeMeasure(2, 1.5, 1.0)


def null_measure():
    # tabulated zero density: a measure with no jumps at all
    radii = np.linspace(0.05, 1.0, 16)
    return CustomRadialMeasure(2, list(radii), [0.0] * 16)


def diag_sigma(scale=1.0):
    def fn(x):
        m = x.shape[0]
        s = np.zeros((m, 2, 2))
        s[:, 0, 0] = s[:, 1, 1] = scale
        return s
    return fn


def contractive_sigma(x):
    m = x.shape[0]
    n2 = (x ** 2).sum(axis=1)
    base = 0.6 + 0.4 / (1.0 + n2)
    s = np.zeros((m, 2, 2))
    s[:, 0, 0] = s[:, 1, 1] = base
    s[:, 0, 1] = s[:, 1, 0] = 0.1 / (1.0 + n2)
    return s


def make_spec(sigma_fn, measure=MEAS, a=(0.1, -0.1), b=0.3):
    return SdeSpec(
        d=2, q=2, a=np.array(a), B=b * np.eye(2), sigma_fn=sigma_fn,
        x0=np.zeros(2), T=1.0, measure=measure,
    )


class TestEulerPath:
    def test_pure_drift(self):
        # measure-free, B = 0: the scheme is the deterministic Euler map
        spec = make_spec(diag_sigma(), measure=None, a=(1.0, 2.0), b=0.0)
        cfg = SchemeConfig(h=0.25, eps=0.5)
        out = euler_path(spec, cfg, RngStream(0, 0), n_paths=3)
        want = np.array([1.0, 2.0])  # sigma = I, x_N = N h a
        assert np.allclose(out[:, -1], want, rtol=1e-12)

    def test_reproducible(self):
        spec = make_spec(contractive_sigma)
        cfg = SchemeConfig(h=0.125, eps=0.25)
        a = euler_path(spec, cfg, RngStream(42, 0), n_paths=4)
        b = euler_path(spec, cfg, RngStream(42, 0), n_paths=4)
        assert np.array_equal(a, b)

    def test_shapes(self):
        spec = make_spec(contractive_sigma)
        cfg = SchemeConfig(h=0.25, eps=0.25)
        out = euler_path(spec, cfg, RngStream(1, 1), n_paths=5)
        assert out.shape == (5, 5, 2)

    def test_perturbed_mode_needs_map(self):
        spec = make_spec(contractive_sigma)
        cfg = SchemeConfig(h=0.25, eps=0.25, mode=MODE_PERTURBED)
        with pytest.raises(SdeError):
            euler_path(spec, cfg, RngStream(2, 0), n_paths=4)

    def test_perturbed_order_zero_is_gaussianized(self):
        # order 0 switches the perturbation off: the draw is the plain
        # Gaussian surrogate from the same stream
        c = CumulantSet(2, 3, {(2, 0): Fraction(1), (0, 2): Fraction(1), (3, 0): Fraction(1)})
        pmap = invert_S_map(build_Q(c, 1), c.covariance)
        spec = make_spec(contractive_sigma)
        pert = euler_path(spec, SchemeConfig(h=0.25, eps=0.25, mode=MODE_PERTURBED),
                          RngStream(3, 0), n_paths=6, pert_map=pmap, pert_eps=0.5, pert_order=0)
        plain = euler_path(spec, SchemeConfig(h=0.25, eps=0.25, mode=MODE_GAUSSIANIZED),
                           RngStream(3, 0), n_paths=6)
        assert np.array_equal(pert, plain)


class TestRadialRankMatch:
    def test_marginal_preserved(self):
        # the matched cloud is a permutation of the surrogate radii
        rng = np.random.default_rng(0)
        z = rng.standard_normal((500, 2)) * 0.3
        g = rng.standard_normal((500, 2))
        m = _radial_rank_match(z, g)
        assert np.allclose(
            np.sort(np.linalg.norm(m, axis=1)), np.sort(np.linalg.norm(g, axis=1)),
            rtol=1e-12,
        )

    def test_directions_kept(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((300, 2))
        g = rng.standard_normal((300, 2))
        m = _radial_rank_match(z, g)
        cos = (m * z).sum(axis=1) / (
            np.linalg.norm(m, axis=1) * np.linalg.norm(z, axis=1)
        )
        assert np.allclose(cos, 1.0, atol=1e-10)

    def test_beats_or_matches_assignment_cost(self):
        # for isotropic clouds the radial pairing is the optimal coupling,
        # so its cost cannot exceed the identity pairing by much and must
        # match the exact assignment on the same clouds
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(2)
        z = rng.standard_normal((200, 2)) * 1.1
        g = rng.standard_normal((200, 2))
        m = _radial_rank_match(z, g)
        radial_cost = float(((z - m) ** 2).sum())
        cost = cdist(z, g, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        assert radial_cost <= cost[rows, cols].sum() * 1.05


class TestCoupledPaths:
    def test_zero_sigma_zero_error(self):
        spec = make_spec(lambda x: np.zeros((x.shape[0], 2, 2)))
        cfg = SchemeConfig(h=0.25, eps=0.25, fine_substeps=4)
        res = coupled_paths(spec, cfg, 8, RngStream(3, 0))
        assert np.all(res.sup_distance == 0)

    def test_constant_sigma_no_jumps_schemes_coincide(self):
        # additive noise without jumps: fine substeps telescope into the
        # coarse step, so the two schemes agree exactly
        spec = make_spec(diag_sigma(0.7), measure=null_measure())
        cfg = SchemeConfig(h=0.25, eps=0.25, fine_substeps=8)
        res = coupled_paths(spec, cfg, 8, RngStream(4, 0))
        assert np.all(res.sup_distance < 1e-12)

    def test_reproducible_and_coupled(self):
        spec = make_spec(contractive_sigma)
        cfg = SchemeConfig(h=0.25, eps=0.25, fine_substeps=4)
        r1 = coupled_paths(spec, cfg, 16, RngStream(5, 0))
        r2 = coupled_paths(spec, cfg, 16, RngStream(5, 0))
        assert np.array_equal(r1.exact, r2.exact)
        assert np.array_equal(r1.approx, r2.approx)
        # shared randomness keeps the pair far closer than independence would
        assert np.sqrt(np.mean(r1.sup_distance ** 2)) < 1.0

    def test_needs_measure_and_replicates(self):
        spec = make_spec(contractive_sigma, measure=None)
        with pytest.raises(SdeError):
            coupled_paths(spec, SchemeConfig(h=0.25, eps=0.25), 8, RngStream(0, 0))
        spec2 = make_spec(contractive_sigma)
        with pytest.raises(SdeError):
            coupled_paths(spec2, SchemeConfig(h=0.25, eps=0.25), 1, RngStream(0, 0))
