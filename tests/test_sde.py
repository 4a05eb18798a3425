"""Coupled Euler schemes for jump-driven dynamics."""

import numpy as np
import pytest

from levyedge import sde
from levyedge.levy import AnnulusDecomposition, CustomRadialMeasure, StableLikeMeasure
from levyedge.sampling import RngStream
from levyedge.sde import (
    MAX_PATH_SIZE,
    SchemeConfig,
    SdeError,
    SdeSpec,
    _radial_rank_match,
    coupled_paths,
)

MEAS = StableLikeMeasure(2, 1.5, 1.0)


def decompose(spec, cfg):
    """The decomposition coupled_paths takes: spec's measure at eps = cfg.h."""
    return AnnulusDecomposition(spec.measure, cfg.h)


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
        d=2, a=np.array(a), B=b * np.eye(2), sigma_fn=sigma_fn,
        x0=np.zeros(2), T=1.0, measure=measure,
    )


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
        cfg = SchemeConfig(h=0.25, fine_substeps=4)
        res = coupled_paths(spec, cfg, decompose(spec, cfg), 8, RngStream(3, 0))
        assert np.all(res.sup_distance == 0)

    def test_constant_sigma_no_jumps_schemes_coincide(self):
        # additive noise without jumps: fine substeps telescope into the
        # coarse step, so the two schemes agree exactly
        spec = make_spec(diag_sigma(0.7), measure=null_measure())
        cfg = SchemeConfig(h=0.25, fine_substeps=8)
        res = coupled_paths(spec, cfg, decompose(spec, cfg), 8, RngStream(4, 0))
        assert np.all(res.sup_distance < 1e-12)

    def test_reproducible_and_coupled(self):
        spec = make_spec(contractive_sigma)
        cfg = SchemeConfig(h=0.25, fine_substeps=4)
        r1 = coupled_paths(spec, cfg, decompose(spec, cfg), 16, RngStream(5, 0))
        r2 = coupled_paths(spec, cfg, decompose(spec, cfg), 16, RngStream(5, 0))
        assert np.array_equal(r1.exact, r2.exact)
        assert np.array_equal(r1.approx, r2.approx)
        # shared randomness keeps the pair far closer than independence would
        assert np.sqrt(np.mean(r1.sup_distance ** 2)) < 1.0

    def test_needs_measure_and_replicates(self):
        # the measure is a required field and gives the noise dimension
        with pytest.raises(TypeError, match="measure"):
            SdeSpec(d=2, a=np.zeros(2), B=np.eye(2), sigma_fn=contractive_sigma,
                    x0=np.zeros(2), T=1.0)
        spec = make_spec(contractive_sigma)
        assert spec.q == MEAS.dimension
        cfg = SchemeConfig(h=0.25)
        with pytest.raises(SdeError):
            coupled_paths(spec, cfg, decompose(spec, cfg), 1, RngStream(0, 0))

    @pytest.mark.parametrize("measure, eps", [(MEAS, 0.125), (StableLikeMeasure(2, 1.5, 1.0), 0.25)],
                             ids=["other-cutoff", "other-measure"])
    def test_decomposition_must_match_scheme(self, measure, eps):
        # the jump cutoff is the coarse step h of spec's own measure
        spec = make_spec(contractive_sigma)
        with pytest.raises(SdeError, match="eps = cfg.h"):
            coupled_paths(spec, SchemeConfig(h=0.25), AnnulusDecomposition(measure, eps), 2,
                          RngStream(0, 0))

    def test_fine_substeps_must_be_positive(self):
        # no clamp: a substep count below one is an error, not one substep
        for sub in (0, -3):
            with pytest.raises(SdeError, match="fine_substeps"):
                SchemeConfig(h=0.25, fine_substeps=sub)

    def test_size_cap_checked_before_any_draw(self, monkeypatch):
        # a path array over MAX_PATH_SIZE elements is refused before the
        # first noise block is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("drew noise past the size cap")

        monkeypatch.setattr(sde, "_step_noise", no_draw)
        cfg = SchemeConfig(h=0.25, fine_substeps=1)
        for T in (1e9, 1e300):
            spec = SdeSpec(d=2, a=np.zeros(2), B=0.3 * np.eye(2), sigma_fn=contractive_sigma,
                           x0=np.zeros(2), T=T, measure=MEAS)
            with pytest.raises(SdeError, match="path arrays"):
                coupled_paths(spec, cfg, decompose(spec, cfg), 2, RngStream(0, 0))
        # the noise block M * fine_substeps * q counts too
        wide = SchemeConfig(h=0.25, fine_substeps=MAX_PATH_SIZE // 4 + 1)
        spec = make_spec(contractive_sigma)
        with pytest.raises(SdeError, match="path arrays"):
            coupled_paths(spec, wide, decompose(spec, wide), 2, RngStream(0, 0))
        # C8's largest array, 256 * 129 * 2, is far below the cap
        SchemeConfig(h=2.0 ** -7).check_size(1.0, 256, 2, 2)
