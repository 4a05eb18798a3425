"""Edgeworth expansions, perturbed-normal sampling, and Gaussian
substitution of small Levy jumps, with Wasserstein-distance rate
verification for central-limit and SDE discretization experiments."""

from .polycore import EpsSeries, Polynomial, gaussian_moment, hermite_1d, hermite_sigma
from .edgeworth import (
    CumulantSet,
    MomentSet,
    build_P,
    build_Q,
    cumulants_to_moments,
    edgeworth_density,
    moments_to_cumulants,
)
from .perturbation import (
    GradientPolyMap,
    apply_L,
    compute_S_tilde,
    invert_S_map,
    pushforward_density_1d,
    solve_hermite_pde,
)
from .levy import (
    AnnulusDecomposition,
    CustomRadialMeasure,
    StableLikeMeasure,
    cramer_probe,
)
from .sampling import (
    RngStream,
    sample_gaussian,
    sample_perturbed_normal,
    sample_small_jumps,
)
from .wasserstein import rate_fit, wp_1d_exact, wp_empirical
from .sde import CoupledResult, SchemeConfig, SdeSpec, coupled_paths
from .laws import TestLaw, make_law

__version__ = "0.1.0"
