"""Spectral mild-solution laboratory for the 2D parabolic-parabolic
Keller-Segel system: torus field core, exact heat semigroups, weighted
space-time norms, exponential-time-differencing Duhamel operators, a
fixed-point solver with an independent time-stepping oracle, and a
numerical verification lab for the underlying operator estimates.
"""

from .data import (
    cosine_mode_field,
    gaussian_field,
    random_band_limited_field,
    smoothed_stripe_field,
)
from .duhamel import (
    EtdPlan,
    bilinear_B,
    etd_convolve,
    linear_L,
    maximal_reg_T,
)
from .fields import Grid2D, ScalarField, gradient, load_field, save_field
from .inequality_lab import (
    ConstantsReport,
    CounterexampleResult,
    CounterexampleSweep,
    InequalityReport,
    LabSetup,
    ResolutionError,
    besov_equivalence_samples,
    counterexample_profile,
    counterexample_sweep,
    default_constants,
    estimate_constants,
    grad_heat_kernel_norms,
    grad_kernel_l1_exact,
    heat_kernel_norms,
    kernel_norm_exact,
    refinement_drift,
    stripe_lower_constant,
    stripe_profile_exact,
    verify_bilinear_lemma23,
    verify_l4_interpolation,
    verify_maximal_regularity,
    verify_multiplier_lemma,
)
from .norms import (
    BesovEstimate,
    NormEntry,
    NormReport,
    besov_norm,
    default_besov_probe,
    grad_besov_sup,
    hs_dot_norm,
    hs_norm,
    lp_norm,
    sigma,
    xy_norms_thm1,
    xy_norms_thm2,
)
from .semigroup import damped_heat_trajectory, heat, heat_trajectory
from .solver import (
    PicardBlowupError,
    ReferenceStepError,
    SolutionReport,
    SolverConfig,
    Theorem1Verdict,
    Theorem2Verdict,
    check_theorem1_bound,
    check_theorem2_bound,
    picard_solve,
    reference_solve,
    relative_node_differences,
)
from .trajectories import TimeGrid, Trajectory, load_trajectory, save_trajectory

__version__ = "0.1.0"
