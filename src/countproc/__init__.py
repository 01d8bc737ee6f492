"""Counting-process simulation, pathwise decomposition and limit-theorem numerics."""

from .lifetimes import (
    Deterministic,
    EquilibriumOf,
    Exponential,
    Gamma,
    Lattice,
    LifetimeDistribution,
    Mixture,
    ParetoShifted,
    Uniform,
    distribution_from_json,
)
from .processes import (
    Delayed,
    EventCapExceeded,
    Modulated,
    Plain,
    ProcessSpec,
    SamplePath,
    StationaryMA,
    child_rng,
    count,
    path_from_interarrivals,
    residual,
    simulate_path,
    spec_from_json,
)
from .decomposition import (
    ConditionalMeanOracle,
    DecompositionReport,
    decomposition_residual,
    martingale,
    optional_quadratic_variation,
    predictable_quadratic_variation,
    quadratic_error_bound,
    truncated_decomposition_residual,
    truncated_rate,
    wald_residual,
)
from .renewal_solver import (
    GridFunction,
    cumulative_residual_bias,
    integrated_second_generator,
    residual_mean_generator,
    residual_second_generator,
    sgibnev_asymptote,
    solve_renewal_equation,
)
from .asymptotics import (
    Estimate,
    diffusion_scaling,
    estimate_blackwell,
    estimate_rate,
    estimate_rm_cross,
    estimate_variance_drift,
    modulated_rate,
    residual_limit_ks,
    rm_cross_limit,
    smith_constant,
    spec_rate,
)

__version__ = "0.1.0"
