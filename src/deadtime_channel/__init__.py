"""Achievable-rate and capacity toolkit for dead-time photon-counting receivers.

Covers the analytic apparatus of the sampled binary-input Poisson channel:
exact mutual information, divergence-based envelopes and their gap,
asymptotic gap laws, closed-form capacity with its optimal duty cycle, the
continuous Poisson reference, and a Monte Carlo validator, plus a sweep
CLI that emits CSV.
"""

from .channel import BinaryDetectionProbs, ChannelParams, detection_prob, symbol_probs
from .divergences import (
    BetaTriple,
    beta_triple,
    bhattacharyya_distance,
    chernoff_binomial,
    kl_binomial,
    optimal_alpha_grid,
)
from .errors import EstimationError, NumericalFailure, ParameterError
from .mutual_info import (
    binary_entropy,
    mi_binomial_curve,
    mi_binomial_mixture,
    mi_discrete_poisson,
    mi_max_bruteforce,
)
from .rate_bounds import (
    bound_gap,
    envelope_difference,
    gap_bounds,
    lower_bound_max,
    optimal_prior_upper,
    upper_bound_max,
    upper_envelope,
)
from .approximation import mi_approx_low_background
from .asymptotics import (
    estimate_exponential_rate,
    exp_rate_zero_background,
    gap_offsets_large_A,
    gap_offsets_low_background,
    gap_quadratic_coeff_low_A,
)
from .capacity import (
    CapacityResult,
    asymptotic_capacity_coeff_large_A,
    capacity_bruteforce,
    capacity_sampled,
    capacity_tau,
    duty_cycle_limits,
    optimal_duty_cycle,
    quadratic_coeffs_low_A,
    rate_objective,
    wyner_poisson_capacity,
)
from .monte_carlo import SimConfig
from .optimize import maximize_scalar

__version__ = "0.1.0"

__all__ = [
    "BinaryDetectionProbs",
    "BetaTriple",
    "CapacityResult",
    "ChannelParams",
    "EstimationError",
    "NumericalFailure",
    "ParameterError",
    "SimConfig",
    "asymptotic_capacity_coeff_large_A",
    "beta_triple",
    "bhattacharyya_distance",
    "binary_entropy",
    "bound_gap",
    "capacity_bruteforce",
    "capacity_sampled",
    "capacity_tau",
    "chernoff_binomial",
    "detection_prob",
    "duty_cycle_limits",
    "envelope_difference",
    "estimate_exponential_rate",
    "exp_rate_zero_background",
    "gap_bounds",
    "gap_offsets_large_A",
    "gap_offsets_low_background",
    "gap_quadratic_coeff_low_A",
    "kl_binomial",
    "lower_bound_max",
    "maximize_scalar",
    "mi_approx_low_background",
    "mi_binomial_curve",
    "mi_binomial_mixture",
    "mi_discrete_poisson",
    "mi_max_bruteforce",
    "optimal_alpha_grid",
    "optimal_duty_cycle",
    "optimal_prior_upper",
    "quadratic_coeffs_low_A",
    "rate_objective",
    "symbol_probs",
    "upper_bound_max",
    "upper_envelope",
    "wyner_poisson_capacity",
]
