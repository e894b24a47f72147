import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deadtime_channel import (
    BetaTriple,
    BinaryDetectionProbs,
    ParameterError,
    beta_triple,
    bhattacharyya_distance,
    bound_gap,
    detection_prob,
    estimate_exponential_rate,
    exp_rate_zero_background,
    gap_offsets_large_A,
    gap_offsets_low_background,
    gap_quadratic_coeff_low_A,
    maximize_scalar,
    mi_approx_low_background,
    mi_discrete_poisson,
    quadratic_coeffs_low_A,
)
from deadtime_channel.approximation import mi_approx_max
from deadtime_channel.channel import detection_probs
from deadtime_channel.rate_bounds import tuned_lower_curve


def test_gap_offsets_large_A_main_branch():
    p0, p1, trials = 0.1, 0.99, 10  # (1 - p0) L = 9 > 1/2
    eps_u, eps_l = gap_offsets_large_A(p0, p1, trials)
    lead = (
        trials
        * p0 ** ((trials - 1) / 2.0)
        * math.sqrt(1.0 - p0)
        * math.sqrt(1.0 - p1)
    )
    assert eps_u == pytest.approx(2.0 * lead, rel=1e-12)
    assert eps_l == pytest.approx(lead / (1.0 + p0 ** (trials / 2.0)), rel=1e-12)


def test_gap_offsets_large_A_boundary_branch():
    # L = 1, p0 = 0.5 makes (1 - p0) L = 1/2 exactly
    p0, p1 = 0.5, 0.9
    eps_u, eps_l = gap_offsets_large_A(p0, p1, 1)
    lead = 1.0 * math.sqrt(0.5)  # L * p0^((L-1)/2) sqrt(1-p0) at L=1
    spike = 0.5 ** (-0.5) / math.sqrt(0.5)
    assert eps_u == pytest.approx((2.0 * lead - spike) * math.sqrt(1.0 - p1), rel=1e-12)
    assert eps_l == pytest.approx(
        (lead / (1.0 + math.sqrt(0.5)) - 0.5 * spike) * math.sqrt(1.0 - p1), rel=1e-12
    )


def test_gap_offsets_large_A_subthreshold_branch_negative():
    eps_u, eps_l = gap_offsets_large_A(0.7, 0.9, 1)  # (1 - p0) L = 0.3 < 1/2
    assert eps_u < 0.0
    assert eps_l == pytest.approx(0.5 * eps_u, rel=1e-14)


def test_offset_reciprocity():
    rng = np.random.default_rng(61)
    for _ in range(40):
        p0, p1 = np.sort(rng.uniform(0.01, 0.99, 2))
        trials = int(rng.integers(1, 40))
        direct = gap_offsets_low_background(float(p0), float(p1), trials)
        swapped = gap_offsets_large_A(float(1.0 - p1), float(1.0 - p0), trials)
        assert direct[0] == pytest.approx(swapped[0], rel=1e-11, abs=1e-300)
        assert direct[1] == pytest.approx(swapped[1], rel=1e-11, abs=1e-300)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**20), st.integers(1, 2**20 - 1), st.integers(1, 100_000))
def test_offset_reciprocity_bit_for_bit_at_dyadic_probabilities(k0, k1, trials):
    # for p = k / 2^20 the complement 1 - p is exact, and so is 1 - (1 - p)
    p0, p1 = k0 / 2**20, k1 / 2**20
    direct = gap_offsets_low_background(p0, p1, trials)
    swapped = gap_offsets_large_A(1.0 - p1, 1.0 - p0, trials)
    assert [v.hex() for v in direct] == [v.hex() for v in swapped]


def test_low_background_branch_predicate():
    # p1 L = 0.5 exactly picks the boundary branch
    a = gap_offsets_low_background(0.01, 0.5, 1)
    b = gap_offsets_low_background(0.01, 0.5 + 1e-12, 1)
    assert a != b  # spike term enters only at the boundary


def test_zero_background_rate_value():
    assert exp_rate_zero_background(10, 0.1) == 0.5


def test_zero_background_rate_domain():
    with pytest.raises(ParameterError):
        exp_rate_zero_background(0, 0.1)
    with pytest.raises(ParameterError):
        exp_rate_zero_background(10, 0.0)


def test_quadratic_coeff_value():
    # 3 * 10 * (1 - 0.5) * 1 / (16 * 0.5) = 15/8
    assert gap_quadratic_coeff_low_A(0.5, 10, 1.0) == 1.875


def test_quadratic_coeff_scales_linearly_in_trials():
    assert gap_quadratic_coeff_low_A(0.3, 20, 0.5) == 2.0 * gap_quadratic_coeff_low_A(
        0.3, 10, 0.5
    )


def test_quadratic_coeff_diverges_at_zero_background():
    assert gap_quadratic_coeff_low_A(0.0, 10, 1.0) == math.inf


def test_quadratic_coeff_refuses_saturated_background():
    with pytest.raises(ParameterError, match=r"^p0 must be in \[0, 1\), got 1.0$"):
        gap_quadratic_coeff_low_A(1.0, 10, 0.1)


def test_estimate_rate_exact_exponential():
    pts = [(x, math.exp(-2.0 * x)) for x in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert estimate_exponential_rate(pts) == pytest.approx(-2.0, abs=1e-12)


def test_estimate_rate_constant():
    pts = [(float(x), 0.7) for x in range(5)]
    assert estimate_exponential_rate(pts) == pytest.approx(0.0, abs=1e-14)


def test_estimate_rate_noisy_decay_within_ci():
    rng = np.random.default_rng(62)
    xs = np.linspace(0.0, 5.0, 40)
    sigma = 0.05
    values = np.exp(-1.7 * xs + sigma * rng.standard_normal(xs.size))
    slope = estimate_exponential_rate(list(zip(xs, values)))
    sxx = float(((xs - xs.mean()) ** 2).sum())
    assert abs(slope + 1.7) < 4.0 * sigma / math.sqrt(sxx)


def test_estimate_rate_domain():
    with pytest.raises(ParameterError):
        estimate_exponential_rate([(0.0, 1.0), (1.0, 0.5)])
    with pytest.raises(ParameterError):
        estimate_exponential_rate([(0.0, 1.0), (1.0, -0.5), (2.0, 0.2)])


# the tuned lower envelope of one channel, a function of the duty cycle
_tuned_lower = tuned_lower_curve(BinaryDetectionProbs(0.1, 0.4), 30)
# the published channel, inside the approximation's region at L = 10
_published = detection_probs(10.0, 0.02, 0.02)
_TRIALS = "trials must be a positive integer, got "


# NaN passes a sign test, so without a finiteness guard each of these
# returns nan, a negative MI or a bare ValueError
@pytest.mark.parametrize(
    "fn, args, message",
    [
        (mi_discrete_poisson, (0.5, 1.0, math.nan), "mean_on must be finite"),
        (mi_discrete_poisson, (0.5, math.nan, 1.0), "mean_off must be finite"),
        (quadratic_coeffs_low_A, (math.nan, 0.1), "background_rate must be finite"),
        (bhattacharyya_distance, (math.nan, 0.5), r"p0 must be in \[0, 1\]"),
        (bhattacharyya_distance, (2.0, 0.5), r"p0 must be in \[0, 1\]"),
        (estimate_exponential_rate, ([(0.0, 1.0), (1.0, math.nan), (2.0, 0.2)],),
         "value at x = 1.0 must be finite"),
        (exp_rate_zero_background, (math.nan, 0.1), "trials must be a positive integer"),
        (exp_rate_zero_background, (2.5, 0.1), "trials must be a positive integer, got 2.5"),
        (gap_offsets_large_A, (0.5, math.nan, 10), r"p1 must be in \[0, 1\]"),
        (gap_offsets_low_background, (math.nan, 0.5, 10), r"p0 must be in \[0, 1\]"),
        (_tuned_lower, (2.0,), r"mu must be in \[0, 1\], got 2.0"),
        (_tuned_lower, (-0.5,), r"mu must be in \[0, 1\], got -0.5"),
        (_tuned_lower, (math.nan,), r"mu must be in \[0, 1\], got nan"),
        (mi_approx_low_background, (0.5, _published, 2.5), _TRIALS + "2.5"),
        (mi_approx_low_background, (0.5, _published, -3), _TRIALS + "-3"),
        (mi_approx_low_background, (0.5, _published, 0), _TRIALS + "0"),
        (mi_approx_max, (_published, 2.5), _TRIALS + "2.5"),
        (gap_offsets_large_A, (0.5, 0.6, math.nan), _TRIALS + "nan"),
        (gap_offsets_large_A, (0.5, 0.6, math.inf), _TRIALS + "inf"),
        (gap_offsets_large_A, (0.5, 0.6, 2.5), _TRIALS + "2.5"),
        (gap_offsets_large_A, (0.5, 0.6, 0), _TRIALS + "0"),
        (gap_offsets_large_A, (0.5, 0.6, -3), _TRIALS + "-3"),
        (gap_offsets_low_background, (0.5, 0.6, math.nan), _TRIALS + "nan"),
        (gap_offsets_low_background, (0.5, 0.6, math.inf), _TRIALS + "inf"),
        (gap_offsets_low_background, (0.5, 0.6, 2.5), _TRIALS + "2.5"),
        (gap_offsets_low_background, (0.5, 0.6, 0), _TRIALS + "0"),
        (gap_offsets_low_background, (0.5, 0.6, -3), _TRIALS + "-3"),
        (gap_quadratic_coeff_low_A, (0.02, math.nan, 0.1), _TRIALS + "nan"),
        (gap_quadratic_coeff_low_A, (0.02, 10, math.nan), "dead_time must be finite"),
        (gap_quadratic_coeff_low_A, (0.02, 10, -1.0), "dead_time must be > 0, got -1.0"),
        (maximize_scalar, (lambda x: x, math.nan), "tol must be > 0, got nan"),
        (maximize_scalar, (lambda x: x, 0.0), "tol must be > 0, got 0.0"),
        (BetaTriple, (math.nan, 0.5, 0.5), r"beta must be in \[0, 1\], got nan"),
        (BetaTriple, (2.0, 0.5, 0.5), r"beta must be in \[0, 1\], got 2.0"),
        (BetaTriple, (0.5, 0.5, -0.1), r"beta2 must be in \[0, 1\], got -0.1"),
    ],
    ids=[
        "poisson-nan-mean-on", "poisson-nan-mean-off", "quadratic-coeffs-nan",
        "bhattacharyya-nan", "bhattacharyya-above-1", "rate-nan-value",
        "zero-background-nan-trials", "zero-background-fractional-trials",
        "offsets-large-A-nan", "offsets-low-background-nan",
        "tuned-lower-mu-above-1", "tuned-lower-mu-below-0", "tuned-lower-mu-nan",
        "approx-fractional-trials", "approx-negative-trials", "approx-zero-trials",
        "approx-max-fractional-trials",
        "offsets-large-A-nan-trials", "offsets-large-A-inf-trials",
        "offsets-large-A-fractional-trials", "offsets-large-A-zero-trials",
        "offsets-large-A-negative-trials",
        "offsets-low-background-nan-trials", "offsets-low-background-inf-trials",
        "offsets-low-background-fractional-trials", "offsets-low-background-zero-trials",
        "offsets-low-background-negative-trials",
        "quadratic-gap-nan-trials", "quadratic-gap-nan-dead-time",
        "quadratic-gap-negative-dead-time",
        "maximize-nan-tol", "maximize-zero-tol",
        "beta-triple-nan", "beta-triple-above-1", "beta-triple-below-0",
    ],
)
def test_nan_and_out_of_domain_arguments_refused(fn, args, message):
    with pytest.raises(ParameterError, match=message):
        fn(*args)


def test_gap_tracks_quadratic_coefficient():
    # spot check away from the acceptance configuration
    tau, lam0, trials, peak = 0.05, 0.5, 8, 5e-4
    p0 = detection_prob(lam0, tau)
    p1 = detection_prob(peak + lam0, tau)
    gap = bound_gap(beta_triple(BinaryDetectionProbs(p0, p1), trials))
    coeff = gap_quadratic_coeff_low_A(p0, trials, tau)
    assert gap / peak**2 == pytest.approx(coeff, rel=1e-2)
