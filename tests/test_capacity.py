import math

import numpy as np
import pytest

from deadtime_channel import (
    ParameterError,
    asymptotic_capacity_coeff_large_A,
    binary_entropy,
    capacity_bruteforce,
    capacity_sampled,
    capacity_tau,
    detection_prob,
    duty_cycle_limits,
    optimal_duty_cycle,
    quadratic_coeffs_low_A,
    rate_objective,
    wyner_poisson_capacity,
)

# tau (1-p)/(8p) at background 1, tau 0.01; 50-digit reference
D_TAU_001 = 0.12437604166493055968914310518482603891278440157203


def test_optimal_duty_cycle_low_rate_limit():
    mu, _ = optimal_duty_cycle(1e-8, 0.0, 1.0)
    assert mu == pytest.approx(1.0 / math.e, abs=1e-7)


def test_optimal_duty_cycle_high_rate_limit():
    mu, a = optimal_duty_cycle(1e6, 0.0, 1.0)
    assert mu == pytest.approx(0.5, abs=1e-9)
    assert a == pytest.approx(1.0, abs=1e-9)


def test_optimal_duty_cycle_matches_bruteforce():
    mu, _ = optimal_duty_cycle(2.0, 0.5, 1.0)
    brute = capacity_bruteforce(2.0, 0.5, 1.0)
    assert mu == pytest.approx(brute.duty_cycle, abs=1e-6)


def test_optimal_duty_cycle_zero_rate_rejected():
    with pytest.raises(ParameterError):
        optimal_duty_cycle(0.0, 0.5, 1.0)


def test_capacity_zero_rate_conventions():
    result = capacity_tau(0.0, 0.3, 1.0)
    assert result.capacity_nats_per_time == 0.0
    assert result.duty_cycle == 0.5


def test_capacity_saturates_at_ln2_over_tau():
    result = capacity_tau(1e4, 0.0, 1.0)
    assert result.capacity_nats_per_time == pytest.approx(math.log(2.0), abs=1e-6)


def test_capacity_low_rate_linear_in_A_over_e():
    cap = capacity_tau(1e-6, 0.0, 1.0).capacity_nats_per_time
    assert cap / (1e-6 / math.e) == pytest.approx(1.0, abs=1e-4)


def test_mix_prob_equals_a_over_one_plus_a():
    # the stationarity condition pins p_hat(mu*) = a / (1 + a)
    result = capacity_tau(3.0, 0.4, 0.7)
    assert result.mix_prob == pytest.approx(
        result.coeff_a / (1.0 + result.coeff_a), rel=1e-10
    )


def test_capacity_sampled_scalings():
    base = capacity_tau(5.0, 0.2, 0.1)
    same = capacity_sampled(5.0, 0.2, 0.1, 0.1)
    assert same.capacity_nats_per_time == base.capacity_nats_per_time
    assert same.duty_cycle == base.duty_cycle
    half = capacity_sampled(5.0, 0.2, 0.1, 0.2)
    assert half.capacity_nats_per_time == pytest.approx(
        0.5 * base.capacity_nats_per_time, rel=1e-15
    )
    tenth = capacity_sampled(5.0, 0.2, 0.1, 1.0)
    assert tenth.capacity_nats_per_time == pytest.approx(
        0.1 * base.capacity_nats_per_time, rel=1e-14
    )


def test_capacity_sampled_rejects_fast_sampling():
    with pytest.raises(ParameterError):
        capacity_sampled(5.0, 0.2, 0.1, 0.05)


def test_bruteforce_agreement_random():
    rng = np.random.default_rng(71)
    for _ in range(30):
        a_tau = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        lam_tau = float(rng.uniform(0.0, 2.0))
        closed = capacity_tau(a_tau, lam_tau, 1.0)
        brute = capacity_bruteforce(a_tau, lam_tau, 1.0)
        assert abs(
            closed.capacity_nats_per_time - brute.capacity_nats_per_time
        ) <= 1e-8 * (1.0 + closed.capacity_nats_per_time)
        assert abs(closed.duty_cycle - brute.duty_cycle) <= 1e-6


def test_bruteforce_zero_rate():
    assert capacity_bruteforce(0.0, 0.1, 1.0).capacity_nats_per_time == 0.0


def test_wyner_zero_background():
    q, cap = wyner_poisson_capacity(3.0, 0.0)
    assert q == 1.0 / math.e
    assert cap == 3.0 / math.e


def test_wyner_low_snr_prior_approaches_half():
    q, _ = wyner_poisson_capacity(1e-6, 1.0)  # s = 1e6
    assert q == pytest.approx(0.5, abs=1e-6)


def test_wyner_low_rate_quadratic_coefficient():
    _, cap = wyner_poisson_capacity(1e-3, 1.0)
    assert cap / 1e-6 == pytest.approx(0.125, rel=1e-3)


def test_wyner_domain():
    with pytest.raises(ParameterError):
        wyner_poisson_capacity(0.0, 1.0)
    with pytest.raises(ParameterError):
        wyner_poisson_capacity(1.0, -0.5)


def test_wyner_continuous_in_s_near_zero():
    _, a = wyner_poisson_capacity(1.0, 1e-12)
    assert a == pytest.approx(1.0 / math.e, rel=1e-9)


def test_saturation_coefficient_zero_background_exact():
    assert asymptotic_capacity_coeff_large_A(0.0, 0.02) == math.log(2.0)


def test_saturation_coefficient_matches_raw_formula():
    # h_b(u/(1+u)) - h_b(p) e^{x}/(1+u) with u = exp(e^{x} h_b(p)), x = L0 tau
    for lam_tau in (0.1, 0.5, 2.0):
        p0 = detection_prob(lam_tau, 1.0)
        v = math.exp(lam_tau) * binary_entropy(p0)
        u = math.exp(v)
        raw = binary_entropy(u / (1.0 + u)) - binary_entropy(p0) * math.exp(
            lam_tau
        ) / (1.0 + u)
        assert asymptotic_capacity_coeff_large_A(lam_tau, 1.0) == pytest.approx(
            raw, rel=1e-12
        )


def test_saturation_coefficient_vanishes_at_strong_background():
    assert asymptotic_capacity_coeff_large_A(20.0, 1.0) < 1e-9
    assert asymptotic_capacity_coeff_large_A(800.0, 1.0) == 0.0  # underflows cleanly


def test_saturation_coefficient_decreasing():
    values = [asymptotic_capacity_coeff_large_A(x, 1.0) for x in np.arange(0.0, 5.01, 0.1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quadratic_coefficients_values():
    d_poi, d_tau = quadratic_coeffs_low_A(1.0, 0.01)
    assert d_poi == 0.125
    assert d_tau == pytest.approx(D_TAU_001, rel=1e-14)


def test_quadratic_coefficients_ordering_and_limit():
    for tau in (1.0, 0.1, 0.01):
        d_poi, d_tau = quadratic_coeffs_low_A(1.0, tau)
        assert d_tau < d_poi
    d_poi, d_tau = quadratic_coeffs_low_A(1.0, 1e-3)
    assert d_tau / d_poi == pytest.approx(1.0, abs=1e-3)


def test_quadratic_coefficients_domain():
    with pytest.raises(ParameterError):
        quadratic_coeffs_low_A(0.0, 0.1)


def test_duty_cycle_limits_zero_background_column():
    table = duty_cycle_limits(0.0, 1.0)
    assert table["low_peak_zero_background"] == 1.0 / math.e
    assert table["high_peak_zero_background"] == 0.5
    assert table["low_peak_with_background"] == 0.5
    assert table["high_peak_with_background"] == pytest.approx(0.5, rel=1e-15)


def test_duty_cycle_limit_matches_extreme_rate():
    table = duty_cycle_limits(0.5, 1.0)
    mu, _ = optimal_duty_cycle(1e4, 0.5, 1.0)
    assert mu == pytest.approx(table["high_peak_with_background"], abs=1e-3)


def test_duty_cycle_limits_strong_background():
    # e^{L0 tau} h_b overflows a naive evaluation near L0 tau ~ 700;
    # the limit tends to 1 - 1/e
    value = duty_cycle_limits(800.0, 1.0)["high_peak_with_background"]
    assert value == pytest.approx(1.0 - 1.0 / math.e, rel=1e-3)


def test_capacity_below_continuous_reference():
    for tau in (0.5, 0.1, 0.01):
        sampled = capacity_tau(2.0, 0.3, tau).capacity_nats_per_time
        _, continuous = wyner_poisson_capacity(2.0, 0.3)
        assert sampled <= continuous


def test_capacity_converges_to_continuous():
    _, continuous = wyner_poisson_capacity(1.0, 0.1)
    rels = [
        abs(capacity_tau(1.0, 0.1, tau).capacity_nats_per_time - continuous)
        / continuous
        for tau in (1e-2, 1e-3, 1e-4)
    ]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] <= 0.01


def test_scaling_symmetry_exact_for_dyadic_factor():
    # C_{T_s, b*tau}(A, L0) = C_{T_s, tau}(b A, b L0); exact when b, tau dyadic
    a, lam, tau, t_s, factor = 3.0, 0.75, 0.125, 1.0, 2.0
    left = capacity_sampled(a, lam, factor * tau, t_s)
    right = capacity_sampled(factor * a, factor * lam, tau, t_s)
    assert left.capacity_nats_per_time == right.capacity_nats_per_time
    assert left.duty_cycle == right.duty_cycle


def test_rate_objective_corner_values():
    assert rate_objective(0.0, 2.0, 0.5, 1.0) == 0.0
    assert rate_objective(1.0, 2.0, 0.5, 1.0) == 0.0


def test_duty_cycle_limit_not_uniform_in_dead_time():
    # along the schedule peak = 1/tau the duty cycle converges to a value
    # strictly different from the continuous channel's 1/e
    p = detection_prob(1.0, 1.0)
    h = binary_entropy(p)
    expected = math.exp(-h / p) / (p * (1.0 + math.exp(-h / p)))
    for tau in (1e-4, 1e-8):
        mu, _ = optimal_duty_cycle(1.0 / tau, 0.0, tau)
        assert mu == pytest.approx(expected, abs=1e-4)
    assert abs(expected - 1.0 / math.e) > 0.04


def test_capacity_strictly_increasing_in_peak_rate():
    tau = 0.02
    caps = [
        capacity_tau(a / tau, 1.0, tau).capacity_nats_per_time
        for a in np.geomspace(1e-3, 25.0, 40)
    ]
    assert all(x < y for x, y in zip(caps, caps[1:]))
