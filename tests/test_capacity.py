import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle

from deadtime_channel import (
    NumericalFailure,
    ParameterError,
    asymptotic_capacity_coeff_large_A,
    binary_entropy,
    capacity_bruteforce,
    capacity_sampled,
    capacity_tau,
    detection_prob,
    duty_cycle_limits,
    quadratic_coeffs_low_A,
    wyner_poisson_capacity,
)
from deadtime_channel import capacity

# tau (1-p)/(8p) at background 1, tau 0.01; 50-digit reference
D_TAU_001 = 0.12437604166493055968914310518482603891278440157203


def test_optimal_duty_cycle_low_rate_limit():
    mu, _ = capacity_tau(1e-8, 0.0, 1.0)
    assert mu == pytest.approx(1.0 / math.e, abs=1e-7)


def test_optimal_duty_cycle_high_rate_limit():
    mu, _ = capacity_tau(1e6, 0.0, 1.0)
    assert mu == pytest.approx(0.5, abs=1e-9)


def test_optimal_duty_cycle_matches_bruteforce():
    mu, _ = capacity_tau(2.0, 0.5, 1.0)
    mu_brute, _ = capacity_bruteforce(2.0, 0.5, 1.0)
    assert mu == pytest.approx(mu_brute, abs=1e-6)


@pytest.mark.parametrize("background", [0.01, 0.5, 5.0])
@pytest.mark.parametrize("peak", [1e-300, 1e-100, 1e-20, 1e-12, 1e-9])
def test_optimal_duty_cycle_vanishing_peak_rate_matches_mpmath(peak, background):
    mu, _ = capacity_tau(peak, background, 1.0)
    # 700 digits carry the cancellation in a q0 - p0 down to A = 1e-300
    assert abs(mu - oracle.mu_star(peak, background, 1.0, digits=700)) <= 1e-12


def test_optimal_duty_cycle_near_expansion_switch_matches_mpmath():
    # r = d / (p0 q0) across the switch between the expansion and the
    # closed form, where each branch's error is largest
    worst = 0.0
    for background in np.geomspace(1e-3, 5.0, 21).tolist():
        p0 = -math.expm1(-background)
        for r in np.geomspace(1e-6, 1e-3, 101).tolist():
            peak = -math.log1p(-r * p0)
            mu, _ = capacity_tau(peak, background, 1.0)
            worst = max(worst, abs(mu - oracle.mu_star(peak, background, 1.0)))
    assert worst <= 5e-11


def test_capacity_zero_rate_conventions():
    mu, cap = capacity_tau(0.0, 0.3, 1.0)
    assert cap == 0.0
    assert mu == 0.5


def test_capacity_saturates_at_ln2_over_tau():
    _, cap = capacity_tau(1e4, 0.0, 1.0)
    assert cap == pytest.approx(math.log(2.0), abs=1e-6)


def test_capacity_low_rate_linear_in_A_over_e():
    _, cap = capacity_tau(1e-6, 0.0, 1.0)
    assert cap / (1e-6 / math.e) == pytest.approx(1.0, abs=1e-4)


def test_optimal_duty_cycle_when_both_levels_saturate():
    # background * tau = 800: q0 = 0, so p0 = p1 = 1 and every mu is optimal
    assert capacity_tau(1.0, 800.0, 1.0) == (0.5, 0.0)


def test_capacity_sampled_scalings():
    mu_base, base = capacity_tau(5.0, 0.2, 0.1)
    assert capacity_sampled(5.0, 0.2, 0.1, 0.1) == (mu_base, base)
    mu_half, half = capacity_sampled(5.0, 0.2, 0.1, 0.2)
    assert mu_half == mu_base
    assert half == pytest.approx(0.5 * base, rel=1e-15)
    mu_tenth, tenth = capacity_sampled(5.0, 0.2, 0.1, 1.0)
    assert mu_tenth == mu_base
    assert tenth == pytest.approx(0.1 * base, rel=1e-14)


def test_capacity_sampled_rejects_fast_sampling():
    with pytest.raises(ParameterError):
        capacity_sampled(5.0, 0.2, 0.1, 0.05)


def test_bruteforce_agreement_random():
    rng = np.random.default_rng(71)
    for _ in range(30):
        a_tau = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        lam_tau = float(rng.uniform(0.0, 2.0))
        mu_closed, cap_closed = capacity_tau(a_tau, lam_tau, 1.0)
        mu_brute, cap_brute = capacity_bruteforce(a_tau, lam_tau, 1.0)
        assert abs(cap_closed - cap_brute) <= 1e-8 * (1.0 + cap_closed)
        assert abs(mu_closed - mu_brute) <= 1e-6


def test_bruteforce_zero_rate():
    assert capacity_bruteforce(0.0, 0.1, 1.0)[1] == 0.0


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


@settings(max_examples=200, deadline=None)
@given(
    log_s=st.floats(math.log(1e-3), math.log(1e300)),
    log_peak=st.floats(math.log(1e-3), math.log(1e3)),
)
@example(log_s=math.log(1e6), log_peak=0.0)
@example(log_s=math.log(1e15), log_peak=0.0)
@example(log_s=math.log(1e16), log_peak=0.0)
@example(log_s=0.0, log_peak=0.0)
def test_wyner_matches_mpmath_where_background_dominates(log_s, log_peak):
    # s = background / peak log-uniform; the form used from s = 1 on keeps
    # its digits where the q* form cancels (0.58 relative off at s = 1e15)
    peak = math.exp(log_peak)
    background = math.exp(log_s) * peak
    _, cap = wyner_poisson_capacity(peak, background)
    exact = oracle.wyner_capacity(peak, background)
    assert abs(cap - exact) <= 1e-14 * exact


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
    mu, _ = capacity_tau(1e4, 0.5, 1.0)
    assert mu == pytest.approx(table["high_peak_with_background"], abs=1e-3)


def test_duty_cycle_limits_strong_background():
    # e^{L0 tau} h_b overflows a naive evaluation near L0 tau ~ 700;
    # the limit tends to 1 - 1/e
    value = duty_cycle_limits(800.0, 1.0)["high_peak_with_background"]
    assert value == pytest.approx(1.0 - 1.0 / math.e, rel=1e-3)


def test_capacity_below_continuous_reference():
    for tau in (0.5, 0.1, 0.01):
        _, sampled = capacity_tau(2.0, 0.3, tau)
        _, continuous = wyner_poisson_capacity(2.0, 0.3)
        assert sampled <= continuous


def test_capacity_converges_to_continuous():
    _, continuous = wyner_poisson_capacity(1.0, 0.1)
    rels = [
        abs(capacity_tau(1.0, 0.1, tau)[1] - continuous) / continuous
        for tau in (1e-2, 1e-3, 1e-4)
    ]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] <= 0.01


def test_scaling_symmetry_exact_for_dyadic_factor():
    # C_{T_s, b*tau}(A, L0) = C_{T_s, tau}(b A, b L0); exact when b, tau dyadic
    a, lam, tau, t_s, factor = 3.0, 0.75, 0.125, 1.0, 2.0
    left = capacity_sampled(a, lam, factor * tau, t_s)
    right = capacity_sampled(factor * a, factor * lam, tau, t_s)
    assert left == right


def test_rate_objective_corner_values():
    levels = capacity._levels(2.0, 0.5, 1.0)
    assert capacity._rate(0.0, levels) == 0.0
    assert capacity._rate(1.0, levels) == 0.0


def test_duty_cycle_limit_not_uniform_in_dead_time():
    # along the schedule peak = 1/tau the duty cycle converges to a value
    # strictly different from the continuous channel's 1/e
    p = detection_prob(1.0, 1.0)
    h = binary_entropy(p)
    expected = math.exp(-h / p) / (p * (1.0 + math.exp(-h / p)))
    for tau in (1e-4, 1e-8):
        mu, _ = capacity_tau(1.0 / tau, 0.0, tau)
        assert mu == pytest.approx(expected, abs=1e-4)
    assert abs(expected - 1.0 / math.e) > 0.04


def test_capacity_strictly_increasing_in_peak_rate():
    tau = 0.02
    caps = [
        capacity_tau(a / tau, 1.0, tau)[1]
        for a in np.geomspace(1e-3, 25.0, 40)
    ]
    assert all(x < y for x, y in zip(caps, caps[1:]))


def test_capacity_builds_the_levels_once_per_call(monkeypatch):
    calls = []
    levels = capacity._levels

    def counting(*args):
        calls.append(args)
        return levels(*args)

    monkeypatch.setattr(capacity, "_levels", counting)
    for run in (
        lambda: capacity_tau(2.0, 0.5, 1.0),
        lambda: capacity_sampled(2.0, 0.5, 1.0, 4.0),
        lambda: capacity_bruteforce(2.0, 0.5, 1.0),
        lambda: capacity_bruteforce(0.0, 0.5, 1.0),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_mu_star_outside_the_unit_interval_is_refused(monkeypatch):
    # a = e^-50 drives the closed form's numerator a q0 - p0 below 0
    monkeypatch.setattr(capacity, "_entropy_quotient", lambda *args: 50.0)
    with pytest.raises(NumericalFailure, match=r"mu\* = -.* is outside \[0, 1\]"):
        capacity_tau(2.0, 0.5, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-6, 700.0),
    st.one_of(st.just(0.0), st.floats(1e-8, 700.0)),
    st.floats(1.0, 1e6),
)
def test_closed_form_capacity_matches_bruteforce(peak, background, sampling):
    # tau = 1; where p1 - p0 leaves the normal range the capacity is refused
    assume(background <= 700.0 - peak)
    assume(math.exp(-background) * -math.expm1(-peak) >= sys.float_info.min)
    mu, cap = capacity_tau(peak, background, 1.0)
    _, cap_brute = capacity_bruteforce(peak, background, 1.0)
    assert 0.0 <= mu <= 1.0
    assert 0.0 <= cap <= math.log(2.0)
    assert abs(cap - cap_brute) <= 1e-8 * (1.0 + cap)
    assert capacity_sampled(peak, background, 1.0, sampling) == (mu, cap * (1.0 / sampling))


@pytest.mark.xfail(
    strict=True,
    reason="at zero background _entropy_increment takes its plain-difference "
    "branch, whose -q ln q rounds q_hat near 1; mending it moves capacity "
    "bytes (ROADMAP item 2)",
)
def test_zero_background_capacity_stays_below_wyner():
    # the first row of capacity --preset zero-background --a-grid log:1e-8,1e-6,3
    _, cap = capacity_tau(1e-8, 0.0, 0.02)
    _, wyner = wyner_poisson_capacity(1e-8, 0.0)
    assert cap <= wyner + 16 * math.ulp(wyner)


@pytest.mark.xfail(
    strict=True,
    reason="where q1 underflows _entropy_increment takes its plain-difference "
    "branch and loses the O(q0) terms; mending it moves capacity bytes "
    "(ROADMAP item 2)",
)
def test_capacity_keeps_its_saturation_limit_where_q1_underflows():
    # capacity --background 13093 --a-grid lin:24000,24400,5 at tau = 0.02:
    # exp(-(A + background) tau) underflows to 0 from A = 24200 on
    limit = asymptotic_capacity_coeff_large_A(13093.0, 0.02) / 0.02
    for peak in (24000.0, 24400.0):
        assert capacity_tau(peak, 13093.0, 0.02)[1] / limit == pytest.approx(1.0, rel=1e-6)
