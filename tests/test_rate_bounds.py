import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deadtime_channel import (
    BinaryDetectionProbs,
    NumericalFailure,
    ParameterError,
    beta_triple,
    binary_entropy,
    bound_gap,
    detection_prob,
    gap_bounds,
    lower_bound_max,
    maximize_scalar,
    mi_approx_low_background,
    mi_binomial_mixture,
    optimal_prior_upper,
    upper_bound_max,
    upper_envelope,
)
from deadtime_channel import rate_bounds
from deadtime_channel.channel import detection_probs
from deadtime_channel.divergences import BetaTriple
from deadtime_channel.rate_bounds import _envelope_difference, tuned_lower_curve


def lower_envelope(mu, beta):
    """F_l(mu, beta), which the library evaluates as F_u(mu, beta, beta)."""
    return upper_envelope(mu, beta, beta)


def test_envelope_zero_is_positive_zero():
    # beta = 1 (identical laws): each log is ln 1 = 0, and the envelope is
    # +0.0, which the CSV prints as 0 rather than -0
    for mu in (0.25, 0.5, 0.75):
        value = upper_envelope(mu, 1.0, 1.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # nonzero values keep every bit of the plain negation
    mu, beta1, beta2 = 0.3, 0.2, 0.6
    assert upper_envelope(mu, beta1, beta2) == -(
        mu * math.log((1.0 - mu) * beta1 + mu)
        + (1.0 - mu) * math.log(mu * beta2 + (1.0 - mu))
    )


def _channel_triple(rng, trials_hi=150):
    p0, p1 = np.sort(rng.uniform(0.01, 0.99, 2))
    if p1 - p0 < 1e-3:
        p1 = min(0.99, p0 + 0.01)
    trials = int(rng.integers(1, trials_hi))
    return BinaryDetectionProbs(float(p0), float(p1)), trials


def test_lower_envelope_vanishes_at_unit_beta():
    for mu in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert lower_envelope(mu, 1.0) == 0.0


def test_lower_envelope_at_half():
    for beta in (0.0, 0.1, 0.7):
        assert lower_envelope(0.5, beta) == pytest.approx(
            -math.log((1.0 + beta) / 2.0), rel=1e-14
        )


def test_lower_envelope_reduces_to_binary_entropy():
    assert lower_envelope(0.3, 0.0) == pytest.approx(binary_entropy(0.3), rel=1e-14)


def test_upper_envelope_reduces_to_binary_entropy():
    assert upper_envelope(0.37, 0.0, 0.0) == pytest.approx(binary_entropy(0.37), rel=1e-14)


def test_upper_envelope_collapses_to_lower():
    # F_u(mu, b, b) is the displayed F_l formula, term for term
    rng = np.random.default_rng(41)
    for _ in range(30):
        mu, beta = rng.uniform(0.0, 1.0, 2)
        f_l = -(
            mu * math.log((1.0 - mu) * beta + mu)
            + (1.0 - mu) * math.log(mu * beta + (1.0 - mu))
        )
        assert upper_envelope(mu, beta, beta) == f_l


def test_upper_envelope_swap_symmetry():
    # exact at dyadic mu, where 1 - mu is exact
    for mu in (0.25, 0.5, 0.625):
        assert upper_envelope(mu, 0.3, 0.8) == upper_envelope(1.0 - mu, 0.8, 0.3)
    rng = np.random.default_rng(42)
    for _ in range(30):
        mu, b1, b2 = rng.uniform(0.0, 1.0, 3)
        assert upper_envelope(mu, b1, b2) == pytest.approx(
            upper_envelope(1.0 - mu, b2, b1), rel=1e-12, abs=1e-15
        )


def test_lower_bound_max_endpoints():
    assert lower_bound_max(1.0) == 0.0
    assert lower_bound_max(0.0) == math.log(2.0)


def test_lower_bound_max_matches_optimizer():
    rng = np.random.default_rng(43)
    for beta in rng.uniform(0.0, 1.0, 20):
        _, best = maximize_scalar(lambda mu: lower_envelope(mu, beta))
        assert lower_bound_max(beta) == pytest.approx(best, abs=1e-8)


def test_upper_bound_max_equal_betas():
    for beta in (0.0, 0.2, 0.9):
        assert upper_bound_max(beta, beta) == pytest.approx(
            -math.log((1.0 + beta) / 2.0), rel=1e-12
        )
    assert upper_bound_max(0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_upper_bound_max_degenerate():
    # without signal the bound is its limit 0, and with one beta at 1 it is
    # 1 - b (the log term vanishes)
    assert upper_bound_max(1.0, 1.0) == 0.0
    assert upper_bound_max(1.0, 0.25) == 0.75
    with pytest.raises(ParameterError):
        upper_bound_max(1.5, 0.5)


def test_upper_bound_max_dominates_optimizer_with_bounded_slack():
    rng = np.random.default_rng(44)
    for _ in range(40):
        b1, b2 = rng.uniform(0.0, 0.999, 2)
        _, best = maximize_scalar(lambda mu: upper_envelope(mu, b1, b2))
        bound = upper_bound_max(b1, b2)
        assert bound >= best - 1e-10
        correction = abs(b1 - b2) * (1.0 - min(b1, b2)) / (1.0 - b1 * b2)
        assert bound - best <= correction + 1e-10


def test_optimal_prior_equal_betas_is_half():
    assert optimal_prior_upper(0.4, 0.4)[0] == pytest.approx(0.5, abs=1e-8)


def test_optimal_prior_complement_identity():
    rng = np.random.default_rng(45)
    for _ in range(20):
        b1, b2 = rng.uniform(0.0, 0.99, 2)
        mu_a, _ = optimal_prior_upper(b1, b2)
        mu_b, _ = optimal_prior_upper(b2, b1)
        assert mu_a + mu_b == pytest.approx(1.0, abs=2e-8)


def test_optimal_prior_threshold_side():
    rng = np.random.default_rng(46)
    for _ in range(40):
        b1, b2 = rng.uniform(0.0, 0.99, 2)
        if abs(b1 - b2) < 1e-3:
            continue
        mu, _ = optimal_prior_upper(b1, b2)
        threshold = (1.0 - b1) / (2.0 - b1 - b2)
        if b1 > b2:
            assert mu > threshold
        else:
            assert mu < threshold


def test_optimal_prior_domain():
    # (0.5, 0.0) without signal; one beta at 1 is maximized like any other
    assert optimal_prior_upper(1.0, 1.0) == (0.5, 0.0)
    mu, value = optimal_prior_upper(1.0, 0.5)
    assert 0.5 < mu < 1.0
    assert value == upper_envelope(mu, 1.0, 0.5) > 0.0
    with pytest.raises(ParameterError):
        optimal_prior_upper(1.0, 1.5)


def test_envelope_difference_matches_plain_subtraction():
    rng = np.random.default_rng(47)
    for _ in range(40):
        probs, trials = _channel_triple(rng, trials_hi=20)
        triple = beta_triple(probs, trials)
        mu = float(rng.uniform(0.01, 0.99))
        direct = upper_envelope(mu, triple.beta1, triple.beta2) - lower_envelope(
            mu, triple.beta
        )
        assert _envelope_difference(mu, triple, math.log1p) == pytest.approx(
            direct, rel=1e-9, abs=1e-13
        )


def test_envelope_difference_deep_high_snr_stays_positive():
    # differences far below double-spacing of the envelopes themselves
    probs = BinaryDetectionProbs(0.0004, 0.18)
    triple = beta_triple(probs, 400)
    diff = _envelope_difference(0.5, triple, math.log1p)
    assert 0.0 < diff < 1e-15
    assert bound_gap(triple) > 0.0


def test_bound_gap_checks_nothing_per_evaluation(monkeypatch):
    # the triple is checked once, when it is built; the objective only
    # evaluates the difference
    triple = beta_triple(detection_probs(10.0, 0.02, 0.02), 30)
    checked = []
    monkeypatch.setattr(rate_bounds, "check_unit", lambda x, name: checked.append(name))
    assert bound_gap(triple) > 0.0
    assert checked == []


def test_bound_gap_zero_when_envelopes_coincide():
    assert bound_gap(BetaTriple(0.4, 0.4, 0.4)) == 0.0


def test_gap_bounds_order_against_gap():
    rng = np.random.default_rng(48)
    for _ in range(60):
        probs, trials = _channel_triple(rng)
        triple = beta_triple(probs, trials)
        gap = bound_gap(triple)
        low_snr, high_snr, general_lower = gap_bounds(triple)
        assert general_lower <= gap + 1e-12
        assert gap <= min(low_snr, high_snr) + 1e-12


def test_gap_bounds_degenerate_triple():
    assert gap_bounds(BetaTriple(0.3, 0.3, 0.3)) == (0.0, 0.0, 0.0)


def test_gap_bounds_high_snr_substitution():
    low_snr, high_snr, _ = gap_bounds(BetaTriple(0.01, 0.005, 0.005))
    assert high_snr == pytest.approx(0.01, rel=1e-15)
    assert math.isfinite(low_snr)


def test_gap_bounds_infinite_low_snr_at_zero_beta1():
    low_snr, _, _ = gap_bounds(BetaTriple(0.5, 0.0, 0.25))
    assert low_snr == math.inf


def test_gap_between_maxima_below_pointwise_gap():
    # max F_u - max F_l (the duty-imax imax_upper - imax_lower) <= Delta
    rng = np.random.default_rng(49)
    for _ in range(30):
        probs, trials = _channel_triple(rng)
        triple = beta_triple(probs, trials)
        _, imax_upper = optimal_prior_upper(triple.beta1, triple.beta2)
        diagnostic = imax_upper - lower_bound_max(triple.beta)
        assert -1e-12 <= diagnostic <= bound_gap(triple) + 1e-12


def test_lower_envelope_concave_with_interior_peak():
    beta = 0.2
    mus = np.linspace(0.01, 0.99, 99)
    vals = [lower_envelope(m, beta) for m in mus]
    assert np.diff(vals, 2).max() < 0.0
    assert mus[int(np.argmax(vals))] == pytest.approx(0.5, abs=0.02)


def _bound_set(peak, mu, trials=30):
    """Exact rate, both envelopes, the approximation and Delta at one point
    of the published channel (background 0.02, dead time 0.02)."""
    probs = detection_probs(peak, 0.02, 0.02)
    triple = beta_triple(probs, trials)
    return (
        mi_binomial_mixture(mu, probs, trials),
        lower_envelope(mu, triple.beta),
        upper_envelope(mu, triple.beta1, triple.beta2),
        mi_approx_low_background(mu, probs, trials),
        bound_gap(triple),
    )


def test_rate_bound_set_published_point():
    exact, lower, upper, approx, gap = _bound_set(10.0, 0.5)
    assert lower <= exact <= upper
    assert gap >= 0.0
    assert lower < approx < upper


def test_rate_bound_set_zero_signal():
    assert _bound_set(0.0, 0.5) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_sandwich_random_sweep():
    rng = np.random.default_rng(50)
    for _ in range(200):
        lam_tau = rng.uniform(0.0, 0.1)
        a_tau = rng.uniform(1e-6, 5.0)
        trials = int(rng.integers(1, 120))
        mu = float(rng.uniform(0.0, 1.0))
        probs = BinaryDetectionProbs(
            detection_prob(lam_tau, 1.0) if lam_tau > 0 else 0.0,
            detection_prob(a_tau + lam_tau, 1.0),
        )
        triple = beta_triple(probs, trials)
        mi = mi_binomial_mixture(mu, probs, trials)
        assert lower_envelope(mu, triple.beta) <= mi + 1e-9
        assert mi <= upper_envelope(mu, triple.beta1, triple.beta2) + 1e-9


_unit = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(_unit, _unit, st.integers(1, 300), _unit)
def test_tuned_lower_envelope_between_lower_envelope_and_exact_mi(pa, pb, trials, mu):
    probs = BinaryDetectionProbs(min(pa, pb), max(pa, pb))
    try:
        triple = beta_triple(probs, trials)
        tuned = tuned_lower_curve(probs, trials)(mu)
    except NumericalFailure:
        return  # a divergence rounds below 0: the refusal is the contract
    assert tuned <= mi_binomial_mixture(mu, probs, trials) + 1e-9
    # alpha = 1/2 lies on the 65-point alpha grid
    assert tuned >= lower_envelope(mu, triple.beta) - 1e-12


@settings(max_examples=200, deadline=None)
@given(_unit, _unit)
@example(1.0, 1.0)
def test_optimal_prior_upper_value_is_envelope_at_its_argmax(beta1, beta2):
    mu, value = optimal_prior_upper(beta1, beta2)
    assert value == upper_envelope(mu, beta1, beta2)
    if beta1 == beta2 == 1.0:
        # the no-signal conventions
        assert (mu, value, upper_bound_max(beta1, beta2)) == (0.5, 0.0, 0.0)
