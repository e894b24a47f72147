import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deadtime_channel import (
    BinaryDetectionProbs,
    ParameterError,
    beta_triple,
    detection_prob,
    mi_approx_low_background,
    mi_binomial_mixture,
    upper_envelope,
)
from deadtime_channel import approximation
from deadtime_channel.approximation import mi_approx_max


def test_corner_duty_cycles():
    probs = BinaryDetectionProbs(0.001, 0.3)
    assert mi_approx_low_background(0.0, probs, 20) == 0.0
    assert mi_approx_low_background(1.0, probs, 20) == 0.0


def test_zero_background_reduction():
    # with p0 = 0 only the three signal terms survive
    p1, trials, mu = 0.25, 12, 0.4
    q_pow = (1.0 - p1) ** trials
    zero_mass = mu * q_pow + 1.0 - mu
    expected = (
        -zero_mass * math.log(zero_mass)
        + mu * trials * q_pow * math.log(1.0 - p1)
        - mu * (1.0 - q_pow) * math.log(mu)
    )
    got = mi_approx_low_background(mu, BinaryDetectionProbs(0.0, p1), trials)
    assert got == pytest.approx(expected, rel=1e-14)


def test_vanishing_background_consistency():
    p1, trials, mu = 0.3, 15, 0.6
    limit = mi_approx_low_background(mu, BinaryDetectionProbs(0.0, p1), trials)
    prev_gap = math.inf
    for p0 in (1e-4, 1e-6, 1e-8):
        val = mi_approx_low_background(mu, BinaryDetectionProbs(p0, p1), trials)
        gap = abs(val - limit)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-6


def test_zero_signal_channel_carries_nothing():
    # p_off == p_on: no information, as in the exact mutual information
    probs = BinaryDetectionProbs(detection_prob(0.02, 0.02), detection_prob(0.02, 0.02))
    for mu in (0.1, 0.5, 0.9):
        assert mi_approx_low_background(mu, probs, 30) == 0.0
        assert mi_binomial_mixture(mu, probs, 30) == 0.0
    # the zero-signal convention of the other duty-cycle optima
    assert mi_approx_max(probs, 30) == (0.5, 0.0)
    # the validity region is still enforced without signal
    with pytest.raises(ParameterError, match="validity"):
        mi_approx_low_background(0.5, BinaryDetectionProbs(0.05, 0.05), 30)
    with pytest.raises(ParameterError, match="validity"):
        mi_approx_max(BinaryDetectionProbs(0.05, 0.05), 30)


def test_validity_guard():
    # trials * p_off must stay below one
    with pytest.raises(ParameterError, match="validity"):
        mi_approx_low_background(0.5, BinaryDetectionProbs(0.05, 0.5), 30)
    with pytest.raises(ParameterError):
        mi_approx_low_background(0.5, BinaryDetectionProbs(0.0, 1.0), 30)


@pytest.mark.parametrize(
    "probs, match",
    [
        (BinaryDetectionProbs(0.05, 0.5), "validity"),
        (BinaryDetectionProbs(0.05, 0.05), "validity"),  # without signal
        (BinaryDetectionProbs(0.0, 1.0), "0 < p_on < 1"),
        (BinaryDetectionProbs(0.0, 5e-324), "underflow"),
    ],
)
def test_mi_approx_max_refuses_through_the_public_entry(monkeypatch, probs, match):
    # a wrapper installed on the module-global name, as the benchmark's
    # tracer installs one, sees the optimum's refusal, once
    entry, refusals = approximation.mi_approx_low_background, []

    def wrapped(*args):
        try:
            return entry(*args)
        except ParameterError as exc:
            refusals.append(exc)
            raise

    monkeypatch.setattr(approximation, "mi_approx_low_background", wrapped)
    with pytest.raises(ParameterError, match=match) as refused:
        mi_approx_max(probs, 30)
    assert refusals == [refused.value]


def test_published_point_beats_envelopes():
    tau = 0.02
    probs = BinaryDetectionProbs(
        detection_prob(0.02, tau), detection_prob(10.02, tau)
    )
    trials, mu = 30, 0.5
    triple = beta_triple(probs, trials)
    exact = mi_binomial_mixture(mu, probs, trials)
    approx_err = abs(mi_approx_low_background(mu, probs, trials) - exact)
    assert approx_err < abs(upper_envelope(mu, triple.beta, triple.beta) - exact)
    assert approx_err < abs(upper_envelope(mu, triple.beta1, triple.beta2) - exact)


def test_medium_snr_band_wins_everywhere():
    # the expansion dominates both envelopes across the medium-rate band;
    # beyond peak rate ~12 the envelopes tighten exponentially and win
    tau, lam0, trials = 0.02, 0.02, 30
    p0 = detection_prob(lam0, tau)
    for peak in np.linspace(2.0, 10.0, 9):
        p1 = detection_prob(peak + lam0, tau)
        probs = BinaryDetectionProbs(p0, p1)
        triple = beta_triple(probs, trials)
        for mu in np.linspace(0.3, 0.7, 9):
            exact = mi_binomial_mixture(mu, probs, trials)
            approx_err = abs(mi_approx_low_background(mu, probs, trials) - exact)
            assert approx_err < abs(upper_envelope(mu, triple.beta, triple.beta) - exact)
            assert approx_err < abs(
                upper_envelope(mu, triple.beta1, triple.beta2) - exact
            )


def test_relative_accuracy_at_published_point():
    tau = 0.02
    probs = BinaryDetectionProbs(detection_prob(0.02, tau), detection_prob(10.02, tau))
    exact = mi_binomial_mixture(0.5, probs, 30)
    approx = mi_approx_low_background(0.5, probs, 30)
    assert approx == pytest.approx(exact, rel=5e-3)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0), st.integers(1, 1000))
def test_mi_approx_max_value_is_expansion_at_its_argmax(lp0, pb, trials):
    # trials * p_off = lp0 < 1, inside the expansion's region up to rounding
    pa = lp0 / trials
    probs = BinaryDetectionProbs(min(pa, pb), max(pa, pb))
    try:
        mu, value = mi_approx_max(probs, trials)
    except ParameterError:
        return  # outside the expansion's region, as duty-imax's NaN cells
    assert value == mi_approx_low_background(mu, probs, trials)
