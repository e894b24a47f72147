import math

import numpy as np
import pytest

from deadtime_channel import BinaryDetectionProbs, ParameterError, SimConfig, detection_prob
from deadtime_channel.channel import detection_probs
from deadtime_channel.experiments import PRESETS

# 1 - exp(-0.02), 50-digit reference
DET_002 = 0.019801326693244697779185895774691133700287599530865


def test_zero_rate_detects_nothing():
    assert detection_prob(0.0, 1.0) == 0.0
    assert detection_prob(0.0, 123.4) == 0.0


def test_saturation_limit():
    assert detection_prob(1e9, 1.0) == 1.0


def test_small_rate_value():
    assert detection_prob(0.02, 1.0) == pytest.approx(DET_002, rel=1e-15)


def test_small_argument_keeps_relative_precision():
    # 1 - exp(-1e-12) = 1e-12 - 5e-25 + ...; naive evaluation would return 1e-12 +- 1e-16
    assert detection_prob(1e-12, 1.0) == pytest.approx(9.999999999995e-13, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ParameterError):
        detection_prob(-1.0, 1.0)
    with pytest.raises(ParameterError):
        detection_prob(1.0, 0.0)
    with pytest.raises(ParameterError):
        detection_prob(1.0, -0.5)


def test_monotone_in_rate_and_dead_time():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r1, r2 = np.sort(rng.uniform(0.0, 15.0, 2))
        tau1, tau2 = np.sort(rng.uniform(1e-3, 2.0, 2))
        if r1 < r2:
            assert detection_prob(r1, tau1) < detection_prob(r2, tau1)
        if tau1 < tau2:
            assert detection_prob(r2 + 0.1, tau1) < detection_prob(r2 + 0.1, tau2)


def test_rate_composition_identity():
    # p(x1+x2) = p(x2) + (1-p(x2)) p(x1)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x1, x2 = rng.uniform(0.0, 10.0, 2)
        tau = rng.uniform(0.01, 2.0)
        lhs = detection_prob(x1 + x2, tau)
        p1, p2 = detection_prob(x1, tau), detection_prob(x2, tau)
        assert lhs == pytest.approx(p2 + (1.0 - p2) * p1, rel=1e-12)


def _params(peak=10.0, background=0.02, tau=0.02, samples=30):
    # a channel's settings are held, and checked, by the run that simulates it
    settings = dict(peak_rate=peak, background=background, dead_time=tau, samples=samples)
    return SimConfig(**{**PRESETS["simulate"]["published"], **settings})


def test_symbol_probs_off_equals_on_without_signal():
    probs = detection_probs(0.0, 0.02, 0.02)
    assert probs.p_off == probs.p_on


def test_symbol_probs_noiseless_limit():
    probs = detection_probs(1e12, 0.0, 0.02)
    assert probs.p_off == 0.0
    assert probs.p_on == 1.0


def test_symbol_probs_published_setting():
    # peak 10, background 0.02, dead time 0.02 under the unit-symbol convention
    probs = detection_probs(10.0, 0.02, 0.02)
    assert probs.p_off == pytest.approx(3.9992001066560008532764476950755627792524972798e-4, rel=1e-14)
    assert probs.p_on == pytest.approx(0.18159667373352134262487266216190700737439527549965, rel=1e-14)


def test_symbol_probs_ordering():
    rng = np.random.default_rng(13)
    for _ in range(100):
        peak = rng.uniform(0.0, 50.0)
        background = rng.uniform(0.0, 5.0)
        probs = detection_probs(peak, background, 0.02)
        assert probs.p_off <= probs.p_on
        if peak > 0:
            assert probs.p_off < probs.p_on


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(peak=-1.0),
        dict(background=-0.1),
        dict(tau=0.0),
        dict(tau=-0.5),
        dict(samples=-3),
        dict(samples=0),
        dict(samples=2.5),
    ],
)
def test_channel_params_validation(kwargs):
    with pytest.raises(ParameterError):
        _params(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(peak=math.nan),
        dict(peak=math.inf),
        dict(background=math.nan),
        dict(tau=math.inf),
        dict(tau=math.nan),
        dict(samples=math.nan),
    ],
)
def test_channel_params_reject_non_finite(kwargs):
    with pytest.raises(ParameterError, match="finite|integer"):
        _params(**kwargs)


def test_detection_prob_rejects_non_finite():
    for rate, tau in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ParameterError, match="must be finite"):
            detection_prob(rate, tau)


def test_detection_probs_ordering_enforced():
    with pytest.raises(ParameterError):
        BinaryDetectionProbs(0.5, 0.2)
    with pytest.raises(ParameterError):
        BinaryDetectionProbs(-0.1, 0.2)
    with pytest.raises(ParameterError):
        BinaryDetectionProbs(0.1, 1.2)
