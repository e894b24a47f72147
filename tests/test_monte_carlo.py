import math

import numpy as np
import pytest
from scipy import stats

from deadtime_channel import (
    ChannelParams,
    EstimationError,
    ParameterError,
    SimConfig,
    mi_binomial_mixture,
    symbol_probs,
)
from deadtime_channel.monte_carlo import (
    _chunk_rng,
    _chunk_window_hits,
    _chunk_window_hits_arrivals,
    bootstrap_mi_sigma,
    joint_counts,
    plugin_mi_from_counts,
    simulate_summary,
)

PUBLISHED = ChannelParams(10.0, 0.02, 0.02, 1.0 / 30.0, 30)


def _plugin_mi(config):
    return plugin_mi_from_counts(joint_counts(config))


def test_simulate_symbol_dark():
    # no background: an off-symbol never fires a window
    params = ChannelParams(5.0, 0.0, 0.02, 1.0 / 30.0, 30)
    for method in ("bernoulli", "arrivals"):
        counts = joint_counts(SimConfig(params, 2000, 1, 0.5), method=method)
        assert counts[0, 1:].sum() == 0
        assert counts[0, 0] > 0


def test_simulate_symbol_saturated():
    # peak * tau = 50: p_on rounds to 1 and about 25 arrivals hit each window
    params = ChannelParams(100.0, 0.0, 0.5, 0.5, 8)
    for method in ("bernoulli", "arrivals"):
        counts = joint_counts(SimConfig(params, 200, 2, 0.5), method=method)
        assert counts[1, :8].sum() == 0  # every on-symbol fires all 8 windows
        assert counts[1, 8] > 0
        assert counts[0, 1:].sum() == 0  # off-symbols stay dark


def test_simulate_symbol_validation():
    with pytest.raises(ParameterError):
        joint_counts(SimConfig(PUBLISHED, 10, 3, 0.5), method="nope")


def test_window_frequency_matches_closed_form():
    probs = symbol_probs(PUBLISHED)
    config = SimConfig(PUBLISHED, 40000, 99, 1.0)
    counts = joint_counts(config)
    windows = 40000 * 30
    ones = int((np.arange(31) * counts[1]).sum())
    p_hat = ones / windows
    se = math.sqrt(probs.p_on * (1.0 - probs.p_on) / windows)
    assert abs(p_hat - probs.p_on) < 3.0 * se


def test_detection_estimates_reproducible():
    config = SimConfig(PUBLISHED, 30000, 4242, 0.5)
    assert simulate_summary(config) == simulate_summary(config)


def test_detection_estimates_within_three_sigma():
    probs = symbol_probs(PUBLISHED)
    summary = simulate_summary(SimConfig(PUBLISHED, 200000, 7, 0.5))
    assert abs(summary["p0_hat"] - probs.p_off) < 3.0 * summary["p0_stderr"]
    assert abs(summary["p1_hat"] - probs.p_on) < 3.0 * summary["p1_stderr"]


def test_detection_estimates_equal_without_signal():
    params = ChannelParams(0.0, 1.0, 0.02, 1.0 / 30.0, 30)
    summary = simulate_summary(SimConfig(params, 100000, 5, 0.5))
    assert abs(summary["p0_hat"] - summary["p1_hat"]) < 3.0 * math.hypot(
        summary["p0_stderr"], summary["p1_stderr"]
    )


def test_detection_estimates_need_both_classes():
    with pytest.raises(EstimationError):
        simulate_summary(SimConfig(PUBLISHED, 1000, 5, 0.0))


def test_plugin_mi_zero_prior_is_zero():
    assert _plugin_mi(SimConfig(PUBLISHED, 1000, 5, 0.0)) == 0.0


def test_plugin_mi_within_three_bootstrap_sigma():
    config = SimConfig(PUBLISHED, 120000, 11, 0.5)
    summary = simulate_summary(config)
    exact = mi_binomial_mixture(0.5, symbol_probs(PUBLISHED), 30)
    assert abs(summary["mi_plugin"] - exact) < 3.0 * summary["mi_sigma"]


def test_plugin_mi_degenerate_channel_shrinks_with_samples():
    params = ChannelParams(0.0, 1.0, 0.02, 1.0 / 30.0, 30)
    estimates = [
        _plugin_mi(SimConfig(params, n, 13, 0.5)) for n in (1000, 10000, 100000)
    ]
    assert all(e > 0.0 for e in estimates)  # plug-in bias is upward
    assert estimates[0] > estimates[1] > estimates[2]


def test_plugin_bias_upward_and_shrinking():
    # mean bias over seeds at the published setup; the sizes are chosen so
    # the O(cells/n) bias stands >= 3 sigma above the estimator noise of
    # the seed averages (at 1e5+ symbols the bias drowns in that noise)
    exact = mi_binomial_mixture(0.5, symbol_probs(PUBLISHED), 30)
    mean_bias = []
    for symbols, reps in ((320, 256), (32000, 64)):
        biases = [
            _plugin_mi(SimConfig(PUBLISHED, symbols, 1000 + r, 0.5)) - exact
            for r in range(reps)
        ]
        mean_bias.append(sum(biases) / reps)
    assert mean_bias[0] > 0.0
    assert mean_bias[0] > mean_bias[1]


def test_two_simulation_paths_agree():
    # same window-hit law from the Bernoulli and the arrival-time realizations
    params = ChannelParams(4.0, 0.5, 0.05, 0.05, 20)
    n = 50000  # 1e6 windows per method
    probs = symbol_probs(params)
    bits = np.ones(n, dtype=bool)
    ones = []
    for method, stream in (("bernoulli", 1), ("arrivals", 2)):
        rng = _chunk_rng(99, 0, stream=stream)
        if method == "bernoulli":
            z = _chunk_window_hits(rng, bits, probs, 20)
        else:
            z = _chunk_window_hits_arrivals(rng, bits, params)
        ones.append(int(z.sum()))
    windows = n * 20
    table = [[ones[0], windows - ones[0]], [ones[1], windows - ones[1]]]
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.001


def test_adjacent_windows_uncorrelated():
    params = ChannelParams(4.0, 0.5, 0.05, 0.05, 20)
    rng = _chunk_rng(17, 0)
    bits = np.ones(40000, dtype=bool)
    z = _chunk_window_hits_arrivals(rng, bits, params).astype(float)
    left = z[:, :-1].ravel()
    right = z[:, 1:].ravel()
    r = np.corrcoef(left, right)[0, 1]
    assert abs(r) * math.sqrt(left.size) < 3.0


def test_bootstrap_sigma_positive_and_stable():
    config = SimConfig(PUBLISHED, 50000, 23, 0.5)
    counts = joint_counts(config)
    sigma = bootstrap_mi_sigma(config, counts)
    assert 0.0 < sigma < 0.05
    assert sigma == bootstrap_mi_sigma(config, counts)


def test_sim_config_validation():
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 0, 1, 0.5)
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 10, 1, 1.5)
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 10, -1, 0.5)
