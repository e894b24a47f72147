import math

import numpy as np
import pytest
from scipy import stats

from deadtime_channel import (
    ChannelParams,
    NumericalFailure,
    SimConfig,
    mi_binomial_mixture,
    symbol_probs,
)
from deadtime_channel import monte_carlo
from deadtime_channel.monte_carlo import (
    CHUNK_SYMBOLS,
    _chunk_rng,
    bootstrap_mi_sigma,
    detection_from_counts,
    joint_counts,
    plugin_mi_from_counts,
)

PUBLISHED = ChannelParams(10.0, 0.02, 0.02, 30)


def _bernoulli_hits(rng, bits, params):
    # each window fires with the closed-form detection probability
    probs = symbol_probs(params)
    p = np.where(bits, probs.p_on, probs.p_off)[:, None]
    return rng.random((bits.size, params.samples_per_symbol)) < p


def _arrival_hits(rng, bits, params):
    # Poisson arrival times over the union of the sampling windows: arrivals
    # outside the trailing dead-time windows never affect a sample when
    # T_s >= tau, so the union is all that needs to be populated
    L = params.samples_per_symbol
    tau = params.dead_time
    rates = np.where(
        bits,
        params.peak_rate + params.background_rate,
        params.background_rate,
    )
    counts = rng.poisson(rates * L * tau)
    total = int(counts.sum())
    z = np.zeros((bits.size, L), dtype=bool)
    if total:
        pos = rng.random(total) * (L * tau)
        window = np.minimum((pos / tau).astype(np.int64), L - 1)
        symbol_idx = np.repeat(np.arange(bits.size), counts)
        z[symbol_idx, window] = True
    return z


def _serial_joint_counts(config, window_hits=_bernoulli_hits):
    # one chunk after another, each chunk's windows drawn as one array
    L = config.params.samples_per_symbol
    counts = np.zeros((2, L + 1), dtype=np.int64)
    done = 0
    chunk = 0
    while done < config.symbols:
        n = min(CHUNK_SYMBOLS, config.symbols - done)
        rng = _chunk_rng(config.seed, chunk)
        bits = rng.random(n) < config.duty_cycle
        nhat = window_hits(rng, bits, config.params).sum(axis=1)
        counts[0] += np.bincount(nhat[~bits], minlength=L + 1)
        counts[1] += np.bincount(nhat[bits], minlength=L + 1)
        done += n
        chunk += 1
    return counts


def test_chunk_error_reaches_the_caller(monkeypatch):
    # a chunk that fails on another thread fails joint_counts, not silently
    def chunk_counts(config, probs, chunk):
        if chunk == 2:
            raise MemoryError("chunk 2")
        return np.zeros((2, config.params.samples_per_symbol + 1), dtype=np.int64)

    monkeypatch.setattr(monte_carlo, "_chunk_counts", chunk_counts)
    monkeypatch.setattr(monte_carlo, "_cpus", lambda: 3)
    with pytest.raises(MemoryError, match="chunk 2"):
        joint_counts(SimConfig(PUBLISHED, 3 * CHUNK_SYMBOLS, 1, 0.5))


def test_chunk_streams_keyed_by_every_64_bit_seed():
    # below 2**63 the key is the one a plain list gives, so runs keep their
    # bytes; above it every seed keeps its own stream
    for seed in (0, 7, 20260808, 2**53 + 1, 2**63 - 1):
        listed = np.random.Generator(np.random.Philox(key=[seed, 5]))
        assert _chunk_rng(seed, 5).random(4).tolist() == listed.random(4).tolist()
    firsts = [
        _chunk_rng(seed, 0).random()
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    ]
    assert len(set(firsts)) == len(firsts)


def _plugin_mi(config):
    return plugin_mi_from_counts(joint_counts(config))


def test_simulate_symbol_dark():
    # no background: an off-symbol never fires a window
    config = SimConfig(ChannelParams(5.0, 0.0, 0.02, 30), 2000, 1, 0.5)
    for counts in (joint_counts(config), _serial_joint_counts(config, _arrival_hits)):
        assert counts[0, 1:].sum() == 0
        assert counts[0, 0] > 0


def test_simulate_symbol_saturated():
    # peak * tau = 50: p_on rounds to 1 and about 25 arrivals hit each window
    config = SimConfig(ChannelParams(100.0, 0.0, 0.5, 8), 200, 2, 0.5)
    for counts in (joint_counts(config), _serial_joint_counts(config, _arrival_hits)):
        assert counts[1, :8].sum() == 0  # every on-symbol fires all 8 windows
        assert counts[1, 8] > 0
        assert counts[0, 1:].sum() == 0  # off-symbols stay dark


_BIT_IDENTITY_CONFIGS = [
    SimConfig(PUBLISHED, 1, 3, 0.5),
    SimConfig(PUBLISHED, CHUNK_SYMBOLS, 4, 0.5),
    SimConfig(PUBLISHED, 3 * CHUNK_SYMBOLS + 123, 5, 0.3),
    SimConfig(ChannelParams(10.0, 0.02, 0.002, 300), 2 * CHUNK_SYMBOLS + 7, 6, 0.5),
    # one symbol's row is larger than a block of uniforms
    SimConfig(ChannelParams(1e5, 1e4, 2.0**-17, 2**17), 5, 8, 0.5),
]


@pytest.mark.parametrize("cpus", [None, 1, 3])
@pytest.mark.parametrize(
    "config",
    _BIT_IDENTITY_CONFIGS,
    ids=["one-symbol", "one-chunk", "partial-fourth-chunk", "L300", "L131072"],
)
def test_joint_counts_match_serial_chunk_loop(monkeypatch, config, cpus):
    # blocked draws on any number of threads give the serial loop's counts
    if cpus is not None:
        monkeypatch.setattr(monte_carlo, "_cpus", lambda: cpus)
    counts = joint_counts(config)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _serial_joint_counts(config))


def test_window_frequency_matches_closed_form():
    probs = symbol_probs(PUBLISHED)
    config = SimConfig(PUBLISHED, 40000, 99, 1.0)
    counts = joint_counts(config)
    windows = 40000 * 30
    ones = int((np.arange(31) * counts[1]).sum())
    p_hat = ones / windows
    se = math.sqrt(probs.p_on * (1.0 - probs.p_on) / windows)
    assert abs(p_hat - probs.p_on) < 3.0 * se


def _detection(config):
    return detection_from_counts(joint_counts(config), config.params.samples_per_symbol)


def test_detection_estimates_reproducible():
    config = SimConfig(PUBLISHED, 30000, 4242, 0.5)
    first, second = joint_counts(config), joint_counts(config)
    assert np.array_equal(first, second)
    assert bootstrap_mi_sigma(config, first) == bootstrap_mi_sigma(config, second)


def test_detection_estimates_within_three_sigma():
    probs = symbol_probs(PUBLISHED)
    (p0_hat, se0), (p1_hat, se1) = _detection(SimConfig(PUBLISHED, 200000, 7, 0.5))
    assert abs(p0_hat - probs.p_off) < 3.0 * se0
    assert abs(p1_hat - probs.p_on) < 3.0 * se1


def test_detection_estimates_equal_without_signal():
    params = ChannelParams(0.0, 1.0, 0.02, 30)
    (p0_hat, se0), (p1_hat, se1) = _detection(SimConfig(params, 100000, 5, 0.5))
    assert abs(p0_hat - p1_hat) < 3.0 * math.hypot(se0, se1)


def test_detection_estimates_need_both_classes():
    with pytest.raises(NumericalFailure):
        _detection(SimConfig(PUBLISHED, 1000, 5, 0.0))


def test_plugin_mi_zero_prior_is_zero():
    assert _plugin_mi(SimConfig(PUBLISHED, 1000, 5, 0.0)) == 0.0


def test_plugin_mi_within_three_bootstrap_sigma():
    config = SimConfig(PUBLISHED, 120000, 11, 0.5)
    counts = joint_counts(config)
    exact = mi_binomial_mixture(0.5, symbol_probs(PUBLISHED), 30)
    sigma = bootstrap_mi_sigma(config, counts)
    assert abs(plugin_mi_from_counts(counts) - exact) < 3.0 * sigma


def test_plugin_mi_degenerate_channel_shrinks_with_samples():
    params = ChannelParams(0.0, 1.0, 0.02, 30)
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
    params = ChannelParams(4.0, 0.5, 0.05, 20)
    n = 50000  # 1e6 windows per method
    bits = np.ones(n, dtype=bool)
    ones = []
    for window_hits, stream in ((_bernoulli_hits, 1), (_arrival_hits, 2)):
        rng = _chunk_rng(99, 0, stream=stream)
        ones.append(int(window_hits(rng, bits, params).sum()))
    windows = n * 20
    table = [[ones[0], windows - ones[0]], [ones[1], windows - ones[1]]]
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.001


def test_adjacent_windows_uncorrelated():
    params = ChannelParams(4.0, 0.5, 0.05, 20)
    rng = _chunk_rng(17, 0)
    bits = np.ones(40000, dtype=bool)
    z = _arrival_hits(rng, bits, params).astype(float)
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


def _full_plugin_mi(counts):
    # the reference: frequencies, margins and mask over the whole histogram
    q = counts / counts.sum()
    marg = np.outer(q.sum(axis=1), q.sum(axis=0))
    mask = q > 0
    return float((q[mask] * np.log(q[mask] / marg[mask])).sum())


def _full_vector_sigma(config, counts):
    # the reference: every replicate draws over all 2 (L + 1) cells
    n = int(counts.sum())
    flat = (counts / n).ravel()
    rng = _chunk_rng(config.seed, 0, stream=monte_carlo._BOOTSTRAP_STREAM)
    values = [
        _full_plugin_mi(rng.multinomial(n, flat).reshape(counts.shape))
        for _ in range(monte_carlo.BOOTSTRAP_REPLICATES)
    ]
    return float(np.std(values, ddof=1))


def _sparse_histograms():
    rng = np.random.default_rng(2024)
    for L in (1, 2, 30, 300):
        for occupied in (1, 3, L + 1):
            counts = np.zeros((2, L + 1), dtype=np.int64)
            for row in counts:
                cells = rng.choice(L + 1, size=min(occupied, L + 1), replace=False)
                row[cells] = rng.integers(1, 50, size=cells.size)
            yield counts.copy()
            counts[1, L] = 0  # the final cell, which takes the remainder, empty
            yield counts
    yield joint_counts(SimConfig(PUBLISHED, 5000, 9, 0.5))


def test_bootstrap_sigma_matches_full_vector_draw():
    # skipping the empty cells draws the same binomials as the full vector
    # and sums the same MI terms in the same order
    config = SimConfig(PUBLISHED, 1000, 31, 0.5)
    for counts in _sparse_histograms():
        assert plugin_mi_from_counts(counts) == _full_plugin_mi(counts)
        assert bootstrap_mi_sigma(config, counts) == _full_vector_sigma(config, counts)


def test_sim_config_validation():
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 0, 1, 0.5)
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 10, 1, 1.5)
    with pytest.raises(Exception):
        SimConfig(PUBLISHED, 10, -1, 0.5)
