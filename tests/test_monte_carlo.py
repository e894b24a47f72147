import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from deadtime_channel import (
    NumericalFailure,
    ParameterError,
    SimConfig,
    mi_binomial_mixture,
)
from deadtime_channel import cli, monte_carlo
from deadtime_channel.channel import detection_probs
from deadtime_channel.experiments import PRESETS, flag
from deadtime_channel.monte_carlo import (
    CHUNK_SYMBOLS,
    _chunk_rng,
    _thresholds,
    bootstrap_mi_sigma,
    detection_from_counts,
    joint_counts,
    plugin_mi_from_counts,
)

PUBLISHED = PRESETS["simulate"]["published"]


def _config(**settings):
    """A run of the published simulate preset with ``settings`` laid over it."""
    return SimConfig(**{**PUBLISHED, **settings})


def _probs(config):
    return detection_probs(config.peak_rate, config.background, config.dead_time)


# The oracle draws float uniforms with rng.random() < p, not the raw words
# joint_counts compares with integer thresholds, so it checks that kernel
# rather than repeating it.
def _bernoulli_hits(rng, bits, config):
    # each window fires with the closed-form detection probability
    probs = _probs(config)
    p = np.where(bits, probs.p_on, probs.p_off)[:, None]
    return rng.random((bits.size, config.samples)) < p


def _arrival_hits(rng, bits, config):
    # Poisson arrival times over the union of the sampling windows: arrivals
    # outside the trailing dead-time windows never affect a sample when
    # T_s >= tau, so the union is all that needs to be populated
    L = config.samples
    tau = config.dead_time
    rates = np.where(bits, config.peak_rate + config.background, config.background)
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
    L = config.samples
    counts = np.zeros((2, L + 1), dtype=np.int64)
    done = 0
    chunk = 0
    while done < config.symbols:
        n = min(CHUNK_SYMBOLS, config.symbols - done)
        rng = _chunk_rng(config.seed, chunk)
        bits = rng.random(n) < config.mu
        nhat = window_hits(rng, bits, config).sum(axis=1)
        counts[0] += np.bincount(nhat[~bits], minlength=L + 1)
        counts[1] += np.bincount(nhat[bits], minlength=L + 1)
        done += n
        chunk += 1
    return counts


def test_chunk_error_reaches_the_caller(monkeypatch):
    # a chunk that fails on another thread fails joint_counts, not silently
    def chunk_counts(config, thresholds, chunk):
        if chunk == 2:
            raise MemoryError("chunk 2")
        return np.zeros((2, config.samples + 1), dtype=np.int64)

    monkeypatch.setattr(monte_carlo, "_chunk_counts", chunk_counts)
    monkeypatch.setattr(monte_carlo, "_cpus", lambda: 3)
    with pytest.raises(MemoryError, match="chunk 2"):
        joint_counts(_config(symbols=3 * CHUNK_SYMBOLS, seed=1))


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


@pytest.mark.parametrize("seed", [0, 7, 20260808, 2**63, 2**64 - 1])
def test_random_is_the_top_53_bits_of_a_raw_word(seed):
    # the identity the integer thresholds rest on: a numpy release that
    # changes it would move every simulate byte
    key = np.array([seed, 3], dtype=np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(4099)
    words = np.random.Philox(key=key).random_raw(4099)
    assert uniforms.tobytes() == ((words >> np.uint64(11)) * 2.0**-53).tobytes()


@pytest.mark.parametrize(
    "p", [0.0, 5e-324, 1e-300, 2.0**-53, 0.0004, 0.5, 0.18, 1.0 - 2.0**-53, 1.0]
)
def test_threshold_fires_exactly_the_uniforms_below_p(p):
    # the words on either side of the threshold, with their low 11 bits at
    # both extremes, and random words: the kernel's test, x below the
    # class's word threshold or the class saturated, is random() < p on each
    words, saturated = _thresholds(p, p)
    c = math.ceil(p * 2.0**53)
    tops = [top for top in (c - 1, c) if 0 <= top < 2**53]
    edges = [(top << 11) | low for top in tops for low in (0, 1, 2**11 - 2, 2**11 - 1)]
    x = np.concatenate(
        [
            np.array(edges + [0, 2**64 - 1], dtype=np.uint64),
            np.random.default_rng(17).integers(0, 2**64, size=10**5, dtype=np.uint64),
        ]
    )
    below_p = (x >> np.uint64(11)) * 2.0**-53 < p
    for level in (0, 1):
        assert np.array_equal((x < words[level]) | saturated[level], below_p)


def _plugin_mi(config):
    return plugin_mi_from_counts(joint_counts(config))


def test_simulate_symbol_dark():
    # no background: an off-symbol never fires a window
    config = _config(peak_rate=5.0, background=0.0, symbols=2000, seed=1)
    for counts in (joint_counts(config), _serial_joint_counts(config, _arrival_hits)):
        assert counts[0, 1:].sum() == 0
        assert counts[0, 0] > 0


def test_simulate_symbol_saturated():
    # peak * tau = 50: p_on rounds to 1 and about 25 arrivals hit each window
    config = _config(
        peak_rate=400.0, background=0.0, dead_time=0.125, samples=8, symbols=200, seed=2
    )
    for counts in (joint_counts(config), _serial_joint_counts(config, _arrival_hits)):
        assert counts[1, :8].sum() == 0  # every on-symbol fires all 8 windows
        assert counts[1, 8] > 0
        assert counts[0, 1:].sum() == 0  # off-symbols stay dark


_BIT_IDENTITY_CONFIGS = [
    _config(symbols=1, seed=3),
    _config(symbols=CHUNK_SYMBOLS, seed=4),
    _config(symbols=3 * CHUNK_SYMBOLS + 123, seed=5, mu=0.3),
    _config(dead_time=0.002, samples=300, symbols=2 * CHUNK_SYMBOLS + 7, seed=6),
    # one symbol's row is larger than a block of uniforms
    _config(
        peak_rate=1e5, background=1e4, dead_time=2.0**-17, samples=2**17, symbols=5, seed=8
    ),
    # mu == 1 - 2**-53, the duty cycle's largest threshold
    _config(symbols=2 * CHUNK_SYMBOLS + 9, seed=13, mu=1.0 - 2.0**-53),
    # p_off == 0: no off-symbol window fires
    _config(background=0.0, symbols=2 * CHUNK_SYMBOLS + 9, seed=2**64 - 1),
    # p_on == 1: its word threshold would be 2**64
    _config(peak_rate=1e6, symbols=2 * CHUNK_SYMBOLS + 9, seed=10),
    # both levels saturated
    _config(peak_rate=1e300, background=1e300, symbols=2 * CHUNK_SYMBOLS + 9, seed=11),
    # p_on == 1 - 2**-53, the largest threshold below 2**64
    _config(peak_rate=1835.0, symbols=2 * CHUNK_SYMBOLS + 9, seed=12),
]


def test_bit_identity_configs_reach_the_threshold_edges():
    dark, saturated_on, saturated_both, below_1 = map(_probs, _BIT_IDENTITY_CONFIGS[-4:])
    assert dark.p_off == 0.0
    assert saturated_on.p_on == 1.0
    assert saturated_both.p_off == saturated_both.p_on == 1.0
    assert below_1.p_on == 1.0 - 2.0**-53


@pytest.mark.parametrize("cpus", [None, 1, 3])
@pytest.mark.parametrize(
    "config",
    _BIT_IDENTITY_CONFIGS,
    ids=[
        "one-symbol", "one-chunk", "partial-fourth-chunk", "L300", "L131072",
        "mu-below-1", "dark-off", "saturated-on", "saturated-both", "on-below-1",
    ],
)
def test_joint_counts_match_serial_chunk_loop(monkeypatch, config, cpus):
    # blocked draws on any number of threads give the serial loop's counts
    if cpus is not None:
        monkeypatch.setattr(monte_carlo, "_cpus", lambda: cpus)
    counts = joint_counts(config)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _serial_joint_counts(config))


def test_chunk_draws_only_raw_words(monkeypatch):
    # symbols and windows alike compare raw words with their thresholds: a
    # chunk stream that exposes only its bit generator gives the same run
    config = _config(symbols=2 * CHUNK_SYMBOLS + 7, seed=14, mu=0.3)
    expected = joint_counts(config)
    keyed = monte_carlo._chunk_rng

    def raw_only(seed, chunk):
        return SimpleNamespace(bit_generator=keyed(seed, chunk).bit_generator)

    monkeypatch.setattr(monte_carlo, "_chunk_rng", raw_only)
    assert np.array_equal(joint_counts(config), expected)


def test_window_frequency_matches_closed_form():
    # the on-symbols' windows of a run at duty cycle 1/2, about 40000 symbols
    config = _config(symbols=80000, seed=99)
    probs = _probs(config)
    counts = joint_counts(config)
    windows = int(counts[1].sum()) * 30
    ones = int((np.arange(31) * counts[1]).sum())
    p_hat = ones / windows
    se = math.sqrt(probs.p_on * (1.0 - probs.p_on) / windows)
    assert abs(p_hat - probs.p_on) < 3.0 * se


def _detection(config):
    return detection_from_counts(joint_counts(config), config.samples)


def test_detection_estimates_reproducible():
    config = _config(symbols=30000, seed=4242)
    first, second = joint_counts(config), joint_counts(config)
    assert np.array_equal(first, second)
    assert bootstrap_mi_sigma(config, first) == bootstrap_mi_sigma(config, second)


def test_detection_estimates_within_three_sigma():
    config = _config(symbols=200000, seed=7)
    probs = _probs(config)
    (p0_hat, se0), (p1_hat, se1) = _detection(config)
    assert abs(p0_hat - probs.p_off) < 3.0 * se0
    assert abs(p1_hat - probs.p_on) < 3.0 * se1


def test_detection_estimates_equal_without_signal():
    config = _config(peak_rate=0.0, background=1.0, symbols=100000, seed=5)
    (p0_hat, se0), (p1_hat, se1) = _detection(config)
    assert abs(p0_hat - p1_hat) < 3.0 * math.hypot(se0, se1)


def _one_class_counts():
    # 1024 symbols, all of them off, as a run at duty cycle 0 would give
    counts = np.zeros((2, 31), dtype=np.int64)
    counts[0, :3] = (512, 256, 256)
    return counts


def test_detection_estimates_need_both_classes():
    with pytest.raises(NumericalFailure, match="no symbols of one class"):
        detection_from_counts(_one_class_counts(), 30)


def test_plugin_mi_zero_prior_is_zero():
    assert plugin_mi_from_counts(_one_class_counts()) == 0.0


def test_plugin_mi_within_three_bootstrap_sigma():
    config = _config(symbols=120000, seed=11)
    counts = joint_counts(config)
    exact = mi_binomial_mixture(0.5, _probs(config), 30)
    sigma = bootstrap_mi_sigma(config, counts)
    assert abs(plugin_mi_from_counts(counts) - exact) < 3.0 * sigma


def test_plugin_mi_degenerate_channel_shrinks_with_samples():
    estimates = [
        _plugin_mi(_config(peak_rate=0.0, background=1.0, symbols=n, seed=13))
        for n in (1000, 10000, 100000)
    ]
    assert all(e > 0.0 for e in estimates)  # plug-in bias is upward
    assert estimates[0] > estimates[1] > estimates[2]


def test_plugin_bias_upward_and_shrinking():
    # mean bias over seeds at the published setup; the sizes are chosen so
    # the O(cells/n) bias stands >= 3 sigma above the estimator noise of
    # the seed averages (at 1e5+ symbols the bias drowns in that noise)
    exact = mi_binomial_mixture(0.5, _probs(_config()), 30)
    mean_bias = []
    for symbols, reps in ((320, 256), (32000, 64)):
        biases = [
            _plugin_mi(_config(symbols=symbols, seed=1000 + r)) - exact
            for r in range(reps)
        ]
        mean_bias.append(sum(biases) / reps)
    assert mean_bias[0] > 0.0
    assert mean_bias[0] > mean_bias[1]


def test_two_simulation_paths_agree():
    # same window-hit law from the Bernoulli and the arrival-time realizations
    config = _config(peak_rate=4.0, background=0.5, dead_time=0.05, samples=20)
    n = 50000  # 1e6 windows per method
    bits = np.ones(n, dtype=bool)
    ones = []
    for window_hits, stream in ((_bernoulli_hits, 1), (_arrival_hits, 2)):
        rng = _chunk_rng(99, 0, stream=stream)
        ones.append(int(window_hits(rng, bits, config).sum()))
    windows = n * 20
    table = [[ones[0], windows - ones[0]], [ones[1], windows - ones[1]]]
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.001


def test_adjacent_windows_uncorrelated():
    config = _config(peak_rate=4.0, background=0.5, dead_time=0.05, samples=20)
    rng = _chunk_rng(17, 0)
    bits = np.ones(40000, dtype=bool)
    z = _arrival_hits(rng, bits, config).astype(float)
    left = z[:, :-1].ravel()
    right = z[:, 1:].ravel()
    r = np.corrcoef(left, right)[0, 1]
    assert abs(r) * math.sqrt(left.size) < 3.0


def test_bootstrap_sigma_positive_and_stable():
    config = _config(symbols=50000, seed=23)
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
    yield joint_counts(_config(symbols=5000, seed=9))


def test_bootstrap_sigma_matches_full_vector_draw():
    # skipping the empty cells draws the same binomials as the full vector
    # and sums the same MI terms in the same order
    config = _config(symbols=1000, seed=31)
    for counts in _sparse_histograms():
        assert plugin_mi_from_counts(counts) == _full_plugin_mi(counts)
        assert bootstrap_mi_sigma(config, counts) == _full_vector_sigma(config, counts)


@pytest.mark.parametrize(
    "settings, message",
    [
        pytest.param(dict(samples=0), "samples must be a positive integer, got 0", id="samples"),
        pytest.param(dict(mu=0.0), "mu must be in (0, 1), got 0.0", id="mu-0"),
        pytest.param(dict(mu=1.0), "mu must be in (0, 1), got 1.0", id="mu-1"),
        pytest.param(dict(peak_rate=-1.0), "peak_rate must be >= 0, got -1.0", id="peak_rate"),
        pytest.param(
            dict(background=math.nan), "background_rate must be finite, got nan", id="background"
        ),
        pytest.param(dict(dead_time=0.0), "dead_time must be > 0, got 0.0", id="dead_time"),
        pytest.param(
            dict(samples=100),
            "the sampling interval 1/--samples = 0.01 must be >= --dead-time = 0.02",
            id="sampling-interval",
        ),
        pytest.param(dict(symbols=0), "symbols must be >= 1, got 0", id="symbols"),
        pytest.param(dict(seed=-1), "seed must be a 64-bit unsigned integer", id="seed-negative"),
        pytest.param(dict(seed=2**64), "seed must be a 64-bit unsigned integer", id="seed-2**64"),
        # also above the exact-MI trial cap, which is checked after the config
        pytest.param(
            dict(samples=100001, dead_time=1e-6),
            "a chunk of 16384 symbols at L = 100001 is 1638416384 sampling windows, "
            "above the cap of 33554432",
            id="chunk-cap",
        ),
    ],
)
def test_sim_config_refuses_each_bad_setting(capsys, settings, message):
    # each bad setting is refused once, by SimConfig, with the CLI's message
    with pytest.raises(ParameterError) as refused:
        _config(**settings)
    assert str(refused.value) == message
    argv = ["simulate"] + [f"{flag(key)}={value}" for key, value in settings.items()]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
