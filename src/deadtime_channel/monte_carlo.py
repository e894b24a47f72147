"""Event-level simulation of the sampled photon-counting receive chain.

Randomness comes from numpy's counter-based Philox4x64 generator, keyed by
(seed, chunk_index): every 16384-symbol chunk owns an independent,
reproducible stream, so runs are bit-stable for a fixed seed and chunks
may be evaluated in any order or in parallel and merged by summation.

Two realizations of a symbol are implemented and must agree statistically:
drawing each window's indicator directly as Bernoulli(1 - exp(-rate*tau)),
and generating Poisson arrival times over the union of sampling windows
(arrivals outside the trailing dead-time windows never affect a sample
when T_s >= tau, so the union is all that needs to be populated).
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, symbol_probs
from .errors import EstimationError, ParameterError
from .guards import check_unit

CHUNK_SYMBOLS = 16384

# Largest chunk of sampling windows drawn at once: 2**25 float64 uniforms
# are 256 MiB.
MAX_CHUNK_WINDOWS = 2**25

BOOTSTRAP_REPLICATES = 200

_BOOTSTRAP_STREAM = 0xB0075


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run: channel, size, seed, and OOK prior."""

    params: ChannelParams
    symbols: int
    seed: int
    duty_cycle: float

    def __post_init__(self):
        if self.symbols < 1:
            raise ParameterError(f"symbols must be >= 1, got {self.symbols}")
        check_unit(self.duty_cycle, "duty_cycle")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        chunk = min(self.symbols, CHUNK_SYMBOLS)
        L = self.params.samples_per_symbol
        if chunk * L > MAX_CHUNK_WINDOWS:
            raise ParameterError(
                f"a chunk of {chunk} symbols at L = {L} is {chunk * L} sampling "
                f"windows, above the cap of {MAX_CHUNK_WINDOWS}"
            )


def _chunk_rng(seed, chunk_index, stream=0):
    # Philox4x64 takes a 128-bit key: (seed, stream | chunk) gives every
    # chunk of every logical stream its own independent counter sequence.
    return np.random.Generator(
        np.random.Philox(key=[seed, (stream << 32) + chunk_index])
    )


def _chunk_window_hits(rng, bits, probs, L):
    p = np.where(bits, probs.p_on, probs.p_off)[:, None]
    return rng.random((bits.size, L)) < p


def _chunk_window_hits_arrivals(rng, bits, params: ChannelParams):
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


def joint_counts(config: SimConfig, method="bernoulli"):
    """Histogram of (symbol, number of nonzero samples) over the whole run.

    Returns an int64 array of shape (2, L + 1); partitioned into keyed
    chunks so the result is independent of evaluation order.
    """
    probs = symbol_probs(config.params)
    L = config.params.samples_per_symbol
    counts = np.zeros((2, L + 1), dtype=np.int64)
    done = 0
    chunk = 0
    while done < config.symbols:
        n = min(CHUNK_SYMBOLS, config.symbols - done)
        rng = _chunk_rng(config.seed, chunk)
        bits = rng.random(n) < config.duty_cycle
        if method == "bernoulli":
            z = _chunk_window_hits(rng, bits, probs, L)
        elif method == "arrivals":
            z = _chunk_window_hits_arrivals(rng, bits, config.params)
        else:
            raise ParameterError(f"unknown method {method!r}")
        nhat = z.sum(axis=1)
        counts[0] += np.bincount(nhat[~bits], minlength=L + 1)
        counts[1] += np.bincount(nhat[bits], minlength=L + 1)
        done += n
        chunk += 1
    return counts


def _detection_from_counts(counts, L):
    k = np.arange(L + 1)
    out = []
    for row in counts:
        n_sym = int(row.sum())
        if n_sym == 0:
            raise EstimationError(
                "no symbols of one class were observed; "
                "increase symbols or move duty_cycle away from {0, 1}"
            )
        windows = n_sym * L
        ones = int((k * row).sum())
        p_hat = ones / windows
        stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / windows)
        out.append((p_hat, stderr))
    return out[0], out[1]


def plugin_mi_from_counts(counts):
    """Plug-in mutual information (nats) of an empirical joint histogram."""
    n = counts.sum()
    if n == 0:
        raise EstimationError("empty histogram")
    q = counts / n
    marg = np.outer(q.sum(axis=1), q.sum(axis=0))
    mask = q > 0
    return float((q[mask] * np.log(q[mask] / marg[mask])).sum())


def bootstrap_mi_sigma(config: SimConfig, counts):
    """Multinomial-bootstrap standard error of the plug-in MI estimate."""
    n = int(counts.sum())
    flat = (counts / n).ravel()
    rng = _chunk_rng(config.seed, 0, stream=_BOOTSTRAP_STREAM)
    values = np.empty(BOOTSTRAP_REPLICATES)
    for r in range(BOOTSTRAP_REPLICATES):
        resampled = rng.multinomial(n, flat).reshape(counts.shape)
        values[r] = plugin_mi_from_counts(resampled)
    return float(values.std(ddof=1))


def simulate_summary(config: SimConfig):
    """One simulation pass feeding the CSV emitter and the validation suite.

    Returns a dict with empirical detection probabilities (and standard
    errors), the plug-in MI, and its bootstrap standard error.
    """
    counts = joint_counts(config)
    (p0_hat, se0), (p1_hat, se1) = _detection_from_counts(
        counts, config.params.samples_per_symbol
    )
    mi = plugin_mi_from_counts(counts)
    sigma = bootstrap_mi_sigma(config, counts)
    return {
        "p0_hat": p0_hat,
        "p0_stderr": se0,
        "p1_hat": p1_hat,
        "p1_stderr": se1,
        "mi_plugin": mi,
        "mi_sigma": sigma,
    }
