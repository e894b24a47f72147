"""Monte Carlo simulation of the sampled photon-counting receive chain.

Each window's indicator is drawn as Bernoulli(1 - exp(-rate*tau)), the
probability that at least one photon arrives in the window's trailing dead
time.  Randomness comes from numpy's counter-based Philox4x64 generator,
keyed by (seed, chunk_index): every 16384-symbol chunk owns an independent,
reproducible stream (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The chunks run on up to one thread per CPU and their
int64 histograms are summed, which is exact, so the result does not
depend on the order in which chunks finish.  Inside a chunk the window uniforms are
drawn in blocks of about 2**16 windows; the generator is consumed
sequentially, so the blocks see the same bits as one chunk-sized draw and
a run is bit-stable for a fixed seed.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, symbol_probs
from .errors import EstimationError, ParameterError
from .guards import check_unit

CHUNK_SYMBOLS = 16384

# Largest chunk of sampling windows.  A chunk runs on one thread, so this
# bounds the work that one thread does without a break (2**25 uniforms).
# Memory is bounded by the blocks, not by this cap.
MAX_CHUNK_WINDOWS = 2**25

# Windows per block of uniforms (512 KiB of float64, so a block stays in
# cache); a block is one symbol's row when L is larger.
BLOCK_WINDOWS = 2**16

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
    # The key is built as uint64: numpy reads a list holding a seed of 2**63
    # or more as float64, which would round it (2**64 - 1 to seed 0's key).
    key = np.array([seed, (stream << 32) + chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_counts(config, probs, chunk):
    """(2, L + 1) histogram of one keyed chunk of the run."""
    L = config.params.samples_per_symbol
    n = min(CHUNK_SYMBOLS, config.symbols - chunk * CHUNK_SYMBOLS)
    rng = _chunk_rng(config.seed, chunk)
    bits = rng.random(n) < config.duty_cycle
    p = np.where(bits, probs.p_on, probs.p_off)[:, None]
    nhat = np.empty(n, dtype=np.int64)
    rows = max(1, BLOCK_WINDOWS // L)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        nhat[lo:hi] = np.count_nonzero(rng.random((hi - lo, L)) < p[lo:hi], axis=1)
    return np.stack(
        [
            np.bincount(nhat[~bits], minlength=L + 1),
            np.bincount(nhat[bits], minlength=L + 1),
        ]
    )


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def joint_counts(config: SimConfig):
    """Histogram of (symbol, number of nonzero samples) over the whole run.

    Returns an int64 array of shape (2, L + 1), the sum of the keyed
    chunks' histograms.  The calling thread and one more thread per further
    usable CPU, up to one thread per chunk, each sum every workers-th
    chunk, so memory stays flat however many chunks a run has.
    """
    probs = symbol_probs(config.params)
    chunks = -(-config.symbols // CHUNK_SYMBOLS)
    workers = min(_cpus(), chunks)

    def counts(first):
        share = range(first, chunks, workers)
        return sum(_chunk_counts(config, probs, chunk) for chunk in share)

    if workers == 1:
        return counts(0)
    # Plain threads, not concurrent.futures: importing that loads logging,
    # which raises the peak resident memory of a short run by about 0.4 MiB.
    parts = [None] * workers

    def run(first):
        try:
            parts[first] = counts(first)
        except BaseException as exc:  # raised again on the calling thread
            parts[first] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)  # the calling thread's allocator already holds free memory
    for thread in threads:
        thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    return sum(parts)


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
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / windows)
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
