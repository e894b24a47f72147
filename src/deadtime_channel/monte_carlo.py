"""Monte Carlo simulation of the sampled photon-counting receive chain.

A run is a ``SimConfig``, the simulate preset's settings checked once.
Each window's indicator is drawn as Bernoulli(1 - exp(-rate*tau)), the
probability that at least one photon arrives in the window's trailing dead
time.  Randomness comes from numpy's counter-based Philox4x64 generator,
keyed by (seed, chunk_index): every 16384-symbol chunk owns an independent,
reproducible stream (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The chunks run on up to one thread per CPU and their
int64 histograms are summed, which is exact, so the result does not
depend on the order in which chunks finish.  Inside a chunk the window words are
drawn in blocks of about 2**16 windows; the generator is consumed
sequentially, so the blocks see the same bits as one chunk-sized draw and
a run is bit-stable for a fixed seed.

No draw forms a float uniform, neither a symbol's duty-cycle bit nor a
window.  numpy's ``Generator.random()`` returns (x >> 11) * 2**-53 for
the raw Philox word x, so u < p holds exactly when
x < ceil(p * 2**53) << 11.  The thresholds of mu and of each symbol
class are computed once per run, and the raw words are compared with
them directly: the same symbols are on and the same windows fire as with
``random() < p``, from the same words in the same order, without the
float conversion and its pass over memory.  At p = 1 the threshold would
be 2**64, past uint64; every window of that class fires, as every
uniform is below 1 (mu < 1 never saturates).  Only the bootstrap's
multinomial draws through a ``Generator``.

``detection_from_counts``, ``plugin_mi_from_counts`` and
``bootstrap_mi_sigma`` score the histogram of ``joint_counts``; an estimate
it cannot support raises ``NumericalFailure``.
"""

import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .channel import detection_probs
from .errors import NumericalFailure, ParameterError
from .guards import check_open_unit, check_rates, check_trials

CHUNK_SYMBOLS = 16384

# Largest chunk of sampling windows.  A chunk runs on one thread, so this
# bounds the work that one thread does without a break (2**25 uniforms).
# Memory is bounded by the blocks, not by this cap.
MAX_CHUNK_WINDOWS = 2**25

# Windows per block of uniforms (512 KiB of raw uint64 words, so a block
# stays in cache); a block is one symbol's row when L is larger.
BLOCK_WINDOWS = 2**16

BOOTSTRAP_REPLICATES = 200

_BOOTSTRAP_STREAM = 0xB0075


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: the simulate preset's settings, each checked
    here with the message the CLI prints.  The ``samples`` windows tile
    one symbol, so the sampling interval is 1/samples."""

    peak_rate: float
    background: float
    dead_time: float
    samples: int
    symbols: int
    seed: int
    mu: float

    def __post_init__(self):
        check_trials(self.samples, "samples")
        check_open_unit(self.mu, "mu")
        check_rates(self.peak_rate, self.background, self.dead_time)
        if 1.0 / self.samples < self.dead_time:
            raise ParameterError(
                f"the sampling interval 1/--samples = {1.0 / self.samples} must be >= "
                f"--dead-time = {self.dead_time}"
            )
        if self.symbols < 1:
            raise ParameterError(f"symbols must be >= 1, got {self.symbols}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        chunk, L = min(self.symbols, CHUNK_SYMBOLS), self.samples
        if chunk * L > MAX_CHUNK_WINDOWS:
            raise ParameterError(
                f"a chunk of {chunk} symbols at L = {L} is {chunk * L} sampling "
                f"windows, above the cap of {MAX_CHUNK_WINDOWS}"
            )

    # perfbench/tracer.py counts uniforms as config.params.samples_per_symbol
    params = property(lambda self: SimpleNamespace(samples_per_symbol=self.samples))


def _chunk_rng(seed, chunk_index, stream=0):
    # Philox4x64 takes a 128-bit key: (seed, stream | chunk) gives every
    # chunk of every logical stream its own independent counter sequence.
    # The key is built as uint64: numpy reads a list holding a seed of 2**63
    # or more as float64, which would round it (2**64 - 1 to seed 0's key).
    key = np.array([seed, (stream << 32) + chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thresholds(*probs):
    """The raw-word thresholds of the Bernoulli(p) draws for each p in
    ``probs``, as uint64, and which p are saturated (p = 1: every draw fires).

    A draw fires when its word x is below ceil(p * 2**53) << 11, the
    words whose uniform (x >> 11) * 2**-53 is below p.  Scaling by 2**53 is
    exact for every p in [0, 1].  A saturated p gets threshold 0, so
    that its counts are wrong at once unless they are set to L.
    """
    scaled = [math.ceil(p * 2.0**53) for p in probs]
    saturated = [c == 2**53 for c in scaled]
    words = [0 if full else c << 11 for c, full in zip(scaled, saturated)]
    return np.array(words, dtype=np.uint64), np.array(saturated)


def _chunk_counts(config, thresholds, chunk):
    """(2, L + 1) histogram of one keyed chunk of the run."""
    L = config.samples
    n = min(CHUNK_SYMBOLS, config.symbols - chunk * CHUNK_SYMBOLS)
    raw = _chunk_rng(config.seed, chunk).bit_generator.random_raw
    words, saturated = thresholds  # the (off, on) classes', then mu's
    bits = raw(n) < words[2]
    level = bits.view(np.uint8)  # each symbol's class, as an index
    bound = words[level][:, None]
    nhat = np.empty(n, dtype=np.int64)
    rows = max(1, BLOCK_WINDOWS // L)
    fired = np.empty((min(rows, n), L), dtype=bool)
    # the smallest unsigned type that holds L: one byte per count at L < 256
    count_type = np.min_scalar_type(L)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = fired[: hi - lo]
        np.less(raw((hi - lo, L)), bound[lo:hi], out=block)
        nhat[lo:hi] = np.einsum("ij->i", block.view(np.uint8), dtype=count_type)
    nhat[saturated[level]] = L
    return np.bincount(nhat + (L + 1) * bits, minlength=2 * (L + 1)).reshape(2, L + 1)


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
    probs = detection_probs(config.peak_rate, config.background, config.dead_time)
    thresholds = _thresholds(probs.p_off, probs.p_on, config.mu)
    chunks = -(-config.symbols // CHUNK_SYMBOLS)
    workers = min(_cpus(), chunks)

    def counts(first):
        share = range(first, chunks, workers)
        return sum(_chunk_counts(config, thresholds, chunk) for chunk in share)

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


def detection_from_counts(counts, L):
    """((p0_hat, stderr), (p1_hat, stderr)): each symbol class's per-window
    firing frequency in a joint histogram, with its binomial standard error."""
    k = np.arange(L + 1)
    out = []
    for row in counts:
        n_sym = int(row.sum())
        if n_sym == 0:
            raise NumericalFailure(
                "no symbols of one class were observed; "
                "increase symbols or move mu away from {0, 1}"
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
        raise NumericalFailure("empty histogram")
    return _plugin_mi(counts / n, np.flatnonzero(counts))


def _plugin_mi(q, cells):
    """Plug-in MI of the (2, L + 1) frequencies q, positive exactly at the
    ascending flat indices ``cells``; only the row sums read all of q."""
    row, col = np.divmod(cells, q.shape[1])
    occupied = q.ravel()[cells]
    marg = q.sum(axis=1)[row] * (q[0, col] + q[1, col])
    return float((occupied * np.log(occupied / marg)).sum())


def bootstrap_mi_sigma(config: SimConfig, counts):
    """Multinomial-bootstrap standard error of the plug-in MI estimate.

    numpy's multinomial draws one binomial per cell in order, none for a
    cell of probability 0, and gives the final cell the remainder, so a draw
    over the occupied cells and the final one has the bits of a draw over
    every cell.  Only the replicates' row sums then cost O(L).
    """
    n = int(counts.sum())
    flat = (counts / n).ravel()
    keep = flat > 0.0
    keep[-1] = True
    cells = np.flatnonzero(keep)
    probs = flat[cells]
    q = np.zeros(counts.shape)
    rng = _chunk_rng(config.seed, 0, stream=_BOOTSTRAP_STREAM)
    values = np.empty(BOOTSTRAP_REPLICATES)
    for r in range(BOOTSTRAP_REPLICATES):
        draw = rng.multinomial(n, probs)
        q.ravel()[cells] = draw / n
        values[r] = _plugin_mi(q, cells[draw > 0])
    return float(values.std(ddof=1))

