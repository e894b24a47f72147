"""Exact mutual information of the binary-input channels.

The imperfect receiver reduces, per symbol, to binary input with
Bin(L, p0) / Bin(L, p1) outputs; the perfect-counting benchmark has
Poisson outputs.  Both mutual informations are computed by direct
summation of the mixture over the bins either law can reach (a binomial
law's Bernstein window, a Poisson law's tail bound), so they serve as the
ground truth against which every bound and approximation is measured.
The log-factorials come from a table that reproduces scipy's ``gammaln``
(cephes ``lgam``) bit for bit at the integers; numpy is the only dependency.
"""

import functools
import math

import numpy as np

from .channel import BinaryDetectionProbs
from .errors import ParameterError
from .guards import check_finite, check_trials, check_unit
from . import optimize

# The exact sums refuse a trial count (or Poisson mean) above this: the
# log-factorial table and the Poisson support grow linearly with it.
MAX_TRIALS_EXACT = 100_000

POISSON_TAIL_MASS = 1e-14

# Mixture cells per block of the duty-cycle scan: 128 KiB of float64.
SCAN_BLOCK_CELLS = 16_384

LS2PI = 0.91893853320467274178  # ln sqrt(2 pi), as in cephes


def binary_entropy(x):
    """h_b(x) = -x ln x - (1-x) ln(1-x) in nats, with 0 ln 0 = 0."""
    check_unit(x, "binary_entropy argument")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


_log_factorial_table = np.empty(0)


def _log_factorials(n):
    """ln k! for k = 0..n: a read-only view of one table per process, which a
    read past its end rebuilds at least twice as long, so it stays shorter
    than twice the largest count read.  Each entry is cephes lgam(k + 1)
    bit for bit, a function of k alone: the log of the exact product below
    13, else its Stirling series in cephes' evaluation order with libm's
    log (math.log)."""
    global _log_factorial_table
    if n >= len(_log_factorial_table):
        size = max(n + 1, 2 * len(_log_factorial_table))
        x = np.arange(13.0, size + 1.0)
        log_x = np.fromiter(map(math.log, x.tolist()), np.float64, len(x))
        p = 1.0 / (x * x)
        series = np.where(
            x < 1000.0,
            (((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
              + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
            + 8.33333333333331927722e-2,
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333,
        )
        small = [math.log(math.factorial(k)) for k in range(min(size, 12))]
        table = np.concatenate((small, (x - 0.5) * log_x - x + LS2PI + series / x))
        table.flags.writeable = False  # shared by every caller in the process
        _log_factorial_table = table
    return _log_factorial_table[: n + 1]


def _xlogy(k, y):
    """k ln y over an array k, with 0 ln y = 0 (so 0 ln 0 = 0)."""
    log_y = math.log(y) if y > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        return np.where(k == 0.0, 0.0, k * log_y)


def _binomial_window(trials, p):
    """(lo, hi): the bins within t of the mean, t = 250 + sqrt(250^2 +
    1500 L p q), clipped to 0..trials.  By Bernstein's bound any other bin
    has P(Bin(L, p) = k) < e^-750, which exp rounds to 0.0."""
    mean = trials * p
    t = 250.0 + math.sqrt(62_500.0 + 1500.0 * mean * (1.0 - p))
    return max(0, math.floor(mean - t)), min(trials, math.ceil(mean + t))


def _binomial_logpmf_support(trials, p, ranges=None):
    """Log pmf over the bins of each range (lo, hi) in turn (default: the
    full support 0..trials) as a numpy array; impossible outcomes are -inf."""
    table = _log_factorials(trials)
    parts = []
    for lo, hi in ranges or [(0, trials)]:
        k = np.arange(lo, hi + 1, dtype=np.float64)
        comb = table[trials] - table[lo : hi + 1] - table[trials - hi : trials - lo + 1][::-1]
        parts.append(comb + _xlogy(k, p) + _xlogy(trials - k, 1.0 - p))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _entropy_from_pmf(pmf):
    pmf = pmf if pmf.all() else pmf[pmf > 0.0]  # a copy only if some bin is 0
    return float(-(pmf * np.log(pmf)).sum())


def _row_entropies(mix):
    """The entropy of each row of a matrix of pmfs, as a column."""
    logs = np.log(mix, out=np.zeros_like(mix), where=mix > 0.0)
    return -(mix * logs).sum(axis=1, keepdims=True)


def _mixture_curve(pmf0, pmf1):
    """(mi, scan): mu -> H(mixture) - (1-mu) H(pmf0) - mu H(pmf1) over a
    shared support, and the same over an array of duty cycles,
    SCAN_BLOCK_CELLS cells at a time.  Both laws are compacted once, to the
    bins either law reaches, and the component entropies computed once."""
    reached = (pmf0 > 0.0) | (pmf1 > 0.0)
    law0, law1 = pmf0[reached], pmf1[reached]
    h0, h1 = _entropy_from_pmf(law0), _entropy_from_pmf(law1)
    rows = max(1, SCAN_BLOCK_CELLS // law0.size)

    def mi(mu, entropy=_entropy_from_pmf):
        mix = (1.0 - mu) * law0 + mu * law1
        return entropy(mix) - (1.0 - mu) * h0 - mu * h1

    def scan(mu):
        blocks = range(0, mu.size, rows)
        return np.concatenate(
            [mi(mu[i : i + rows, None], _row_entropies) for i in blocks]
        ).ravel()

    return mi, scan


def mi_binomial_curve(probs: BinaryDetectionProbs, trials):
    """mu -> I(X; N_hat) in nats for one channel: the two binomial pmfs are
    built once, and each mu costs one mixture entropy."""
    return _binomial_curve(probs, trials)[0]


def _binomial_curve(probs, trials):
    """``mi_binomial_curve`` and its scan from the same pmfs (None if p_off == p_on)."""
    check_trials(trials)
    if trials > MAX_TRIALS_EXACT:
        raise ParameterError(
            f"trials = {trials} exceeds exact-summation cap {MAX_TRIALS_EXACT}"
        )
    trials = int(trials)
    mi = scan = None
    if probs.p_off != probs.p_on:
        # the union of the two windows, as one range or two disjoint ones
        (lo0, hi0), (lo1, hi1) = sorted(
            _binomial_window(trials, p) for p in (probs.p_off, probs.p_on)
        )
        hi = max(hi0, hi1)
        ranges = [(lo0, hi0), (lo1, hi)] if hi0 < lo1 else [(lo0, hi)]
        mi, scan = _mixture_curve(
            np.exp(_binomial_logpmf_support(trials, probs.p_off, ranges)),
            np.exp(_binomial_logpmf_support(trials, probs.p_on, ranges)),
        )

    def curve(mu):
        check_unit(mu, "mu")
        if mu == 0.0 or mu == 1.0 or mi is None:
            return 0.0
        return mi(mu)

    return curve, scan


def mi_binomial_mixture(mu, probs: BinaryDetectionProbs, trials):
    """I(X; N_hat) in nats for prior P(X=1) = mu, summed over the reachable bins."""
    check_unit(mu, "mu")
    return mi_binomial_curve(probs, trials)(mu)


def mi_max_bruteforce(probs: BinaryDetectionProbs, trials):
    """(mu_dagger, I_max): numerically maximized mutual information over mu.

    The exact mutual information is concave in mu, so a moderate scan plus
    golden-section refinement is reliable.
    """
    if probs.p_off == probs.p_on:
        return 0.5, 0.0
    curve, scan = _binomial_curve(probs, trials)
    return optimize.maximize_scalar(curve, coarse_points=65, scan=scan)


def _poisson_support_max(mean):
    """Last count kept for Poisson(mean): by Bernstein's bound the mass above
    it is at most exp(-63), far below POISSON_TAIL_MASS, for every mean."""
    return int(mean + 12.0 * math.sqrt(mean + 1.0) + 30.0)


def _poisson_pmf_support(mean, n_max):
    k = np.arange(n_max + 1, dtype=np.float64)
    # 0 ln 0 = 0 and k ln 0 = -inf for k > 0: mean 0 is a point mass at 0
    return np.exp(_xlogy(k, mean) - mean - _log_factorials(n_max))


def mi_discrete_poisson(mu, mean_off, mean_on):
    """Binary-input mutual information with Poisson(mean) outputs, in nats.

    The perfect-receiver benchmark: summation stops where the tail mass of
    both laws is below POISSON_TAIL_MASS.  Means above MAX_TRIALS_EXACT are
    refused, like the trial counts of the binomial sum.  Every call makes
    every check; the laws of the last pair of means are kept.
    """
    check_unit(mu, "mu")
    if mean_off < 0 or mean_on < 0:
        raise ParameterError("Poisson means must be nonnegative")
    top = max(mean_off, mean_on)
    if top > MAX_TRIALS_EXACT:
        raise ParameterError(
            f"Poisson mean {top} exceeds exact-summation cap {MAX_TRIALS_EXACT}"
        )
    # after the cap, so that an infinite mean keeps the cap's message
    check_finite(mean_off, "mean_off")
    check_finite(mean_on, "mean_on")
    if mu == 0.0 or mu == 1.0 or mean_off == mean_on:
        return 0.0
    return _poisson_curve(mean_off, mean_on)(mu)


@functools.lru_cache(maxsize=1)
def _poisson_curve(mean_off, mean_on):
    """mu -> I for one checked pair of means, kept for the last pair seen, so
    that a sweep over mu builds its two laws once."""
    n_max = _poisson_support_max(max(mean_off, mean_on))
    return _mixture_curve(
        _poisson_pmf_support(mean_off, n_max),
        _poisson_pmf_support(mean_on, n_max),
    )[0]
