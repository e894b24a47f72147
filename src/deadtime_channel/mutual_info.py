"""Exact mutual information of the binary-input channels.

The imperfect receiver reduces, per symbol, to binary input with
Bin(L, p0) / Bin(L, p1) outputs; the perfect-counting benchmark has
Poisson outputs.  Both mutual informations are computed by direct
summation of the mixture in the log domain, so they serve as the ground
truth against which every bound and approximation is measured.  The
log-factorials come from a table that reproduces scipy's ``gammaln``
(cephes ``lgam``) bit for bit at the integers, so numpy is the only
dependency.
"""

import functools
import math

import numpy as np

from .channel import BinaryDetectionProbs
from .errors import ParameterError
from .guards import check_finite, check_trials, check_unit
from . import optimize

# Full-support summation beyond this trial count (or Poisson mean) is
# wasteful.
MAX_TRIALS_EXACT = 100_000

POISSON_TAIL_MASS = 1e-14

LS2PI = 0.91893853320467274178  # ln sqrt(2 pi), as in cephes


def binary_entropy(x):
    """h_b(x) = -x ln x - (1-x) ln(1-x) in nats, with 0 ln 0 = 0."""
    check_unit(x, "binary_entropy argument")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


@functools.cache
def _log_factorials():
    """ln k! for k = 0.._poisson_support_max(MAX_TRIALS_EXACT), computed as
    cephes lgam(k + 1) does: the log of the exact product below 13, else its
    Stirling series in cephes' evaluation order with libm's log (math.log)."""
    x = np.arange(13.0, _poisson_support_max(MAX_TRIALS_EXACT) + 2.0)
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
    small = [math.log(math.factorial(k)) for k in range(12)]
    table = np.concatenate((small, (x - 0.5) * log_x - x + LS2PI + series / x))
    table.flags.writeable = False  # shared by every caller in the process
    return table


def _xlogy(k, y):
    """k ln y over an array k, with 0 ln y = 0 (so 0 ln 0 = 0)."""
    log_y = math.log(y) if y > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        return np.where(k == 0.0, 0.0, k * log_y)


def _binomial_logpmf_support(trials, p):
    """Log pmf over the full support k = 0..trials as a numpy array;
    impossible outcomes are -inf."""
    table = _log_factorials()
    k = np.arange(trials + 1, dtype=np.float64)
    comb = table[trials] - table[: trials + 1] - table[trials::-1]
    return comb + _xlogy(k, p) + _xlogy(trials - k, 1.0 - p)


def _entropy_from_pmf(pmf):
    mask = pmf > 0.0
    return float(-(pmf[mask] * np.log(pmf[mask])).sum())


def _mixture_curve(pmf0, pmf1):
    """mu -> H(mixture) - (1-mu) H(pmf0) - mu H(pmf1) over a shared support;
    the component entropies are computed once."""
    h0, h1 = _entropy_from_pmf(pmf0), _entropy_from_pmf(pmf1)

    def mi(mu):
        mix = (1.0 - mu) * pmf0 + mu * pmf1
        return _entropy_from_pmf(mix) - (1.0 - mu) * h0 - mu * h1

    return mi


def mi_binomial_curve(probs: BinaryDetectionProbs, trials):
    """mu -> I(X; N_hat) in nats for one channel: the two binomial pmfs are
    built once, and each mu costs one mixture entropy."""
    check_trials(trials)
    if trials > MAX_TRIALS_EXACT:
        raise ParameterError(
            f"trials = {trials} exceeds exact-summation cap {MAX_TRIALS_EXACT}"
        )
    trials = int(trials)
    mi = None
    if probs.p_off != probs.p_on:
        mi = _mixture_curve(
            np.exp(_binomial_logpmf_support(trials, probs.p_off)),
            np.exp(_binomial_logpmf_support(trials, probs.p_on)),
        )

    def curve(mu):
        check_unit(mu, "mu")
        if mu == 0.0 or mu == 1.0 or mi is None:
            return 0.0
        return mi(mu)

    return curve


def mi_binomial_mixture(mu, probs: BinaryDetectionProbs, trials):
    """I(X; N_hat) in nats for prior P(X=1) = mu, by full-support summation."""
    check_unit(mu, "mu")
    return mi_binomial_curve(probs, trials)(mu)


def mi_max_bruteforce(probs: BinaryDetectionProbs, trials):
    """(mu_dagger, I_max): numerically maximized mutual information over mu.

    The exact mutual information is concave in mu, so a moderate scan plus
    golden-section refinement is reliable.
    """
    if probs.p_off == probs.p_on:
        return 0.5, 0.0
    return optimize.maximize_scalar(mi_binomial_curve(probs, trials), coarse_points=65)


def _poisson_support_max(mean):
    """Last count kept for Poisson(mean): by Bernstein's bound the mass above
    it is at most exp(-63), far below POISSON_TAIL_MASS, for every mean."""
    return int(mean + 12.0 * math.sqrt(mean + 1.0) + 30.0)


def _poisson_pmf_support(mean, n_max):
    k = np.arange(n_max + 1, dtype=np.float64)
    # 0 ln 0 = 0 and k ln 0 = -inf for k > 0: mean 0 is a point mass at 0
    return np.exp(_xlogy(k, mean) - mean - _log_factorials()[: n_max + 1])


def mi_discrete_poisson(mu, mean_off, mean_on):
    """Binary-input mutual information with Poisson(mean) outputs, in nats.

    The perfect-receiver benchmark: summation stops where the tail mass of
    both laws is below POISSON_TAIL_MASS.  Means above MAX_TRIALS_EXACT are
    refused, like the trial counts of the binomial sum.
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
    n_max = _poisson_support_max(top)
    return _mixture_curve(
        _poisson_pmf_support(mean_off, n_max),
        _poisson_pmf_support(mean_on, n_max),
    )(mu)
