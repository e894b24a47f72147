"""Exact mutual information of the binary-input channels.

The imperfect receiver reduces, per symbol, to binary input with
Bin(L, p0) / Bin(L, p1) outputs; the perfect-counting benchmark has
Poisson outputs.  Both mutual informations are computed by direct
summation of the mixture in the log domain, so they serve as the ground
truth against which every bound and approximation is measured.
"""

import math

import numpy as np
from scipy.special import gammaln, xlogy

from .channel import BinaryDetectionProbs
from .errors import ParameterError
from .guards import check_unit
from . import optimize

# Full-support summation beyond this trial count (or Poisson mean) is
# wasteful.
MAX_TRIALS_EXACT = 100_000

POISSON_TAIL_MASS = 1e-14


def binary_entropy(x):
    """h_b(x) = -x ln x - (1-x) ln(1-x) in nats, with 0 ln 0 = 0."""
    check_unit(x, "binary_entropy argument")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


def _binomial_logpmf_support(trials, p):
    """Log pmf over the full support k = 0..trials as a numpy array."""
    k = np.arange(trials + 1, dtype=np.float64)
    comb = gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = comb + xlogy(k, p) + xlogy(trials - k, 1.0 - p)
    # xlogy(0, 0) = 0 already; impossible outcomes are -inf
    return lp


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
    if trials > MAX_TRIALS_EXACT:
        raise ParameterError(
            f"trials = {trials} exceeds exact-summation cap {MAX_TRIALS_EXACT}"
        )
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
    return optimize.maximize_scalar(
        mi_binomial_curve(probs, trials),
        0.0,
        1.0,
        coarse_points=65,
    )


def _poisson_support_max(mean):
    """Last count kept for Poisson(mean): by Bernstein's bound the mass above
    it is at most exp(-63), far below POISSON_TAIL_MASS, for every mean."""
    return int(mean + 12.0 * math.sqrt(mean + 1.0) + 30.0)


def _poisson_pmf_support(mean, n_max):
    k = np.arange(n_max + 1, dtype=np.float64)
    # xlogy(0, 0) = 0 and xlogy(k > 0, 0) = -inf: mean 0 is a point mass at 0
    return np.exp(xlogy(k, mean) - mean - gammaln(k + 1.0))


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
    if mu == 0.0 or mu == 1.0 or mean_off == mean_on:
        return 0.0
    n_max = _poisson_support_max(top)
    return _mixture_curve(
        _poisson_pmf_support(mean_off, n_max),
        _poisson_pmf_support(mean_on, n_max),
    )(mu)
