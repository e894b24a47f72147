"""Divergence-based envelopes on the mutual information and their gap.

For duty cycle mu the achievable rate is sandwiched between

    F_l(mu, beta)         = -{mu ln[(1-mu)beta  + mu] + (1-mu) ln[mu beta  + (1-mu)]}
    F_u(mu, beta1, beta2) = -{mu ln[(1-mu)beta1 + mu] + (1-mu) ln[mu beta2 + (1-mu)]}

and the bound gap Delta is the largest pointwise excess of the upper
envelope over the lower one across duty cycles.  The pointwise difference
is evaluated through log1p so it stays relative-accurate even when it is
many orders of magnitude below the envelopes themselves (deep high-SNR
sweeps drive it under 1e-100).
"""

import math

from .divergences import BetaTriple
from .errors import ParameterError
from .guards import check_unit
from . import optimize


def upper_envelope(mu, beta1, beta2):
    """F_u(mu, beta1, beta2), 0 at mu in {0, 1}; F_l(mu, b) is F_u(mu, b, b)."""
    check_unit(mu, "mu")
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if mu == 0.0 or mu == 1.0:
        return 0.0
    # 0.0 - x, not -x: where the envelope is 0 it prints 0, not -0
    return 0.0 - (
        mu * math.log((1.0 - mu) * beta1 + mu)
        + (1.0 - mu) * math.log(mu * beta2 + (1.0 - mu))
    )


def envelope_difference(mu, triple: BetaTriple):
    """F_u - F_l at one duty cycle, accurate in the difference.

    Requires beta >= max(beta1, beta2), which every channel-derived triple
    satisfies; the two log ratios are then nonnegative and evaluated as
    log1p of small increments.
    """
    check_unit(mu, "mu")
    beta, beta1, beta2 = triple.beta, triple.beta1, triple.beta2
    if mu == 0.0 or mu == 1.0:
        return 0.0
    d1 = (1.0 - mu) * (beta - beta1) / ((1.0 - mu) * beta1 + mu)
    d2 = mu * (beta - beta2) / (mu * beta2 + (1.0 - mu))
    return mu * math.log1p(d1) + (1.0 - mu) * math.log1p(d2)


def lower_bound_max(beta):
    """max over mu of F_l: attained at mu = 1/2 with value ln(2/(1+beta))."""
    check_unit(beta, "beta")
    return math.log(2.0) - math.log1p(beta)


def upper_bound_max(beta1, beta2):
    """Closed-form upper bound on max over mu of F_u.

    |b1-b2|(1 - min(b1,b2))/(1 - b1 b2) - ln((1 - b1 b2)/(2 - b1 - b2)),
    tight exactly when beta1 = beta2.
    """
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if beta1 == 1.0 and beta2 == 1.0:
        raise ParameterError("upper_bound_max is degenerate at beta1 = beta2 = 1")
    return abs(beta1 - beta2) * (1.0 - min(beta1, beta2)) / (
        1.0 - beta1 * beta2
    ) - math.log((1.0 - beta1 * beta2) / (2.0 - beta1 - beta2))


def optimal_prior_upper(beta1, beta2):
    """Numerically maximizing duty cycle mu*(beta1, beta2) of F_u."""
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if beta1 >= 1.0 or beta2 >= 1.0:
        raise ParameterError("optimal_prior_upper needs beta1, beta2 in [0, 1)")
    mu_star, _ = optimize.maximize_scalar(lambda mu: upper_envelope(mu, beta1, beta2))
    return mu_star


def bound_gap(triple: BetaTriple):
    """Delta = max over mu of the pointwise difference F_u - F_l."""
    _, gap = optimize.maximize_scalar(lambda mu: envelope_difference(mu, triple))
    return gap


def gap_bounds(triple: BetaTriple):
    """The three closed-form bounds on Delta.

    Returns (low_snr_upper, high_snr_upper, general_lower):

      low SNR :  (1/108)(b/b1 - 1)(16 b/b1 + 11) + same in b2  (+inf if b1 b2 = 0)
      high SNR:  (b - b1) + (b - b2)
      lower   :  (1/2) ln((1+b)/(1+b1)) + (1/2) ln((1+b)/(1+b2))
    """
    beta, beta1, beta2 = triple.beta, triple.beta1, triple.beta2
    if beta1 == 0.0 or beta2 == 0.0:
        low_snr = math.inf
    else:
        r1, r2 = beta / beta1, beta / beta2
        low_snr = ((r1 - 1.0) * (16.0 * r1 + 11.0) + (r2 - 1.0) * (16.0 * r2 + 11.0)) / 108.0
    high_snr = (beta - beta1) + (beta - beta2)
    general_lower = 0.5 * (math.log1p(beta) - math.log1p(beta1)) + 0.5 * (
        math.log1p(beta) - math.log1p(beta2)
    )
    return low_snr, high_snr, general_lower

