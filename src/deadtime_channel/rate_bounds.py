"""Divergence-based envelopes on the mutual information and their gap.

For duty cycle mu the achievable rate is sandwiched between

    F_l(mu, beta)         = -{mu ln[(1-mu)beta  + mu] + (1-mu) ln[mu beta  + (1-mu)]}
    F_u(mu, beta1, beta2) = -{mu ln[(1-mu)beta1 + mu] + (1-mu) ln[mu beta2 + (1-mu)]}

and the bound gap Delta is the largest pointwise excess of the upper
envelope over the lower one across duty cycles.  The pointwise difference
is evaluated through log1p so it stays relative-accurate even when it is
many orders of magnitude below the envelopes themselves (deep high-SNR
sweeps drive it under 1e-100).

The tuned lower envelope, F_u at the Chernoff pair of the best divergence
order alpha, is a per-channel curve: ``tuned_lower_curve(probs, trials)``
checks the channel and computes the pairs of its alpha scan once, when it
is built, and returns mu -> value.
"""

import math

import numpy as np

from .channel import BinaryDetectionProbs
from .divergences import BetaTriple, _chernoff
from .guards import check_trials, check_unit
from . import optimize


def upper_envelope(mu, beta1, beta2):
    """F_u(mu, beta1, beta2), 0 at mu in {0, 1}; F_l(mu, b) is F_u(mu, b, b)."""
    check_unit(mu, "mu")
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if mu == 0.0 or mu == 1.0:
        return 0.0
    return _upper_envelope(mu, beta1, beta2, math.log)


def _upper_envelope(mu, beta1, beta2, log):
    """F_u at 0 < mu < 1: a float with math.log, or an array with np.log."""
    # 0.0 - x, not -x: where the envelope is 0 it prints 0, not -0
    return 0.0 - (
        mu * log((1.0 - mu) * beta1 + mu) + (1.0 - mu) * log(mu * beta2 + (1.0 - mu))
    )


def _envelope_difference(mu, triple, log1p):
    """F_u - F_l at 0 < mu < 1, accurate in the difference: a float with
    math.log1p, or an array with np.log1p.

    Requires beta >= max(beta1, beta2), which every channel-derived triple
    satisfies; the two log ratios are then nonnegative and evaluated as
    log1p of small increments.
    """
    beta, beta1, beta2 = triple.beta, triple.beta1, triple.beta2
    d1 = (1.0 - mu) * (beta - beta1) / ((1.0 - mu) * beta1 + mu)
    d2 = mu * (beta - beta2) / (mu * beta2 + (1.0 - mu))
    return mu * log1p(d1) + (1.0 - mu) * log1p(d2)


def lower_bound_max(beta):
    """max over mu of F_l: attained at mu = 1/2 with value ln(2/(1+beta))."""
    check_unit(beta, "beta")
    return math.log(2.0) - math.log1p(beta)


def upper_bound_max(beta1, beta2):
    """Closed-form upper bound on max over mu of F_u.

    |b1-b2|(1 - min(b1,b2))/(1 - b1 b2) - ln((1 - b1 b2)/(2 - b1 - b2)),
    tight exactly when beta1 = beta2; its limit 0 at beta1 = beta2 = 1.
    """
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if beta1 == 1.0 and beta2 == 1.0:
        return 0.0
    return abs(beta1 - beta2) * (1.0 - min(beta1, beta2)) / (
        1.0 - beta1 * beta2
    ) - math.log((1.0 - beta1 * beta2) / (2.0 - beta1 - beta2))


def optimal_prior_upper(beta1, beta2):
    """(mu*, max F_u): the numerically maximizing duty cycle of F_u and its
    value; (0.5, 0.0) without signal, at beta1 = beta2 = 1."""
    check_unit(beta1, "beta1")
    check_unit(beta2, "beta2")
    if beta1 == 1.0 and beta2 == 1.0:
        return 0.5, 0.0

    def objective(mu):
        # upper_envelope without its checks: the optimizer keeps 0 <= mu <= 1
        if mu == 0.0 or mu == 1.0:
            return 0.0
        return _upper_envelope(mu, beta1, beta2, math.log)

    return optimize.maximize_scalar(
        objective, scan=lambda mu: _upper_envelope(mu, beta1, beta2, np.log)
    )


def tuned_lower_curve(probs: BinaryDetectionProbs, trials):
    """mu -> the lower envelope with the divergence order optimized per mu:
    max over alpha of F_u(mu, e^-C_alpha(P1||P0), e^-C_alpha(P0||P1)),
    which at alpha = 1/2 is F_l(mu, beta).

    Each mu maximizes over alpha from a 65-point scan refined to 1e-9.
    The divergence pairs at the 63 interior scan orders i/64 depend only on
    the channel, so building the curve computes them all into one array
    (none without signal), and a pair that raises refuses the channel
    there; each mu scans that array in one numpy call.  The endpoints and
    the refinement evaluate their pairs afresh through ``math``.
    """
    p0, p1 = probs.p_off, probs.p_on
    check_unit(p0, "p_off")
    check_unit(p1, "p_on")
    check_trials(trials)
    points = 65
    last = points - 1

    def betas(alpha):
        # 0 <= alpha <= 1, and _chernoff refuses C < 0: both betas in [0, 1]
        return math.exp(-_chernoff(alpha, p1, p0, trials)), math.exp(
            -_chernoff(alpha, p0, p1, trials)
        )

    # row i - 1 holds the pair at the interior scan order i/64
    pairs = None if p0 == p1 else np.array([betas(i / last) for i in range(1, last)])

    def curve(mu):
        check_unit(mu, "mu")
        if mu == 0.0 or mu == 1.0 or p0 == p1:
            return 0.0

        def objective(alpha):
            return _upper_envelope(mu, *betas(alpha), math.log)

        _, value = optimize.maximize_scalar(
            objective, tol=1e-9, coarse_points=points,
            scan=lambda alphas: _upper_envelope(mu, pairs[:, 0], pairs[:, 1], np.log),
        )
        return value

    return curve


def bound_gap(triple: BetaTriple):
    """Delta = max over mu of the pointwise difference F_u - F_l."""

    def objective(mu):
        if mu == 0.0 or mu == 1.0:
            return 0.0
        return _envelope_difference(mu, triple, math.log1p)

    _, gap = optimize.maximize_scalar(
        objective, scan=lambda mu: _envelope_difference(mu, triple, np.log1p)
    )
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

