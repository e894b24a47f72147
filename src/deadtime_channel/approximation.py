"""Medium-SNR expansion of the achievable rate for low background rates.

Valid when the expected number of background-only firings per symbol,
L*p0, is well below one.  ``mi_approx_low_background`` alone refuses
parameters outside that region instead of returning a silently wrong
number; ``mi_approx_max`` asks it once per optimum, at the first interior
scan point.  The expansion is most accurate at medium duty cycles: the
-ln(mu L p1) term diverges as mu -> 0, so only the exact corner values mu
in {0, 1} are pinned to 0, as is a channel without signal (p_off == p_on)
inside the validity region.
"""

import math

import numpy as np

from .channel import BinaryDetectionProbs
from .errors import ParameterError
from .guards import check_trials, check_unit
from .mutual_info import binary_entropy
from . import optimize


def mi_approx_low_background(mu, probs: BinaryDetectionProbs, trials):
    """Expansion of I(X; N_hat) in nats, dropping o(L p0) and O(1/L) terms;
    ParameterError at 0 < mu < 1 outside its region."""
    check_unit(mu, "mu")
    check_trials(trials)
    if mu == 0.0 or mu == 1.0:
        return 0.0
    p0, p1 = probs.p_off, probs.p_on
    if not 0.0 < p1 < 1.0:
        raise ParameterError(f"approximation needs 0 < p_on < 1, got {p1}")
    lp0 = trials * p0
    if lp0 >= 1.0:
        raise ParameterError(
            f"approximation outside validity region: trials * p_off = {lp0} >= 1"
        )
    if p0 == p1:
        return 0.0
    signal = mu * trials * p1
    if signal == 0.0:
        raise ParameterError(
            f"approximation needs mu * trials * p_on > 0, got {signal} (underflow)"
        )
    return _expansion(mu, probs, trials, math.log)


def mi_approx_max(probs: BinaryDetectionProbs, trials):
    """(mu, value): the expansion's maximum over duty cycles; (0.5, 0.0)
    without signal, as the other duty-cycle optima.  The public entry
    refuses the region once per optimum, at the first interior scan point:
    the signal underflows there first, so the scan is the bare expansion."""
    # the module-global name, so that a wrapper installed on it sees each refusal
    mi_approx_low_background(1.0 / (optimize.DEFAULT_COARSE_POINTS - 1), probs, trials)
    if probs.p_off == probs.p_on:
        return 0.5, 0.0
    return optimize.maximize_scalar(
        lambda mu: mi_approx_low_background(mu, probs, trials),
        scan=lambda mu: _expansion(mu, probs, trials, np.log),
    )


def _expansion(mu, probs, trials, log):
    """The expansion inside its region: mu a float with math.log, or an
    array with np.log."""
    p0, p1 = probs.p_off, probs.p_on
    lp0 = trials * p0
    signal = mu * trials * p1
    log_q1 = math.log1p(-p1)
    q1_pow = math.exp(trials * log_q1)  # (1 - p_on)^L
    zero_mass = mu * q1_pow + (1.0 - mu)

    value = -zero_mass * log(zero_mass)
    value += mu * trials * q1_pow * log_q1
    value -= mu * (1.0 - q1_pow) * log(mu)
    value += (1.0 - mu) * lp0 * (
        log(zero_mass) - log(signal) - (trials - 1) * log_q1
    )
    value -= (1.0 - mu) * binary_entropy(lp0)
    return value
