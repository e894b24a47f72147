"""Channel parameters and the rate -> per-sample detection probability map.

The receiver holds each detected photon for a dead time tau, and the ADC
samples every T_s >= tau.  A sample is 1 exactly when at least one photon
arrived in the trailing dead-time window, so a window at total arrival
rate x fires with probability 1 - exp(-x * tau).  All rates and times are
raw dimensionful reals; the normalized setting used throughout the sweep
presets fixes the symbol duration to 1 (tau and the background rate are
then fractions of a symbol).
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .guards import check_nonnegative, check_positive, check_rates, check_trials


@dataclass(frozen=True)
class ChannelParams:
    """Physical description of the dead-time photon-counting channel.

    peak_rate          photons per unit time while the "on" symbol is sent
    background_rate    dark-current photon rate, always present
    dead_time          pulse-merge window of the detector
    samples_per_symbol samples falling inside one OOK symbol
    """

    peak_rate: float
    background_rate: float
    dead_time: float
    samples_per_symbol: int

    def __post_init__(self):
        check_rates(self.peak_rate, self.background_rate, self.dead_time)
        check_trials(self.samples_per_symbol, "samples_per_symbol")


@dataclass(frozen=True)
class BinaryDetectionProbs:
    """Per-sample firing probabilities under the two OOK symbols."""

    p_off: float
    p_on: float

    def __post_init__(self):
        if not 0.0 <= self.p_off <= self.p_on <= 1.0:
            raise ParameterError(
                f"need 0 <= p_off <= p_on <= 1, got ({self.p_off}, {self.p_on})"
            )


def detection_prob(rate, dead_time):
    """P(at least one arrival in a dead-time window) = 1 - exp(-rate*dead_time).

    Uses expm1 so small products keep full relative precision.
    """
    check_nonnegative(rate, "rate")
    check_positive(dead_time, "dead_time")
    return -math.expm1(-rate * dead_time)


def detection_probs(peak_rate, background_rate, dead_time) -> BinaryDetectionProbs:
    """Detection probabilities (p_off, p_on) for OOK symbols 0 and 1."""
    # checked before the sum, so that a bad rate is named as the user set it
    check_rates(peak_rate, background_rate, dead_time)
    return BinaryDetectionProbs(
        p_off=detection_prob(background_rate, dead_time),
        p_on=detection_prob(peak_rate + background_rate, dead_time),
    )


def symbol_probs(params: ChannelParams) -> BinaryDetectionProbs:
    """detection_probs of a ChannelParams."""
    return detection_probs(params.peak_rate, params.background_rate, params.dead_time)
