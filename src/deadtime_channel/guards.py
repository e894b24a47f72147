"""Argument guards shared by every public entry point.

Each raises ParameterError naming the argument.  Rates and times must also
be finite: NaN passes a sign test, and an infinite rate would silently
saturate a detection probability.
"""

import math

from .errors import ParameterError


def check_unit(x, name):
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {x}")


def check_open_unit(x, name):
    if not 0.0 < x < 1.0:
        raise ParameterError(f"{name} must be in (0, 1), got {x}")


def check_finite(x, name):
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x}")


def check_nonnegative(x, name):
    if x < 0:
        raise ParameterError(f"{name} must be >= 0, got {x}")
    check_finite(x, name)


def check_positive(x, name):
    if x <= 0:
        raise ParameterError(f"{name} must be > 0, got {x}")
    check_finite(x, name)


def check_trials(n, name="trials"):
    """A positive integer count; integer-valued floats are accepted."""
    if not (math.isfinite(n) and n >= 1 and int(n) == n):
        raise ParameterError(f"{name} must be a positive integer, got {n}")


def check_sampling(sampling_interval, dead_time):
    if sampling_interval < dead_time:
        raise ParameterError(
            "sampling_interval must be >= dead_time "
            f"(got {sampling_interval} < {dead_time})"
        )
    check_finite(sampling_interval, "sampling_interval")


def check_rates(peak_rate, background_rate, dead_time):
    check_nonnegative(peak_rate, "peak_rate")
    check_nonnegative(background_rate, "background_rate")
    check_positive(dead_time, "dead_time")
