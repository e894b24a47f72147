"""Closed-form asymptotics of the achievable rate and of the bound gap.

Five regimes are covered, matching the gap-convergence table driving the
sweep experiments: many samples per symbol, large peak rate at fixed
background, low background at fixed peak rate, large peak rate with zero
background, and low peak rate (the large-L rate is the Bhattacharyya
distance, ``divergences.bhattacharyya_distance``).  Offsets and expansion
terms are evaluated exactly as displayed; empirical rates are extracted
with a log-linear least squares fit.
"""

import math

from .errors import ParameterError
from .guards import check_finite, check_open_unit, check_positive, check_unit


def _pow_log(base, exponent):
    """base ** exponent, evaluated as exp(exponent * ln base) in every b^k."""
    return math.exp(exponent * math.log(base))


def _gap_offsets(b, c, other, L):
    """(eps_u, eps_l) of both offset scenarios, with c = 1 - b: piecewise in
    c * L versus 1/2, and the sub-threshold branch is negative."""
    key = c * L
    if key >= 0.5:
        lead = L * _pow_log(b, 0.5 * (L - 1)) * math.sqrt(c)
        denom = 1.0 + _pow_log(b, 0.5 * L)
        if key > 0.5:
            common = lead * math.sqrt(other)
            eps_u = 2.0 * common
            eps_l = common / denom
        else:
            spike = _pow_log(b, -L + 0.5) / math.sqrt(c)
            eps_u = (2.0 * lead - spike) * math.sqrt(other)
            eps_l = (lead / denom - 0.5 * spike) * math.sqrt(other)
    else:
        if other == 0.0:
            mag = 0.0
        else:
            mag = math.exp(
                -L * b * math.log(b) - L * c * math.log(c) + L * c * math.log(other)
            )
        eps_u = -mag
        eps_l = -0.5 * mag
    return eps_u, eps_l


def gap_offsets_large_A(p0, p1, trials):
    """Offset terms (eps_u, eps_l) of the gap bounds for large peak rate.

    Piecewise in (1 - p0) * L versus 1/2; the sub-threshold branch is
    negative.  Lead terms carry the same factor L as the beta expansion.
    """
    check_open_unit(p0, "p0")
    check_unit(p1, "p1")
    return _gap_offsets(p0, 1.0 - p0, 1.0 - p1, trials)


def gap_offsets_low_background(p0, p1, trials):
    """Offset terms (eps_u', eps_l') of the gap bounds for low background.

    Piecewise in p1 * L versus 1/2; related to gap_offsets_large_A by the
    reciprocity p0 <-> 1-p1, p1 <-> 1-p0.
    """
    check_open_unit(p1, "p1")
    check_unit(p0, "p0")
    return _gap_offsets(1.0 - p1, p1, p0, trials)


def exp_rate_zero_background(trials, dead_time):
    """Gap decay rate in the peak rate when the background is zero: L tau / 2."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    check_finite(trials, "trials")
    check_positive(dead_time, "dead_time")
    return 0.5 * trials * dead_time


def gap_quadratic_coeff_low_A(p0, trials, dead_time):
    """Quadratic gap coefficient for low peak rate: 3 L (1-p0) tau^2 / (16 p0)."""
    if not 0.0 <= p0 < 1.0:
        raise ParameterError(f"p0 must be in [0, 1), got {p0}")
    if p0 == 0.0:
        return math.inf
    return 3.0 * trials * (1.0 - p0) * (dead_time * dead_time) / (16.0 * p0)


def estimate_exponential_rate(points):
    """OLS slope of ln(value) against x for points = [(x, value > 0), ...]."""
    pts = list(points)
    if len(pts) < 3:
        raise ParameterError("need at least three points for a rate estimate")
    logged = []
    for x, v in pts:
        if v <= 0.0:
            raise ParameterError(f"values must be positive, got {v} at x = {x}")
        check_finite(x, "x")
        check_finite(v, f"value at x = {x}")
        logged.append((x, math.log(v)))
    n = len(logged)
    mean_x = sum(x for x, _ in logged) / n
    mean_y = sum(y for _, y in logged) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in logged)
    if sxx == 0.0:
        raise ParameterError("all x values are identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in logged)
    return sxy / sxx
