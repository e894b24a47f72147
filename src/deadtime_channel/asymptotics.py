"""Closed-form asymptotics of the achievable rate and of the bound gap.

Five regimes are covered, matching the gap-convergence table driving the
sweep experiments: many samples per symbol, large peak rate at fixed
background, low background at fixed peak rate, large peak rate with zero
background, and low peak rate.  Offsets and expansion terms are evaluated
exactly as displayed; empirical rates are extracted with a log-linear
least squares fit.
"""

import math

from .errors import ParameterError
from .guards import check_open_unit, check_positive
from .optimize import least_squares_slope


def exp_rate_large_L(p0, p1):
    """Exponential decay rate of the gap in L: -ln(sqrt(p0 p1) + sqrt(q0 q1))."""
    if p0 == p1:
        return 0.0
    root = math.sqrt(p0 * p1) + math.sqrt((1.0 - p0) * (1.0 - p1))
    if root == 0.0:
        return math.inf
    return -math.log(root)


def gap_offsets_large_A(p0, p1, trials):
    """Offset terms (eps_u, eps_l) of the gap bounds for large peak rate.

    Piecewise in (1 - p0) * L versus 1/2; the sub-threshold branch is
    negative.  Lead terms carry the same factor L as the beta expansion.
    """
    check_open_unit(p0, "p0")
    L = trials
    q0 = 1.0 - p0
    q1 = 1.0 - p1
    key = q0 * L
    if key > 0.5:
        common = L * math.exp(0.5 * (L - 1) * math.log(p0)) * math.sqrt(q0) * math.sqrt(q1)
        eps_u = 2.0 * common
        eps_l = common / (1.0 + math.exp(0.5 * L * math.log(p0)))
    elif key == 0.5:
        lead = L * math.exp(0.5 * (L - 1) * math.log(p0)) * math.sqrt(q0)
        spike = math.exp((-L + 0.5) * math.log(p0)) / math.sqrt(q0)
        eps_u = (2.0 * lead - spike) * math.sqrt(q1)
        eps_l = (
            lead / (1.0 + math.exp(0.5 * L * math.log(p0))) - 0.5 * spike
        ) * math.sqrt(q1)
    else:
        if q1 == 0.0:
            mag = 0.0
        else:
            mag = math.exp(
                -L * p0 * math.log(p0) - L * q0 * math.log(q0) + L * q0 * math.log(q1)
            )
        eps_u = -mag
        eps_l = -0.5 * mag
    return eps_u, eps_l


def gap_offsets_low_background(p0, p1, trials):
    """Offset terms (eps_u', eps_l') of the gap bounds for low background.

    Piecewise in p1 * L versus 1/2; related to gap_offsets_large_A by the
    reciprocity p0 <-> 1-p1, p1 <-> 1-p0, but evaluated from its own
    formulas so the reciprocity stays testable.
    """
    check_open_unit(p1, "p1")
    L = trials
    q1 = 1.0 - p1
    key = p1 * L
    if key > 0.5:
        common = L * math.exp(0.5 * (L - 1) * math.log(q1)) * math.sqrt(p1) * math.sqrt(p0)
        eps_u = 2.0 * common
        eps_l = common / (1.0 + math.exp(0.5 * L * math.log(q1)))
    elif key == 0.5:
        lead = L * math.exp(0.5 * (L - 1) * math.log(q1)) * math.sqrt(p1)
        spike = math.exp((-L + 0.5) * math.log(q1)) / math.sqrt(p1)
        eps_u = (2.0 * lead - spike) * math.sqrt(p0)
        eps_l = (
            lead / (1.0 + math.exp(0.5 * L * math.log(q1))) - 0.5 * spike
        ) * math.sqrt(p0)
    else:
        if p0 == 0.0:
            mag = 0.0
        else:
            mag = math.exp(
                -L * q1 * math.log(q1) - L * p1 * math.log(p1) + L * p1 * math.log(p0)
            )
        eps_u = -mag
        eps_l = -0.5 * mag
    return eps_u, eps_l


def exp_rate_zero_background(trials, dead_time):
    """Gap decay rate in the peak rate when the background is zero: L tau / 2."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    check_positive(dead_time, "dead_time")
    return 0.5 * trials * dead_time


def gap_quadratic_coeff_low_A(p0, trials, dead_time):
    """Quadratic gap coefficient for low peak rate: 3 L (1-p0) tau^2 / (16 p0)."""
    if not 0.0 <= p0 < 1.0:
        raise ParameterError(f"p0 must be in [0, 1), got {p0}")
    if p0 == 0.0:
        return math.inf
    return 3.0 * trials * (1.0 - p0) * dead_time**2 / (16.0 * p0)


def estimate_exponential_rate(points):
    """OLS slope of ln(value) against x for points = [(x, value > 0), ...]."""
    pts = list(points)
    if len(pts) < 3:
        raise ParameterError("need at least three points for a rate estimate")
    logged = []
    for x, v in pts:
        if v <= 0.0:
            raise ParameterError(f"values must be positive, got {v} at x = {x}")
        logged.append((x, math.log(v)))
    return least_squares_slope(logged)
