"""Capacity of the dead-time receiver and the continuous-channel reference.

With T_s = tau the optimal input is on-off between rates {0, A} and the
capacity is (1/tau) * max_mu F(mu) with

    F(mu) = h_b(p_hat) - (1-mu) h_b(p(L0)) - mu h_b(p(A+L0)),
    p_hat = (1-mu) p(L0) + mu p(A+L0),      p(x) = 1 - exp(-x tau),

maximized in closed form by

    mu* = (a/(1+a) - p(L0)) / (p(A+L0) - p(L0)),
    a   = exp(-(h_b(p(A+L0)) - h_b(p(L0))) / (p(A+L0) - p(L0))).

Slower sampling only attenuates: C = (tau/T_s) * C_tau.  The capacity
functions return (mu_star, capacity) pairs, as the optimizer does.  All
outputs are in nats; CSV emitters convert to bits where useful.

The entropy difference quotient is evaluated in a compensated form (log1p
of increments plus exact -q ln q = q x tau terms) so that mu* stays
accurate down to vanishing peak rates and out to peak rates where
p(A+L0) rounds to 1.
"""

import math
import sys

from .errors import NumericalFailure, ParameterError
from .guards import (
    check_finite,
    check_nonnegative,
    check_positive,
    check_rates,
    check_sampling,
    check_unit,
)
from . import optimize


def _neg_xlogx(x):
    return 0.0 if x <= 0.0 else -x * math.log(x)


def _levels(peak_rate, background_rate, dead_time):
    """(x0, x1, p0, q0, p1, q1, d) with x = rate * tau, p = 1 - exp(-x),
    q = exp(-x) at the two levels, and d = p1 - p0 = q0 (1 - exp(-A tau))."""
    x0 = background_rate * dead_time
    x1 = (peak_rate + background_rate) * dead_time
    q0 = math.exp(-x0)
    d = q0 * (-math.expm1(-peak_rate * dead_time))
    return x0, x1, -math.expm1(-x0), q0, -math.expm1(-x1), math.exp(-x1), d


def _entropy_quotient(levels, peak_rate, dead_time):
    """(h_b(p1) - h_b(p0)) / (p1 - p0) without cancellation, for the
    ``_levels`` of the channel and d > 0.

    Uses the exact identities -q ln q = q x tau for q = exp(-x tau) and
    p1 - p0 = q0 * (1 - exp(-A tau)).
    """
    x0, x1, p0, _, p1, q1, d = levels
    if p0 == 0.0:
        dh = _neg_xlogx(p1) + q1 * x1
    else:
        dh = (
            -p0 * math.log1p(d / p0)
            - d * math.log(p1)
            + q1 * peak_rate * dead_time
            - x0 * d
        )
    return dh / d


def optimal_duty_cycle(peak_rate, background_rate, dead_time):
    """Closed-form (mu_star, a) maximizing F; requires peak_rate > 0.

    With background, once d = p1 - p0 < 4e-5 p0 q0 the numerator a q0 - p0
    cancels, so mu_star comes from its expansion in d instead,
    1/2 - (q0 - p0) d / (24 p0 q0), whose next term is O(d^2).  The switch
    sits where the two errors cross (about 3e-15 p0 q0 / d for the closed
    form, 2e-2 (d / (p0 q0))^2 for the expansion).  When both levels
    saturate (q0 = 0) any duty cycle is optimal: (1/2, inf), as in
    ``capacity_tau``.
    """
    check_rates(peak_rate, background_rate, dead_time)
    if peak_rate == 0:
        raise ParameterError("optimal_duty_cycle is degenerate at peak_rate = 0")
    levels = _levels(peak_rate, background_rate, dead_time)
    _, _, p0, q0, _, _, d = levels
    if q0 == 0.0:
        return 0.5, math.inf
    a = math.exp(-_entropy_quotient(levels, peak_rate, dead_time))
    if p0 > 0.0 and d < 4e-5 * p0 * q0:
        return 0.5 - (q0 - p0) * d / (24.0 * p0 * q0), a
    return (a * q0 - p0) / ((1.0 + a) * d), a


def _entropy_increment(p_a, q_a, p_b, q_b, delta):
    """h_b(p_b) - h_b(p_a) with delta = p_b - p_a, accurate in the increment.

    Splits -p ln p and -q ln q into log1p terms of size O(delta); the Jensen
    gap F(mu) assembled from these stays relative-accurate even where the
    plain entropy difference would cancel to the noise floor.
    """
    if delta == 0.0:
        return 0.0
    if min(p_a, q_a, p_b, q_b) == 0.0:
        # An endpoint of the simplex is involved; at least one side has a
        # vanishing h_b term, so the plain difference does not cancel.
        return (_neg_xlogx(p_b) + _neg_xlogx(q_b)) - (
            _neg_xlogx(p_a) + _neg_xlogx(q_a)
        )
    rp = delta / p_a
    lp = math.log1p(rp) if abs(rp) < 0.5 else math.log(p_b) - math.log(p_a)
    rq = -delta / q_a
    lq = math.log1p(rq) if abs(rq) < 0.5 else math.log(q_b) - math.log(q_a)
    return -p_a * lp - delta * math.log(p_b) - q_a * lq + delta * math.log(q_b)


def rate_objective(mu, peak_rate, background_rate, dead_time):
    """F(mu) in nats: the per-sample information of the binary-level input.

    Evaluated as (1-mu)[h(p_hat)-h(p0)] + mu[h(p_hat)-h(p1)] so the value
    keeps full relative precision when the two levels nearly coincide.
    """
    check_unit(mu, "mu")
    _, _, p0, q0, p1, q1, d = _levels(peak_rate, background_rate, dead_time)
    p_hat = p0 + mu * d
    q_hat = (1.0 - mu) * q0 + mu * q1
    return (1.0 - mu) * _entropy_increment(p0, q0, p_hat, q_hat, mu * d) + (
        mu * _entropy_increment(p1, q1, p_hat, q_hat, -(1.0 - mu) * d)
    )


def capacity_tau(peak_rate, background_rate, dead_time):
    """(mu_star, capacity) at critical sampling T_s = tau, via the closed form."""
    check_rates(peak_rate, background_rate, dead_time)
    _, _, _, q0, _, _, d = _levels(peak_rate, background_rate, dead_time)
    if peak_rate == 0 or q0 == 0.0:
        # No signal, or both levels saturate (p0 = p1 = 1): any duty cycle
        # is optimal; fix mu = 1/2.
        return 0.5, 0.0
    if d < sys.float_info.min:
        # A tau (or q0 times 1 - exp(-A tau)) is subnormal or underflows:
        # d keeps too few bits for F / tau, and a ~ 1/q0 overflows.
        raise NumericalFailure(
            f"capacity at A = {peak_rate}, tau = {dead_time} cannot be resolved "
            f"in double precision: p1 - p0 = {d} is below the normal range"
        )
    mu_star, _ = optimal_duty_cycle(peak_rate, background_rate, dead_time)
    f = rate_objective(mu_star, peak_rate, background_rate, dead_time)
    return mu_star, f / dead_time


def capacity_sampled(peak_rate, background_rate, dead_time, sampling_interval):
    """(mu_star, capacity) for T_s >= tau: the capacity scales by tau/T_s."""
    check_sampling(sampling_interval, dead_time)
    mu_star, cap = capacity_tau(peak_rate, background_rate, dead_time)
    return mu_star, cap * (dead_time / sampling_interval)


def capacity_bruteforce(peak_rate, background_rate, dead_time):
    """Oracle (mu, capacity): maximizes F(mu), which is strictly concave."""
    check_rates(peak_rate, background_rate, dead_time)
    if peak_rate == 0:
        return capacity_tau(peak_rate, background_rate, dead_time)
    mu_dag, f_dag = optimize.maximize_scalar(
        lambda mu: rate_objective(mu, peak_rate, background_rate, dead_time),
        tol=1e-12,
    )
    return mu_dag, f_dag / dead_time


def wyner_poisson_capacity(peak_rate, background_rate):
    """Continuous peak-constrained Poisson capacity and its optimal on-probability.

    Returns (q_star, capacity) with, for s = background/peak,

        q_star = (1+s)^(1+s) / (s^s e) - s
        C      = L0 * [-ln(1 + q*/s) + q* ln(1 + 1/s)
                       + (q*/s) ln(1 + (1-q*)/(q*+s))]

    (the bracketed form keeps full precision at low SNR); background 0, or
    a ratio s too small for 1/s to be finite, gives q* = 1/e, C = A / e, and
    a ratio s beyond the double range the low-SNR limit q* = 1/2,
    C = A^2 / (8 L0).
    """
    check_positive(peak_rate, "peak_rate")
    check_nonnegative(background_rate, "background_rate")
    s = background_rate / peak_rate
    if s == 0.0 or math.isinf(1.0 / s):
        # zero background, or a ratio below the double range
        return 1.0 / math.e, peak_rate / math.e
    if math.isinf(s):
        # the low-SNR limit
        return 0.5, peak_rate * (peak_rate / background_rate) / 8.0
    q_star = (1.0 + s) * math.exp(s * math.log1p(1.0 / s) - 1.0) - s
    cap = background_rate * (
        -math.log1p(q_star / s)
        + q_star * math.log1p(1.0 / s)
        + (q_star / s) * math.log1p((1.0 - q_star) / (q_star + s))
    )
    return q_star, cap


def _scaled_off_entropy(background_rate, dead_time):
    """v = exp(L0 tau) * h_b(p(L0)), stable for any L0 tau (v -> 1 + L0 tau)."""
    x = background_rate * dead_time
    eps = math.exp(-x)
    if eps == 1.0:
        return 0.0
    if eps == 0.0:
        return x + 1.0
    return x + (1.0 - eps) * (-math.log1p(-eps)) / eps


def asymptotic_capacity_coeff_large_A(background_rate, dead_time):
    """Saturation coefficient c of the large-peak-rate capacity c / tau, in nats.

    Algebraically c = h_b(u/(1+u)) - ln(u)/(1+u) with
    u = exp(exp(L0 tau) h_b(p(L0))), which collapses to ln(1 + 1/u); the
    collapsed form is exact at background 0 (ln 2) and immune to the
    h_b(1 - tiny) cancellation at strong background.
    """
    check_nonnegative(background_rate, "background_rate")
    check_positive(dead_time, "dead_time")
    v = _scaled_off_entropy(background_rate, dead_time)
    return math.log1p(math.exp(-v))


def quadratic_coeffs_low_A(background_rate, dead_time):
    """Low-peak-rate quadratic capacity coefficients (d_poi, d_tau).

    d_poi = 1/(8 L0) for the continuous channel, d_tau = tau (1-p0)/(8 p0)
    for the dead-time receiver; d_tau < d_poi with ratio -> 1 as tau -> 0.
    """
    if background_rate <= 0:
        raise ParameterError(
            "quadratic coefficients need background_rate > 0 "
            f"(got {background_rate}); the zero-background regime is linear"
        )
    check_finite(background_rate, "background_rate")
    check_positive(dead_time, "dead_time")
    d_poi = 1.0 / (8.0 * background_rate)
    p0 = -math.expm1(-background_rate * dead_time)
    if p0 == 0.0:
        # background * tau underflows: the tau -> 0 limit
        return d_poi, d_poi
    q0 = math.exp(-background_rate * dead_time)
    return d_poi, dead_time * q0 / (8.0 * p0)


def duty_cycle_limits(background_rate, dead_time):
    """The four extreme-peak-rate duty cycle limits.

    Zero-background column: 1/e as the peak rate vanishes, 1/2 as it
    diverges.  With background: 1/2 as it vanishes, and

        1 - 1/[(1 + exp(exp(L0 tau) h_b(p(L0)))) (1 - p(L0))]

    as it diverges (evaluated at the given background and dead time).
    """
    check_nonnegative(background_rate, "background_rate")
    check_positive(dead_time, "dead_time")
    v = _scaled_off_entropy(background_rate, dead_time)
    x = background_rate * dead_time
    # 1/((1+e^v) q0) = exp(x - ln(1+e^v)); softplus keeps huge v finite
    softplus = v + math.log1p(math.exp(-v)) if v > 0 else math.log1p(math.exp(v))
    high_with_bg = 1.0 - math.exp(x - softplus)
    return {
        "low_peak_zero_background": 1.0 / math.e,
        "high_peak_zero_background": 0.5,
        "low_peak_with_background": 0.5,
        "high_peak_with_background": high_with_bg,
    }
