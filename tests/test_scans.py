"""The numpy scans pick the same bracket as the per-point scans.

Each objective with an array form is maximized twice on random channels,
once with its scan and once point by point, and the two results must be
equal bit for bit (or the same refusal).  The channels span A tau from
1e-4 to 1e3, a background tau of 0 in about a fifth of the draws and
otherwise 1e-6 to 1e2, and L from 1 to 1,000, so they reach the
approximation's refusals, zero background and saturated levels.

The scans here have 33 points and the refinement a tolerance of 1e-2, so
that the five tests take about 3 s; the per-point and the numpy scan
share everything after the winner, so a coarse tolerance hides nothing.
At the library's own sizes (1,024 points, 65 for the exact MI, and the
default tolerance) the same draws agree as well, in about 25 s.
"""

import numpy as np
import pytest

from deadtime_channel import NumericalFailure, ParameterError
from deadtime_channel.approximation import mi_approx_low_background, mi_approx_scan
from deadtime_channel.capacity import (
    _entropy_increments,
    _levels,
    _rate,
    rate_objective,
)
from deadtime_channel.channel import detection_probs
from deadtime_channel.divergences import beta_triple
from deadtime_channel.mutual_info import _binomial_curve
from deadtime_channel.optimize import maximize_scalar
from deadtime_channel.rate_bounds import (
    _envelope_difference,
    _upper_envelope,
    envelope_difference,
    upper_envelope,
)

CHANNELS = 2000
COARSE_POINTS = 33
TOL = 1e-2


def _channels(seed):
    """(peak_rate, background, dead_time, trials) draws."""
    rng = np.random.default_rng(seed)
    for _ in range(CHANNELS):
        tau = 10.0 ** rng.uniform(-3.0, -0.5)
        peak = 10.0 ** rng.uniform(-4.0, 3.0) / tau
        background = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 2.0) / tau
        trials = int(10.0 ** rng.uniform(0.0, 3.0))
        yield peak, background, tau, trials


def _outcome(f, **kwargs):
    try:
        x, fx = maximize_scalar(f, **kwargs)
    except (ParameterError, NumericalFailure) as exc:
        return type(exc).__name__, str(exc)
    return "ok", x.hex(), float(fx).hex()


def _scan_outcomes(objectives):
    """Assert that each (f, scan) pair of ``objectives`` gives the same
    result with and without its scan; returns the kinds of result seen."""
    differing, outcomes = [], set()
    for i, (f, scan) in enumerate(objectives):
        per_point = _outcome(f, coarse_points=COARSE_POINTS, tol=TOL)
        scanned = _outcome(f, coarse_points=COARSE_POINTS, tol=TOL, scan=scan)
        outcomes.add(per_point[0])
        if scanned != per_point:
            differing.append((i, per_point, scanned))
    assert differing == []
    return outcomes


def _gap_objectives(seed):
    for peak, background, tau, trials in _channels(seed):
        triple = beta_triple(detection_probs(peak, background, tau), trials)
        yield (
            lambda mu, t=triple: envelope_difference(mu, t),
            lambda mu, t=triple: _envelope_difference(mu, t, np.log1p),
        )


def _upper_objectives(seed):
    for peak, background, tau, trials in _channels(seed):
        triple = beta_triple(detection_probs(peak, background, tau), trials)
        b1, b2 = triple.beta1, triple.beta2
        if b1 < 1.0 and b2 < 1.0:
            yield (
                lambda mu, b1=b1, b2=b2: upper_envelope(mu, b1, b2),
                lambda mu, b1=b1, b2=b2: _upper_envelope(mu, b1, b2, np.log),
            )


def _approx_objectives(seed):
    for peak, background, tau, trials in _channels(seed):
        probs = detection_probs(peak, background, tau)
        yield (
            lambda mu, p=probs, n=trials: mi_approx_low_background(mu, p, n),
            mi_approx_scan(probs, trials),
        )


def _capacity_objectives(seed):
    for peak, background, tau, _ in _channels(seed):
        levels = _levels(peak, background, tau)
        yield (
            lambda mu, a=peak, b=background, t=tau: rate_objective(mu, a, b, t),
            lambda mu, lv=levels: _rate(mu, lv, _entropy_increments),
        )


def _mi_objectives(seed):
    for peak, background, tau, trials in _channels(seed):
        probs = detection_probs(peak, background, tau)
        if probs.p_off != probs.p_on:
            yield _binomial_curve(probs, trials)


def test_bound_gap_scan_agrees():
    assert _scan_outcomes(_gap_objectives(1)) == {"ok"}


def test_upper_envelope_scan_agrees():
    assert _scan_outcomes(_upper_objectives(2)) == {"ok"}


def test_approximation_scan_agrees():
    # the NaN cells of duty-imax: refused outside the expansion's region
    assert _scan_outcomes(_approx_objectives(3)) == {"ok", "ParameterError"}


def test_capacity_scan_agrees():
    assert _scan_outcomes(_capacity_objectives(4)) == {"ok"}


def test_mi_scan_agrees():
    assert _scan_outcomes(_mi_objectives(5)) == {"ok"}
