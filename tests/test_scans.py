"""The numpy scans pick the same bracket as the per-point scans.

Each optimum with an array form hands ``optimize.maximize_scalar`` an
objective and its scan.  A recording stub captures the pairs that
``bound_gap``, ``optimal_prior_upper``, ``mi_approx_max`` and
``mi_max_bruteforce`` pass on random channels, and every pair must carry
a scan, so an optimum that drops back to a per-point scan fails here;
each pair is then maximized twice, once with its scan and once point by
point, and the two results must be equal bit for bit (or the same
refusal).  The channels span A tau from 1e-4 to 1e3, a background
tau of 0 in about a fifth of the draws and otherwise 1e-6 to 1e2, and L
from 1 to 1,000, so they reach the approximation's refusals, zero
background and saturated levels.

The scans here have 33 points and the refinement a tolerance of 1e-2, so
that the four tests take about 3 s; the per-point and the numpy scan
share everything after the winner, so a coarse tolerance hides nothing.
At the library's own sizes (1,024 points, 65 for the exact MI, and the
default tolerance) the same draws agree as well, in about 20 s.
"""

import numpy as np
import pytest

from deadtime_channel import NumericalFailure, ParameterError, optimize
from deadtime_channel.approximation import mi_approx_max
from deadtime_channel.channel import detection_probs
from deadtime_channel.divergences import beta_triple
from deadtime_channel.mutual_info import mi_max_bruteforce
from deadtime_channel.optimize import maximize_scalar
from deadtime_channel.rate_bounds import bound_gap, optimal_prior_upper

CHANNELS = 2000
COARSE_POINTS = 33
TOL = 1e-2


@pytest.fixture
def passed(monkeypatch):
    """The (f, scan) pairs handed to ``optimize.maximize_scalar`` while the
    test runs, recorded by a stub that returns (0.5, 0.0)."""
    pairs = []

    def record(f, tol=None, coarse_points=None, scan=None):
        pairs.append((f, scan))
        return 0.5, 0.0

    monkeypatch.setattr(optimize, "maximize_scalar", record)
    return pairs


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
    """Assert that ``objectives`` holds (f, scan) pairs, each with a scan,
    and that each gives the same result with and without its scan; returns
    the kinds of result seen."""
    assert objectives and all(scan is not None for _, scan in objectives)
    differing, outcomes = [], set()
    for i, (f, scan) in enumerate(objectives):
        per_point = _outcome(f, coarse_points=COARSE_POINTS, tol=TOL)
        scanned = _outcome(f, coarse_points=COARSE_POINTS, tol=TOL, scan=scan)
        outcomes.add(per_point[0])
        if scanned != per_point:
            differing.append((i, per_point, scanned))
    assert differing == []
    return outcomes


def test_bound_gap_scan_agrees(passed):
    for peak, background, tau, trials in _channels(1):
        bound_gap(beta_triple(detection_probs(peak, background, tau), trials))
    assert _scan_outcomes(passed) == {"ok"}


def test_upper_envelope_scan_agrees(passed):
    for peak, background, tau, trials in _channels(2):
        triple = beta_triple(detection_probs(peak, background, tau), trials)
        optimal_prior_upper(triple.beta1, triple.beta2)
    assert _scan_outcomes(passed) == {"ok"}


def test_approximation_scan_agrees(passed):
    for peak, background, tau, trials in _channels(3):
        probs = detection_probs(peak, background, tau)
        if probs.p_off != probs.p_on:  # without signal no scan runs
            mi_approx_max(probs, trials)
    # the NaN cells of duty-imax: refused outside the expansion's region
    assert _scan_outcomes(passed) == {"ok", "ParameterError"}


def test_mi_scan_agrees(passed):
    for peak, background, tau, trials in _channels(5):
        mi_max_bruteforce(detection_probs(peak, background, tau), trials)
    assert _scan_outcomes(passed) == {"ok"}
