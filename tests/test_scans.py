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
from 1 to 1,000, so they reach zero background and saturated levels.
The approximation refuses its region before it optimizes, so the draws
that reach its refusals hand no pair to the optimizer.

The scans here have 33 points and the refinement a tolerance of 1e-2, so
that the four tests take about 3 s; the per-point and the numpy scan
share everything after the winner, so a coarse tolerance hides nothing.
At the library's own sizes (1,024 points, 65 for the exact MI, and the
default tolerance) the same draws agree as well, in about 20 s.

The tuned lower envelope scans the divergence order instead: its scan
pairs are computed once, when its curve is built, and scanned in one
numpy call per duty cycle; the last tests hold it to the per-point scan
over alpha that it replaces, at its own sizes.
"""

import math

import numpy as np
import pytest

from deadtime_channel import NumericalFailure, ParameterError, optimize, rate_bounds
from deadtime_channel.approximation import mi_approx_max
from deadtime_channel.channel import detection_probs
from deadtime_channel.divergences import beta_triple, chernoff_binomial
from deadtime_channel.mutual_info import mi_max_bruteforce
from deadtime_channel.optimize import maximize_scalar
from deadtime_channel.rate_bounds import (
    _upper_envelope,
    bound_gap,
    optimal_prior_upper,
    tuned_lower_curve,
)

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
    refused = 0
    for peak, background, tau, trials in _channels(3):
        try:
            mi_approx_max(detection_probs(peak, background, tau), trials)
        except ParameterError:
            # the NaN cells of duty-imax: refused outside the expansion's
            # region by its gate, before any scan
            refused += 1
    assert refused > 0
    assert _scan_outcomes(passed) == {"ok"}


def test_mi_scan_agrees(passed):
    for peak, background, tau, trials in _channels(5):
        mi_max_bruteforce(detection_probs(peak, background, tau), trials)
    assert _scan_outcomes(passed) == {"ok"}


# an ascending duty-cycle grid, walked in order as mi_sweep_rows walks it
TUNED_MU_GRID = np.linspace(0.0, 1.0, 5).tolist()
TUNED_CHANNELS = 400


def _tuned_lower_per_point(mu, probs, trials):
    """The tuned lower envelope point by point: a 65-point scan over alpha
    of the checked Chernoff divergences, refined to 1e-9."""
    p0, p1 = probs.p_off, probs.p_on
    if mu == 0.0 or mu == 1.0 or p0 == p1:
        return 0.0

    def objective(alpha):
        b1 = math.exp(-chernoff_binomial(alpha, p1, p0, trials))
        b2 = math.exp(-chernoff_binomial(alpha, p0, p1, trials))
        return _upper_envelope(mu, b1, b2, math.log)

    _, value = maximize_scalar(objective, tol=1e-9, coarse_points=65)
    return value


def _value_outcome(f, *args):
    try:
        value = f(*args)
    except (ParameterError, NumericalFailure) as exc:
        return type(exc).__name__, str(exc)
    return "ok", float(value).hex()


def _tuned_channels(seed):
    """(probs, trials): the first TUNED_CHANNELS draws of ``_channels``."""
    for i, (peak, background, tau, trials) in enumerate(_channels(seed)):
        if i == TUNED_CHANNELS:
            return
        yield detection_probs(peak, background, tau), trials


# weak signals: from A = 1e-8 on a divergence rounds below 0 at some alpha
# (mi-sweep --peak-rate 1e-8 is refused at A = 1e-8, where alpha = 4/64 fails)
WEAK_CHANNELS = [
    (detection_probs(10.0**-k, 0.02, 0.02), trials)
    for k in range(4, 16)
    for trials in (1, 30, 1000)
]


def test_tuned_lower_curve_equals_per_point_scan():
    differing, outcomes, refused = [], set(), 0
    for probs, trials in [*_tuned_channels(4), *WEAK_CHANNELS]:
        try:
            curve = tuned_lower_curve(probs, trials)
        except NumericalFailure as exc:
            # a failing scan pair refuses the channel when the curve is built
            curve, refusal = None, ("NumericalFailure", str(exc))
            refused += 1
        for mu in TUNED_MU_GRID:
            expected = _value_outcome(_tuned_lower_per_point, mu, probs, trials)
            outcomes.add(expected[0])
            if curve is None and mu in (0.0, 1.0):
                continue  # the per-point scan reads no pair at the endpoints
            got = refusal if curve is None else _value_outcome(curve, mu)
            if got != expected:
                differing.append((probs, trials, mu, expected))
    assert differing == []
    assert outcomes == {"ok", "NumericalFailure"}
    assert refused > 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """The alphas of the Chernoff kernel calls, and a count of objective
    evaluations, made through ``rate_bounds`` while the test runs."""
    alphas, evals = [], [0]
    kernel, maximize = rate_bounds._chernoff, optimize.maximize_scalar

    def chernoff(alpha, *args):
        alphas.append(alpha)
        return kernel(alpha, *args)

    def counted(f, *args, **kwargs):
        def objective(x):
            evals[0] += 1
            return f(x)

        return maximize(objective, *args, **kwargs)

    monkeypatch.setattr(rate_bounds, "_chernoff", chernoff)
    monkeypatch.setattr(optimize, "maximize_scalar", counted)
    return alphas, evals


def test_tuned_lower_curve_computes_each_scan_pair_once(kernel_calls):
    alphas, evals = kernel_calls
    interior = {i / 64 for i in range(1, 64)}
    for probs, trials in _tuned_channels(4):
        alphas.clear()
        evals[0] = 0
        curve = tuned_lower_curve(probs, trials)
        for mu in TUNED_MU_GRID:
            curve(mu)
        if probs.p_off == probs.p_on:
            assert alphas == []  # saturated levels: no signal, no pairs, no scan
            continue
        # two divergences per objective evaluation, and per interior scan order once
        assert len(alphas) == 2 * (evals[0] + 63)
        assert set(alphas) >= interior


def test_tuned_lower_curve_scans_its_pairs_in_one_call(kernel_calls, monkeypatch):
    _, evals = kernel_calls
    envelope, calls = rate_bounds._upper_envelope, [0]

    def counted(*args):
        calls[0] += 1
        return envelope(*args)

    monkeypatch.setattr(rate_bounds, "_upper_envelope", counted)
    curve = tuned_lower_curve(detection_probs(10.0, 0.02, 0.02), 30)
    for mu in TUNED_MU_GRID[1:-1]:
        calls[0] = evals[0] = 0
        curve(mu)
        # one envelope per objective evaluation, and one for the whole scan
        assert calls[0] == evals[0] + 1
