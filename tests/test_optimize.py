import math
import warnings

import numpy as np
import pytest

from deadtime_channel import (
    NumericalFailure,
    ParameterError,
    estimate_exponential_rate,
    capacity_tau,
    maximize_scalar,
    upper_envelope,
)
from deadtime_channel import capacity, optimize


def test_quadratic_maximum():
    x, fx = maximize_scalar(lambda x: -((x - 0.3) ** 2), tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-10)
    assert fx == pytest.approx(0.0, abs=1e-18)


def test_lower_envelope_peaks_at_half():
    x, _ = maximize_scalar(lambda mu: upper_envelope(mu, 0.1, 0.1))
    # localization is limited by the objective noise floor ~sqrt(eps)
    assert x == pytest.approx(0.5, abs=1e-7)


def test_matches_closed_form_duty_cycle():
    levels = capacity._levels(2.0, 0.5, 1.0)
    x, _ = maximize_scalar(lambda mu: capacity._rate(mu, levels), tol=1e-12)
    mu_star, _ = capacity_tau(2.0, 0.5, 1.0)
    assert x == pytest.approx(mu_star, abs=1e-6)


def test_deterministic():
    f = lambda x: math.sin(5.0 * x) * math.exp(-x)
    first = maximize_scalar(f)
    second = maximize_scalar(f)
    assert first == second


def test_flat_objective_breaks_ties_left():
    x, fx = maximize_scalar(lambda x: 1.0)
    assert fx == 1.0
    assert x <= 2.0 / 1023.0  # stays inside the first bracket


def test_infinite_endpoints_tolerated():
    x, _ = maximize_scalar(lambda x: math.log(x * (1.0 - x)) if 0 < x < 1 else -math.inf)
    assert x == pytest.approx(0.5, abs=1e-7)


def test_mostly_non_finite_objective_rejected():
    with pytest.raises(NumericalFailure):
        maximize_scalar(lambda x: math.nan if x > 0.2 else x)


def test_nan_during_refinement_rejected():
    calls = []

    def objective(x):
        # finite on the 3-point scan, NaN at every golden-section point
        calls.append(x)
        return x if len(calls) <= 3 else math.nan

    with pytest.raises(NumericalFailure, match="objective returned NaN during refinement"):
        maximize_scalar(objective, coarse_points=3)


@pytest.mark.parametrize(
    "kwargs",
    [dict(tol=0.0), dict(coarse_points=2)],
    ids=["tol-zero", "two-coarse-points"],
)
def test_maximize_domain_errors(kwargs):
    with pytest.raises(ParameterError):
        maximize_scalar(lambda x: x, **kwargs)


# The least-squares slope lives in estimate_exponential_rate, which fits
# ln(value) against x; these tests feed it exp of a line.


def test_slope_exact_on_collinear_points():
    pts = [(x, math.exp(3.0 * x - 1.0)) for x in (0.0, 1.0, 2.0, 4.0)]
    assert estimate_exponential_rate(pts) == pytest.approx(3.0, rel=1e-15)


def test_slope_noisy_line_within_ci():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 10.0, 60)
    sigma = 0.3
    ys = 2.5 * xs + 1.0 + sigma * rng.standard_normal(xs.size)
    slope = estimate_exponential_rate(list(zip(xs, np.exp(ys))))
    sxx = float(((xs - xs.mean()) ** 2).sum())
    assert abs(slope - 2.5) < 4.0 * sigma / math.sqrt(sxx)


def test_slope_degenerate_x_rejected():
    with pytest.raises(ParameterError, match="identical"):
        estimate_exponential_rate([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    with pytest.raises(ParameterError, match="three points"):
        estimate_exponential_rate([(1.0, 2.0), (3.0, 8.0)])


# The numpy scan: one call over the interior points, which only picks the
# bracket; f itself gives the endpoints, the winner's value and the
# refinement.


def test_scan_called_once_with_interior_points():
    calls = []

    def scan(mu):
        calls.append(mu.copy())
        return -((mu - 0.3) ** 2)

    f = lambda x: -((x - 0.3) ** 2)
    assert maximize_scalar(f, scan=scan) == maximize_scalar(f)
    assert len(calls) == 1
    assert calls[0].tolist() == [i / 1023 for i in range(1, 1023)]


def test_default_scan_calls_f_at_the_shared_interior_points(monkeypatch):
    # without a scan, f itself is the scan, over the same cached points
    shared, sizes, seen = optimize._interior, [], []

    def interior(coarse_points):
        sizes.append(coarse_points)
        return shared(coarse_points)

    def f(x):
        seen.append(x)
        return -((x - 0.3) ** 2)

    monkeypatch.setattr(optimize, "_interior", interior)
    maximize_scalar(f, coarse_points=5, tol=1.0)
    assert sizes == [5]
    assert seen[:5] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert {type(x) for x in seen} == {float}


def test_scan_value_is_not_returned():
    # the scan only picks the bracket; the value comes from f at the winner
    x, fx = maximize_scalar(lambda x: 2.0, scan=lambda mu: mu * 0.0, tol=1.0)
    assert (x, fx) == (0.0, 2.0)


def test_scan_tie_goes_left():
    scan = lambda mu: np.where((mu > 0.25) & (mu < 0.75), 1.0, 0.0)
    x, _ = maximize_scalar(lambda x: 1.0 if 0.25 < x < 0.75 else 0.0, scan=scan, tol=1.0)
    assert x == 256 / 1023  # the first interior point above 0.25


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scan_non_finite_counts_as_minus_inf(bad):
    # left as they are, NaN would win np.argmax and inf any maximum
    scan = lambda mu: np.where(mu < 0.5, bad, mu)
    x, _ = maximize_scalar(lambda x: x, scan=scan, coarse_points=5, tol=1.0)
    assert x == 1.0


def test_scan_mostly_non_finite_rejected_as_per_point():
    f = lambda x: math.nan if x > 0.2 else x
    scan = lambda mu: np.where(mu > 0.2, np.nan, mu)
    with pytest.raises(NumericalFailure) as per_point:
        maximize_scalar(f)
    with pytest.raises(NumericalFailure) as scanned:
        maximize_scalar(f, scan=scan)
    assert str(scanned.value) == str(per_point.value) == (
        "objective non-finite at 819/1024 scan points"
    )


def test_scan_warnings_stay_inside():
    # log(0), 0/0 and overflow in the scan: no RuntimeWarning reaches the caller
    scan = lambda mu: np.log(mu - mu[0]) + (mu - mu) / (mu - mu) * np.exp(1e3 * mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="non-finite at 1024/1024"):
            maximize_scalar(lambda x: math.nan, scan=scan)
