import math

import numpy as np
import pytest

from deadtime_channel import (
    NumericalFailure,
    ParameterError,
    estimate_exponential_rate,
    maximize_scalar,
    optimal_duty_cycle,
    rate_objective,
    upper_envelope,
)


def test_quadratic_maximum():
    x, fx = maximize_scalar(lambda x: -((x - 0.3) ** 2), tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-10)
    assert fx == pytest.approx(0.0, abs=1e-18)


def test_lower_envelope_peaks_at_half():
    x, _ = maximize_scalar(lambda mu: upper_envelope(mu, 0.1, 0.1))
    # localization is limited by the objective noise floor ~sqrt(eps)
    assert x == pytest.approx(0.5, abs=1e-7)


def test_matches_closed_form_duty_cycle():
    x, _ = maximize_scalar(
        lambda mu: rate_objective(mu, 2.0, 0.5, 1.0), tol=1e-12
    )
    mu_star, _ = optimal_duty_cycle(2.0, 0.5, 1.0)
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
