"""Parameter sweeps behind the CLI: each returns (header, rows) for CSV.

Sweeps work in the normalized convention: the symbol duration is 1, so a
dead time of 0.02 with 30 samples per symbol means the sampling interval
is 1/30 and rates are photons per symbol.  Every row is a deterministic
function of the flags (plus the seed for the simulation sweep); columns
that do not apply to a scenario hold nan.
"""

import math

import numpy as np

from .channel import BinaryDetectionProbs, ChannelParams, detection_prob, symbol_probs
from .divergences import beta_triple, chernoff_binomial
from .errors import EstimationError, ParameterError
from .mutual_info import (
    mi_binomial_mixture,
    mi_discrete_poisson,
    mi_max_bruteforce,
)
from .approximation import mi_approx_low_background
from .asymptotics import (
    estimate_exponential_rate,
    exp_rate_large_L,
    exp_rate_zero_background,
    gap_offsets_large_A,
    gap_offsets_low_background,
    gap_quadratic_coeff_low_A,
)
from .capacity import (
    asymptotic_capacity_coeff_large_A,
    capacity_sampled,
    quadratic_coeffs_low_A,
    wyner_poisson_capacity,
)
from .monte_carlo import SimConfig, simulate_summary
from .rate_bounds import (
    bound_gap,
    gap_bounds,
    lower_bound_max,
    optimal_prior_upper,
    upper_bound_max,
    upper_envelope,
)
from . import optimize

GAP_SCENARIOS = ("large-L", "large-A", "low-lambda", "zero-lambda", "low-A")

# The grid setting holding a gap scenario's sweep values (else a_grid).
GAP_GRID = {"large-L": "l_grid", "low-lambda": "lambda_grid"}

# Named parameter presets per CLI subcommand (the published setups).  The
# gap presets are also the parameters of the gap acceptance checks.
PRESETS = {
    "mi-sweep": {
        "published": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "mu_grid": "lin:0,1,41",
        },
    },
    "duty-imax": {
        "samples20": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 20, "a_grid": "log:0.5,200,40",
        },
        "samples30": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "a_grid": "log:0.5,200,40",
        },
    },
    "gap": {
        "large-L": {
            "scenario": "large-L", "peak_rate": 10.0, "background": 0.02,
            "dead_time": 0.02, "l_grid": "lin:50,400,15",
        },
        "large-A": {
            "scenario": "large-A", "background": 10.0, "dead_time": 0.1,
            "samples": 10, "a_grid": "lin:100,180,9",
        },
        "low-lambda": {
            "scenario": "low-lambda", "peak_rate": 10.0, "dead_time": 0.1,
            "samples": 10, "lambda_grid": "log:5.8e-6,5.8e-4,9",
        },
        "zero-lambda": {
            "scenario": "zero-lambda", "background": 0.0, "dead_time": 0.1,
            "samples": 10, "a_grid": "lin:30,80,11",
        },
        "low-A": {
            "scenario": "low-A", "background": 1.0, "dead_time": 0.02,
            "samples": 20, "a_grid": "log:1e-4,1e-2,9",
        },
    },
    "capacity": {
        "zero-background": {
            "background": 0.0, "dead_time": 0.02, "a_grid": "log:0.01,2000,60",
        },
        "small-background": {
            "background": 0.001, "dead_time": 0.02, "a_grid": "log:0.01,2000,60",
        },
        "dead-time-sweep": {
            "peak_rate": 1.0, "background": 0.1, "tau_grid": "log:1e-4,1e-1,25",
        },
    },
    "simulate": {
        "published": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "symbols": 10**6, "seed": 20260808, "mu": 0.5,
        },
    },
}


def parse_grid(text):
    """lin:a,b,n or log:a,b,n -> list of floats."""
    try:
        kind, rest = text.split(":", 1)
        start, stop, count = rest.split(",")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ParameterError(
            f"bad grid {text!r}; expected lin:a,b,n or log:a,b,n"
        ) from exc
    if count < 1:
        raise ParameterError(f"grid count must be >= 1 in {text!r}")
    if kind == "lin":
        return list(np.linspace(start, stop, count))
    if kind == "log":
        if start <= 0 or stop <= 0:
            raise ParameterError(f"log grid endpoints must be positive in {text!r}")
        return list(np.geomspace(start, stop, count))
    raise ParameterError(f"unknown grid kind {kind!r} in {text!r}")


def _probs(peak_rate, background, dead_time):
    return BinaryDetectionProbs(
        detection_prob(background, dead_time),
        detection_prob(peak_rate + background, dead_time),
    )


def _alpha_tuned_lower(mu, p0, p1, trials):
    """Lower envelope with the divergence order optimized over alpha per mu."""
    if mu == 0.0 or mu == 1.0 or p0 == p1:
        return 0.0

    def objective(alpha):
        b1 = math.exp(-chernoff_binomial(alpha, p1, p0, trials))
        b2 = math.exp(-chernoff_binomial(alpha, p0, p1, trials))
        return upper_envelope(mu, b1, b2)

    _, value = optimize.maximize_scalar(objective, 0.0, 1.0, tol=1e-9, coarse_points=65)
    return value


def mi_sweep_rows(peak_rate, background, dead_time, trials, mu_values):
    """Rate and bound columns over a duty-cycle grid (one symbol interval)."""
    probs = _probs(peak_rate, background, dead_time)
    triple = beta_triple(probs, trials)
    upper_sub = (
        upper_bound_max(triple.beta1, triple.beta2)
        if not (triple.beta1 == 1.0 and triple.beta2 == 1.0)
        else 0.0
    )
    header = [
        "mu",
        "exact_mi",
        "lower",
        "lower_sub",
        "upper",
        "upper_sub",
        "approx",
        "poisson_benchmark",
    ]
    rows = []
    for mu in mu_values:
        exact = mi_binomial_mixture(mu, probs, trials)
        try:
            approx = mi_approx_low_background(mu, probs, trials)
        except ParameterError:
            approx = math.nan
        rows.append(
            [
                mu,
                exact,
                _alpha_tuned_lower(mu, probs.p_off, probs.p_on, trials),
                upper_envelope(mu, triple.beta, triple.beta),
                upper_envelope(mu, triple.beta1, triple.beta2),
                upper_sub,
                approx,
                mi_discrete_poisson(mu, background, peak_rate + background),
            ]
        )
    return header, rows


def duty_imax_rows(peak_values, background, dead_time, trials):
    """Optimal duty cycles and maximal rates versus peak rate."""
    header = [
        "A",
        "mu_exact",
        "mu_approx",
        "mu_lower",
        "mu_upper",
        "imax_exact",
        "imax_lower",
        "imax_upper",
        "imax_approx",
    ]
    rows = []
    for peak in peak_values:
        probs = _probs(peak, background, dead_time)
        triple = beta_triple(probs, trials)
        mu_exact, imax_exact = mi_max_bruteforce(probs, trials)
        try:
            mu_approx, imax_approx = optimize.maximize_scalar(
                lambda mu: mi_approx_low_background(mu, probs, trials), 0.0, 1.0
            )
        except ParameterError:
            mu_approx, imax_approx = math.nan, math.nan
        if triple.beta1 < 1.0 and triple.beta2 < 1.0:
            mu_upper = optimal_prior_upper(triple.beta1, triple.beta2)
            imax_upper = upper_envelope(mu_upper, triple.beta1, triple.beta2)
        else:
            mu_upper, imax_upper = 0.5, 0.0
        rows.append(
            [
                peak,
                mu_exact,
                mu_approx,
                0.5,
                mu_upper,
                imax_exact,
                lower_bound_max(triple.beta),
                imax_upper,
                imax_approx,
            ]
        )
    return header, rows


GAP_HEADER = [
    "x",
    "gap_numeric",
    "gap_lower_formula",
    "gap_upper_formula",
    "offset_numeric",
    "offset_formula",
    "fitted_rate",
    "predicted_rate",
]


def _pow_log(base, exponent):
    return math.exp(exponent * math.log(base))


def gap_rows(scenario, peak_rate, background, dead_time, trials, sweep_values):
    """Bound-gap sweep for one of the five asymptotic scenarios.

    The sweep variable depends on the scenario: samples per symbol for
    large-L, the peak rate for large-A / zero-lambda / low-A, and the
    background rate for low-lambda.  fitted_rate / predicted_rate hold the
    extracted and theoretical convergence constants (an exponential rate
    in the sweep variable, except low-lambda where it is the power-law
    exponent in the background rate and low-A where it is the power-law
    order in the peak rate).
    """
    if scenario not in GAP_SCENARIOS:
        raise ParameterError(f"unknown gap scenario {scenario!r}")
    if scenario == "zero-lambda" and background != 0.0:
        raise ParameterError("zero-lambda scenario requires background = 0")
    power_law = scenario in ("low-lambda", "low-A")
    for x in sweep_values if power_law else ():
        if not x > 0:
            raise ParameterError(f"{scenario} sweep values must be > 0, got {x}")
    if scenario == "large-L":
        sweep_values = [int(x) for x in sweep_values]

    def p(rate):
        return detection_prob(rate, dead_time)

    def offset_cells(b, eps_u, eps_l, high_u):
        # each bound = a constant in b (p0; 1 - p1 at low background) + offset
        half, full = _pow_log(b, 0.5 * trials), _pow_log(b, trials)
        const_u = 2.0 * half - full
        const_l = math.log1p(half) - 0.5 * math.log1p(full)
        offset = high_u - const_u
        return [const_l + eps_l, const_u + eps_u, offset, eps_u], abs(offset)

    def lead_cells(p1, gap):
        lead = _pow_log(1.0 - p1, 0.5 * trials)
        return [lead, 2.0 * lead, math.nan, math.nan], gap

    def quadratic_cells(x, p0, gap):
        coeff = gap_quadratic_coeff_low_A(p0, trials, dead_time)
        quad = coeff * x * x
        return [quad, quad, gap / x**2, coeff], gap

    def by_peak(x):
        return _probs(x, background, dead_time), trials

    # scenario -> (sweep value x -> (probs, L);
    #              (x, p0, p1, gap, gap_bounds) -> (four formula cells, fitted y);
    #              predicted rate).  Power laws fit ln y against ln x, the
    # exponential decays ln y against x.
    table = {
        "large-L": (
            lambda x: (_probs(peak_rate, background, dead_time), x),
            lambda x, p0, p1, gap, b: ([b[2], b[1], math.nan, math.nan], gap),
            lambda: exp_rate_large_L(p(background), p(peak_rate + background)),
        ),
        "large-A": (
            by_peak,
            lambda x, p0, p1, gap, b: offset_cells(
                p0, *gap_offsets_large_A(p0, p1, trials), b[1]
            ),
            lambda: min(0.5, (1.0 - p(background)) * trials) * dead_time,
        ),
        "low-lambda": (
            lambda x: (_probs(peak_rate, x, dead_time), trials),
            lambda x, p0, p1, gap, b: offset_cells(
                1.0 - p1, *gap_offsets_low_background(p0, p1, trials), b[1]
            ),
            lambda: min(0.5, p(peak_rate) * trials),
        ),
        "zero-lambda": (
            by_peak,
            lambda x, p0, p1, gap, b: lead_cells(p1, gap),
            lambda: exp_rate_zero_background(trials, dead_time),
        ),
        "low-A": (
            by_peak,
            lambda x, p0, p1, gap, b: quadratic_cells(x, p0, gap),
            lambda: 2.0,
        ),
    }
    point, cells, predicted = table[scenario]
    predicted = predicted()
    rows, pts = [], []
    for x in sweep_values:
        probs, L = point(x)
        triple = beta_triple(probs, L)
        gap = bound_gap(triple)
        formula_cells, y = cells(x, probs.p_off, probs.p_on, gap, gap_bounds(triple))
        rows.append([x, gap] + formula_cells)
        pts.append((math.log(x) if power_law else x, y))
    slope = estimate_exponential_rate(pts)
    for row in rows:
        row.extend([slope if power_law else -slope, predicted])
    return GAP_HEADER, rows


def gap_sweep(settings):
    """gap_rows for ``settings`` over the preset of settings["scenario"];
    the CLI ``gap`` command and the gap acceptance checks both run it."""
    scenario = settings["scenario"]
    merged = {**PRESETS["gap"][scenario], **settings}
    return gap_rows(
        scenario,
        merged.get("peak_rate", 0.0) or 0.0,
        merged.get("background", 0.0) or 0.0,
        merged["dead_time"],
        merged.get("samples"),
        parse_grid(merged[GAP_GRID.get(scenario, "a_grid")]),
    )


def capacity_rows(
    peak_values, tau_values, background, dead_time, sampling_interval=None
):
    """Capacity sweep over the peak rate (or dead time, when tau_values given)."""
    header = [
        "A",
        "tau",
        "mu_star",
        "capacity_nats",
        "capacity_bits",
        "wyner_capacity",
        "approx_low_A",
        "limit_large_A",
    ]
    if tau_values is not None:
        points = [(peak_values[0], tau) for tau in tau_values]
    else:
        points = [(peak, dead_time) for peak in peak_values]
    rows = []
    for peak, tau in points:
        t_s = sampling_interval if sampling_interval is not None else tau
        result = capacity_sampled(peak, background, tau, t_s)
        _, wyner = wyner_poisson_capacity(peak, background)
        if background == 0.0:
            approx_low = (tau / t_s) * peak / math.e
        else:
            _, d_tau = quadratic_coeffs_low_A(background, tau)
            approx_low = d_tau * peak * peak * (tau / t_s)
        limit = asymptotic_capacity_coeff_large_A(background, tau) / t_s
        rows.append(
            [
                peak,
                tau,
                result.duty_cycle,
                result.capacity_nats_per_time,
                result.capacity_nats_per_time / math.log(2.0),
                wyner,
                approx_low,
                limit,
            ]
        )
    return header, rows


def simulate_rows(
    peak_rate,
    background,
    dead_time,
    sampling_interval,
    trials,
    symbols,
    seed,
    duty_cycle,
):
    """Monte Carlo validation row: empirical vs closed-form, with z-scores."""
    params = ChannelParams(peak_rate, background, dead_time, sampling_interval, trials)
    config = SimConfig(params, symbols, seed, duty_cycle)
    summary = simulate_summary(config)
    probs = symbol_probs(params)
    mi_exact = mi_binomial_mixture(duty_cycle, probs, trials)
    header = [
        "symbols",
        "p0_hat",
        "p0_closed",
        "p1_hat",
        "p1_closed",
        "mi_plugin",
        "mi_exact",
        "z_p0",
        "z_p1",
        "z_mi",
    ]
    row = [
        symbols,
        summary["p0_hat"],
        probs.p_off,
        summary["p1_hat"],
        probs.p_on,
        summary["mi_plugin"],
        mi_exact,
        _z_score("p0", summary["p0_hat"], probs.p_off, summary["p0_stderr"]),
        _z_score("p1", summary["p1_hat"], probs.p_on, summary["p1_stderr"]),
        _z_score("MI", summary["mi_plugin"], mi_exact, summary["mi_sigma"]),
    ]
    return header, [row]


def _z_score(name, estimate, closed, stderr):
    """(estimate - closed) / stderr.  With a zero stderr (too few symbols to
    see a firing) only an exact match of a deterministic closed form scores."""
    if stderr > 0.0:
        return (estimate - closed) / stderr
    if estimate == closed:
        return 0.0
    raise EstimationError(
        f"{name} estimate {estimate} has zero standard error against the "
        f"closed form {closed}; increase symbols"
    )


def format_csv(header, rows):
    """Serialize to CSV text: UTF-8 content, LF endings, 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.17g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
