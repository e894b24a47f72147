"""Parameter sweeps behind the CLI: ``run(command, settings)`` returns
(header, rows) for CSV.

``PRESETS`` declares the settings each sweep reads; the CLI's flags are
their keys.  ``run`` is the one settings resolver: a run reads exactly one
preset, the named one or the one the settings pick, refuses a setting that
preset lacks, which the sweep would not read, and hands the preset
overlaid by the settings to the command's ``*_rows`` function.  The CLI
and the acceptance checks both call it.

Sweeps work in the normalized convention: the symbol duration is 1, so a
dead time of 0.02 with 30 samples per symbol means the sampling interval
is 1/30 and rates are photons per symbol.  Every row is a deterministic
function of the settings (plus the seed for the simulation sweep); columns
that do not apply to a scenario hold nan.
"""

import math

import numpy as np

from .channel import ChannelParams, detection_prob, detection_probs, symbol_probs
from .divergences import bhattacharyya_distance, beta_triple, chernoff_binomial
from .errors import NumericalFailure, ParameterError
from .guards import check_open_unit, check_trials
from .mutual_info import (
    mi_binomial_curve,
    mi_binomial_mixture,
    mi_discrete_poisson,
    mi_max_bruteforce,
)
from .approximation import mi_approx_low_background
from .asymptotics import (
    _pow_log,
    estimate_exponential_rate,
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
from .rate_bounds import (
    bound_gap,
    gap_bounds,
    lower_bound_max,
    optimal_prior_upper,
    upper_bound_max,
    upper_envelope,
)
from . import monte_carlo, optimize

# Largest grid COUNT accepted.  No preset, check or benchmark workload uses
# more than 10,000 points; a count far beyond that only exhausts memory.
MAX_GRID_POINTS = 1_000_000

# Named parameter presets per CLI subcommand (the published setups).  Each
# gap preset is named after its scenario and holds one *_grid, its sweep;
# the gap presets are also the parameters of the gap acceptance checks.
PRESETS = {
    "mi-sweep": {
        "published": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "mu_grid": "lin:0,1,41",
        },
    },
    "duty-imax": {
        "samples20": {
            "background": 0.02, "dead_time": 0.02, "samples": 20,
            "a_grid": "log:0.5,200,40",
        },
        "samples30": {
            "background": 0.02, "dead_time": 0.02, "samples": 30,
            "a_grid": "log:0.5,200,40",
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
    # sampling_interval None is critical sampling, T_s = tau
    "capacity": {
        "zero-background": {
            "background": 0.0, "dead_time": 0.02, "sampling_interval": None,
            "a_grid": "log:0.01,2000,60",
        },
        "small-background": {
            "background": 0.001, "dead_time": 0.02, "sampling_interval": None,
            "a_grid": "log:0.01,2000,60",
        },
        "dead-time-sweep": {
            "peak_rate": 1.0, "background": 0.1, "sampling_interval": None,
            "tau_grid": "log:1e-4,1e-1,25",
        },
    },
    "simulate": {
        "published": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "symbols": 10**6, "seed": 20260808, "mu": 0.5,
        },
    },
}


# The preset a run reads when none is named and the settings pick none:
# gap picks its scenario's, and capacity over a tau_grid dead-time-sweep.
DEFAULT_PRESET = {
    "mi-sweep": "published",
    "duty-imax": "samples30",
    "capacity": "small-background",
    "simulate": "published",
}


def flag(key):
    """The CLI flag of a settings key."""
    return "--" + key.replace("_", "-")


def run(command, settings):
    """(header, rows) of ``command`` for ``settings``.

    A run reads exactly one preset: ``settings["preset"]`` if given, else
    the one the settings pick (gap: the scenario's; capacity with a
    tau_grid: dead-time-sweep; otherwise ``DEFAULT_PRESET``).  A setting
    that preset lacks, or a scenario other than its own, is refused; the
    rows get the preset overlaid by the settings.
    """
    settings = dict(settings)
    table = PRESETS[command]
    name = settings.pop("preset", None)
    if name is None:
        if command == "gap":
            name = settings.get("scenario")
            if name is None:
                raise ParameterError("gap requires --scenario")
            if name not in table:
                raise ParameterError(
                    f"unknown scenario {name!r}; choose from {'|'.join(table)}"
                )
        elif command == "capacity" and "tau_grid" in settings:
            name = "dead-time-sweep"
        else:
            name = DEFAULT_PRESET[command]
    elif name not in table:
        raise ParameterError(
            f"unknown preset {name!r} for {command}; choose from {sorted(table)}"
        )
    preset = table[name]
    for key in settings:
        if key not in preset:
            grids = [flag(k) for k in preset if k.endswith("_grid")]
            sweeps = f", which sweeps {grids[0]}" if grids else ""
            raise ParameterError(
                f"{flag(key)} does not apply to {command} {name}{sweeps}"
            )
    if "scenario" in settings and settings["scenario"] != preset["scenario"]:
        raise ParameterError(
            f"--scenario {settings['scenario']} differs from gap preset "
            f"{name}'s scenario {preset['scenario']}"
        )
    # Looked up at call time, so that a wrapper installed on this module's
    # attribute (the benchmark's tracer) sees the call.
    rows = globals()[command.replace("-", "_") + "_rows"]
    return rows({**preset, **settings})


def parse_grid(text):
    """lin:a,b,n or log:a,b,n with finite endpoints and values -> floats."""
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
    if count > MAX_GRID_POINTS:
        raise ParameterError(f"grid count must be <= {MAX_GRID_POINTS} in {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParameterError(f"grid endpoints must be finite in {text!r}")
    spacing = {"lin": np.linspace, "log": np.geomspace}.get(kind)
    if spacing is None:
        raise ParameterError(f"unknown grid kind {kind!r} in {text!r}")
    if kind == "log" and (start <= 0 or stop <= 0):
        raise ParameterError(f"log grid endpoints must be positive in {text!r}")
    # endpoints near the double range can overflow the spacing arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        grid = spacing(start, stop, count)
    if not np.isfinite(grid).all():
        raise ParameterError(f"grid values must be finite in {text!r}")
    return grid.tolist()


def _alpha_tuned_lower(mu, p0, p1, trials):
    """Lower envelope with the divergence order optimized over alpha per mu."""
    if mu == 0.0 or mu == 1.0 or p0 == p1:
        return 0.0

    def objective(alpha):
        b1 = math.exp(-chernoff_binomial(alpha, p1, p0, trials))
        b2 = math.exp(-chernoff_binomial(alpha, p0, p1, trials))
        return upper_envelope(mu, b1, b2)

    _, value = optimize.maximize_scalar(objective, tol=1e-9, coarse_points=65)
    return value


def mi_sweep_rows(settings):
    """Rate and bound columns over a duty-cycle grid (one symbol interval)."""
    peak_rate, background = settings["peak_rate"], settings["background"]
    trials = settings["samples"]
    probs = detection_probs(peak_rate, background, settings["dead_time"])
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
    exact_mi = mi_binomial_curve(probs, trials)
    rows = []
    for mu in parse_grid(settings["mu_grid"]):
        exact = exact_mi(mu)
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


def duty_imax_rows(settings):
    """Optimal duty cycles and maximal rates versus peak rate."""
    background, dead_time = settings["background"], settings["dead_time"]
    trials = settings["samples"]
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
    for peak in parse_grid(settings["a_grid"]):
        probs = detection_probs(peak, background, dead_time)
        triple = beta_triple(probs, trials)
        mu_exact, imax_exact = mi_max_bruteforce(probs, trials)
        try:
            mu_approx, imax_approx = optimize.maximize_scalar(
                lambda mu: mi_approx_low_background(mu, probs, trials)
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


def gap_rows(settings):
    """Bound-gap sweep for the scenario in settings["scenario"].

    The settings hold one grid, the sweep of the scenario's preset:
    samples per symbol for large-L (l_grid), the peak rate for large-A /
    zero-lambda / low-A (a_grid), and the background rate for low-lambda
    (lambda_grid).  Each point's four formula cells are the scenario's
    closed forms: the general lower and high-SNR bounds (large-L), the
    offset expansions of both bounds (large-A, low-lambda), the leading
    constants (zero-lambda) or the quadratic law (low-A).
    fitted_rate / predicted_rate hold the extracted and theoretical
    convergence constants (an exponential rate in the sweep variable,
    except low-lambda where it is the power-law exponent in the background
    rate and low-A where it is the power-law order in the peak rate).
    Zero-lambda needs a zero background and low-A a positive one.
    """
    scenario = settings["scenario"]
    peak_rate, background = settings.get("peak_rate"), settings.get("background")
    dead_time, trials = settings["dead_time"], settings.get("samples")
    (grid,) = [key for key in settings if key.endswith("_grid")]
    sweep_values = parse_grid(settings[grid])
    if scenario == "zero-lambda" and background != 0.0:
        raise ParameterError("zero-lambda scenario requires background = 0")
    if scenario == "low-A" and background == 0.0:
        raise ParameterError("low-A scenario requires background > 0")
    power_law = scenario in ("low-lambda", "low-A")
    for x in sweep_values if power_law else ():
        if not x > 0:
            raise ParameterError(f"{scenario} sweep values must be > 0, got {x}")
    if scenario == "large-L":
        for x in sweep_values:
            check_trials(x, f"{scenario} sweep values")
        sweep_values = [int(x) for x in sweep_values]

    def unresolved(x, what):
        return NumericalFailure(
            f"{scenario} gap at x = {x} cannot be resolved in double precision: {what}"
        )

    # Power laws fit ln y against ln x, the exponential decays ln y against x.
    rows, pts = [], []
    for x in sweep_values:
        if scenario == "large-L":
            probs, L = detection_probs(peak_rate, background, dead_time), x
        elif scenario == "low-lambda":
            probs, L = detection_probs(peak_rate, x, dead_time), trials
        else:
            probs, L = detection_probs(x, background, dead_time), trials
        p0, p1 = probs.p_off, probs.p_on
        triple = beta_triple(probs, L)
        gap = y = bound_gap(triple)
        if not (math.isfinite(gap) and gap > 0.0):
            raise unresolved(x, f"gap_numeric is {gap}")
        if scenario == "large-L":
            _, high_snr, general_lower = gap_bounds(triple)
            cells = [general_lower, high_snr, math.nan, math.nan]
        elif scenario == "zero-lambda":
            lead = _pow_log(1.0 - p1, 0.5 * trials)
            cells = [lead, 2.0 * lead, math.nan, math.nan]
        elif scenario == "low-A":
            # beta - beta_i within 2^20 ulp of beta is rounding, as the offset below
            margin = min(triple.beta - triple.beta1, triple.beta - triple.beta2)
            if margin < 2.0**20 * math.ulp(triple.beta):
                raise unresolved(
                    x, f"beta - max(beta1, beta2) = {margin} is within 2^20 ulp of {triple.beta}"
                )
            coeff = gap_quadratic_coeff_low_A(p0, trials, dead_time)
            quad = coeff * x * x
            if not math.isfinite(quad):
                raise unresolved(x, f"the quadratic gap {coeff} * x^2 overflows")
            cells = [quad, quad, gap / (x * x), coeff]
        else:
            # each bound = a constant in b (p0; 1 - p1 at low background) + offset
            if scenario == "large-A":
                b, (eps_u, eps_l) = p0, gap_offsets_large_A(p0, p1, trials)
            else:
                b, (eps_u, eps_l) = 1.0 - p1, gap_offsets_low_background(p0, p1, trials)
            high_u = gap_bounds(triple)[1]
            half, full = _pow_log(b, 0.5 * trials), _pow_log(b, trials)
            const_u = 2.0 * half - full
            const_l = math.log1p(half) - 0.5 * math.log1p(full)
            offset = high_u - const_u
            # A difference within 2^20 ulp of const_u is rounding, not the offset:
            # rounded points sit at 1-29 ulp, the presets above 4e12 ulp.
            if abs(offset) < 2.0**20 * math.ulp(const_u):
                raise unresolved(x, f"offset {offset} is within 2^20 ulp of {const_u}")
            cells = [const_l + eps_l, const_u + eps_u, offset, eps_u]
            y = abs(offset)
        rows.append([x, gap] + cells)
        pts.append((math.log(x) if power_law else x, y))
    slope = estimate_exponential_rate(pts)
    # after the sweep, so that a bad setting is named by the first point;
    # large-L fixes both rates and large-A the background, so the last
    # point's p0 (and at large-L p1) is every point's
    if scenario == "large-L":
        predicted = bhattacharyya_distance(p0, p1)
    elif scenario == "large-A":
        predicted = min(0.5, (1.0 - p0) * trials) * dead_time
    elif scenario == "low-lambda":
        predicted = min(0.5, detection_prob(peak_rate, dead_time) * trials)
    elif scenario == "zero-lambda":
        predicted = exp_rate_zero_background(trials, dead_time)
    else:
        predicted = 2.0
    for row in rows:
        row.extend([slope if power_law else -slope, predicted])
    return GAP_HEADER, rows


def capacity_rows(settings):
    """Capacity sweep over the peak rate (a_grid), or over the dead time at
    one peak rate when settings hold a tau_grid.  A sampling interval of
    None is the dead time (critical sampling)."""
    background = settings["background"]
    sampling_interval = settings["sampling_interval"]
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
    if "tau_grid" in settings:
        peak = settings["peak_rate"]
        points = [(peak, tau) for tau in parse_grid(settings["tau_grid"])]
    else:
        tau = settings["dead_time"]
        points = [(peak, tau) for peak in parse_grid(settings["a_grid"])]
    rows = []
    for peak, tau in points:
        t_s = sampling_interval if sampling_interval is not None else tau
        mu_star, cap = capacity_sampled(peak, background, tau, t_s)
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
                mu_star,
                cap,
                cap / math.log(2.0),
                wyner,
                approx_low,
                limit,
            ]
        )
    return header, rows


def simulate_rows(settings):
    """Monte Carlo validation row: empirical vs closed-form, with z-scores.

    The sampling interval is 1/samples, so the samples tile one symbol
    exactly, and samples * dead_time > 1 is refused.
    """
    trials, symbols = settings["samples"], settings["symbols"]
    seed, duty_cycle = settings["seed"], settings["mu"]
    check_trials(trials, "samples")
    check_open_unit(duty_cycle, "mu")
    params = ChannelParams(
        settings["peak_rate"], settings["background"], settings["dead_time"], trials
    )
    if 1.0 / trials < params.dead_time:
        raise ParameterError(
            f"the sampling interval 1/--samples = {1.0 / trials} must be >= "
            f"--dead-time = {params.dead_time}"
        )
    probs = symbol_probs(params)
    mi_exact = mi_binomial_mixture(duty_cycle, probs, trials)
    config = monte_carlo.SimConfig(params, symbols, seed, duty_cycle)
    counts = monte_carlo.joint_counts(config)
    (p0_hat, se0), (p1_hat, se1) = monte_carlo.detection_from_counts(counts, trials)
    mi_plugin = monte_carlo.plugin_mi_from_counts(counts)
    mi_sigma = monte_carlo.bootstrap_mi_sigma(config, counts)
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
        p0_hat,
        probs.p_off,
        p1_hat,
        probs.p_on,
        mi_plugin,
        mi_exact,
        _z_score("p0", p0_hat, probs.p_off, se0),
        _z_score("p1", p1_hat, probs.p_on, se1),
        _z_score("MI", mi_plugin, mi_exact, mi_sigma),
    ]
    return header, [row]


def _z_score(name, estimate, closed, stderr):
    """(estimate - closed) / stderr.  With a zero stderr (too few symbols to
    see a firing) only an exact match of a deterministic closed form scores."""
    if stderr > 0.0:
        return (estimate - closed) / stderr
    if estimate == closed:
        return 0.0
    raise NumericalFailure(
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
