"""Parameter sweeps behind the CLI: ``run(command, settings)`` returns
(header, rows) for CSV.

``PRESETS`` declares the settings each sweep reads; the CLI's flags are
their keys.  ``run`` is the one settings resolver: a run reads exactly one
preset (the named one, the one the settings pick, or else the command's
first), refuses a setting that preset lacks, which the sweep would not
read, and hands the preset overlaid by the settings to the command's
``*_rows`` function.  The CLI and the acceptance checks both call it.

Sweeps work in the normalized convention: the symbol duration is 1, so a
dead time of 0.02 with 30 samples per symbol means the sampling interval
is 1/30 and rates are photons per symbol.  Every row is a deterministic
function of the settings (plus the seed for the simulation sweep); columns
that do not apply to a scenario hold nan.
"""

import functools
import math
import sys

import numpy as np

from .channel import detection_prob, detection_probs
from .divergences import bhattacharyya_distance, beta_triple
from .errors import NumericalFailure, ParameterError
from .guards import check_trials
from .mutual_info import (
    mi_binomial_curve,
    mi_binomial_mixture,
    mi_discrete_poisson,
    mi_max_bruteforce,
)
from .approximation import mi_approx_low_background, mi_approx_max
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
    tuned_lower_curve,
    upper_bound_max,
    upper_envelope,
)
from . import monte_carlo

# Largest grid COUNT accepted.  No preset, check or benchmark workload uses
# more than 10,000 points; a count far beyond that only exhausts memory.
MAX_GRID_POINTS = 1_000_000

# Named parameter presets per CLI subcommand (the published setups); a
# subcommand's first preset is its default.  Each gap preset is named
# after its scenario and holds one *_grid, its sweep; the gap presets are
# also the parameters of the gap acceptance checks.
PRESETS = {
    "mi-sweep": {
        "published": {
            "peak_rate": 10.0, "background": 0.02, "dead_time": 0.02,
            "samples": 30, "mu_grid": "lin:0,1,41",
        },
    },
    "duty-imax": {
        "samples30": {
            "background": 0.02, "dead_time": 0.02, "samples": 30,
            "a_grid": "log:0.5,200,40",
        },
        "samples20": {
            "background": 0.02, "dead_time": 0.02, "samples": 20,
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
        "small-background": {
            "background": 0.001, "dead_time": 0.02, "sampling_interval": None,
            "a_grid": "log:0.01,2000,60",
        },
        "zero-background": {
            "background": 0.0, "dead_time": 0.02, "sampling_interval": None,
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


def flag(key):
    """The CLI flag of a settings key."""
    return "--" + key.replace("_", "-")


def run(command, settings):
    """(header, rows) of ``command`` for ``settings``.

    A run reads exactly one preset: ``settings["preset"]`` if given, else
    the one the settings pick (gap: the scenario's; capacity with a
    tau_grid: dead-time-sweep), otherwise the command's first preset in
    ``PRESETS``.  A setting that preset lacks, or a scenario other than its
    own, is refused; the rows get the preset overlaid by the settings.
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
            name = next(iter(table))
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


def _unresolved(point, value, what):
    """The refusal of the sweep point ``point = value`` (``"duty-imax at A"``)
    that double precision cannot resolve."""
    return NumericalFailure(
        f"{point} = {value} cannot be resolved in double precision: {what}"
    )


def mi_sweep_rows(settings):
    """Rate and bound columns over a duty-cycle grid (one symbol interval)."""
    peak_rate, background = settings["peak_rate"], settings["background"]
    trials = settings["samples"]
    probs = detection_probs(peak_rate, background, settings["dead_time"])
    try:
        triple = beta_triple(probs, trials)
        # before the pairs, so that L past the cap is refused as a setting
        exact_mi = mi_binomial_curve(probs, trials)
        tuned_lower = tuned_lower_curve(probs, trials)
    except NumericalFailure as exc:
        raise _unresolved("mi-sweep at A", peak_rate, exc) from exc
    upper_sub = upper_bound_max(triple.beta1, triple.beta2)
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
    for mu in parse_grid(settings["mu_grid"]):
        exact = exact_mi(mu)
        try:
            lower = tuned_lower(mu)
        except NumericalFailure as exc:
            raise _unresolved("mi-sweep at mu", mu, exc) from exc
        try:
            approx = mi_approx_low_background(mu, probs, trials)
        except ParameterError:
            approx = math.nan
        rows.append(
            [
                mu,
                exact,
                lower,
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
        try:
            triple = beta_triple(probs, trials)
        except NumericalFailure as exc:
            raise _unresolved("duty-imax at A", peak, exc) from exc
        mu_exact, imax_exact = mi_max_bruteforce(probs, trials)
        try:
            mu_approx, imax_approx = mi_approx_max(probs, trials)
        except ParameterError:
            mu_approx, imax_approx = math.nan, math.nan
        mu_upper, imax_upper = optimal_prior_upper(triple.beta1, triple.beta2)
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
    Zero-lambda needs a zero background, low-A and large-A a positive one
    (zero-lambda is large-A's zero-background case).  Every scenario needs
    a signal: a peak rate of 0, fixed or an a_grid value, makes p0 == p1
    and is refused as a setting, not as a gap that rounds to 0.
    """
    scenario = settings["scenario"]
    peak_rate, background = settings.get("peak_rate"), settings.get("background")
    dead_time, trials = settings["dead_time"], settings.get("samples")
    (grid,) = [key for key in settings if key.endswith("_grid")]
    sweep_values = parse_grid(settings[grid])
    if scenario == "zero-lambda" and background != 0.0:
        raise ParameterError("zero-lambda scenario requires background = 0")
    if scenario in ("low-A", "large-A") and background == 0.0:
        raise ParameterError(f"{scenario} scenario requires background > 0")
    power_law = scenario in ("low-lambda", "low-A")
    for x in sweep_values if scenario != "large-L" else ():
        # a negative peak rate is named by the rate guards at its point
        if x == 0.0 or (power_law and not x > 0):
            raise ParameterError(f"{scenario} sweep values must be > 0, got {x}")
    if scenario == "large-L":
        for x in sweep_values:
            check_trials(x, f"{scenario} sweep values")
        sweep_values = [int(x) for x in sweep_values]
    if peak_rate == 0.0:
        raise ParameterError(f"{scenario} scenario requires peak_rate > 0")

    # Power laws fit ln y against ln x, the exponential decays ln y against x.
    point, rows, pts = f"{scenario} gap at x", [], []
    for x in sweep_values:
        if scenario == "large-L":
            probs, L = detection_probs(peak_rate, background, dead_time), x
        elif scenario == "low-lambda":
            probs, L = detection_probs(peak_rate, x, dead_time), trials
        else:
            probs, L = detection_probs(x, background, dead_time), trials
        p0, p1 = probs.p_off, probs.p_on
        try:
            triple = beta_triple(probs, L)
        except NumericalFailure as exc:
            raise _unresolved(point, x, exc) from exc
        gap = y = bound_gap(triple)
        # a subnormal gap keeps few correct digits, as a gap of 0 keeps none
        if not (math.isfinite(gap) and gap >= sys.float_info.min):
            raise _unresolved(point, x, f"gap_numeric is {gap}")
        if scenario == "large-L":
            _, high_snr, general_lower = gap_bounds(triple)
            cells = [general_lower, high_snr, math.nan, math.nan]
            predicted = bhattacharyya_distance(p0, p1)
        elif scenario == "zero-lambda":
            lead = _pow_log(1.0 - p1, 0.5 * trials)
            cells = [lead, 2.0 * lead, math.nan, math.nan]
            predicted = exp_rate_zero_background(trials, dead_time)
        elif scenario == "low-A":
            # beta - beta_i within 2^20 ulp of beta is rounding, as the offset below
            margin = min(triple.beta - triple.beta1, triple.beta - triple.beta2)
            if margin < 2.0**20 * math.ulp(triple.beta):
                raise _unresolved(
                    point, x, f"beta - max(beta1, beta2) = {margin} is within 2^20 ulp of {triple.beta}"
                )
            coeff = gap_quadratic_coeff_low_A(p0, trials, dead_time)
            quad = coeff * x * x
            if not math.isfinite(quad):
                raise _unresolved(point, x, f"the quadratic gap {coeff} * x^2 overflows")
            cells = [quad, quad, gap / (x * x), coeff]
            predicted = 2.0
        else:
            # each bound = a constant in b (p0; 1 - p1 at low background) + offset
            if scenario == "large-A":
                if p0 == 0.0:
                    raise _unresolved(point, x, "p0 rounds to 0")
                b, (eps_u, eps_l) = p0, gap_offsets_large_A(p0, p1, trials)
                predicted = min(0.5, (1.0 - p0) * trials) * dead_time
            elif p1 == 1.0:
                raise _unresolved(point, x, "p1 rounds to 1")
            else:
                b, (eps_u, eps_l) = 1.0 - p1, gap_offsets_low_background(p0, p1, trials)
                predicted = min(0.5, detection_prob(peak_rate, dead_time) * trials)
            high_u = gap_bounds(triple)[1]
            half, full = _pow_log(b, 0.5 * trials), _pow_log(b, trials)
            const_u = 2.0 * half - full
            const_l = math.log1p(half) - 0.5 * math.log1p(full)
            offset = high_u - const_u
            # A difference within 2^20 ulp of const_u is rounding, not the offset:
            # rounded points sit at 1-29 ulp, the presets above 4e12 ulp.
            if abs(offset) < 2.0**20 * math.ulp(const_u):
                raise _unresolved(point, x, f"offset {offset} is within 2^20 ulp of {const_u}")
            cells = [const_l + eps_l, const_u + eps_u, offset, eps_u]
            y = abs(offset)
        rows.append([x, gap] + cells + [predicted])
        pts.append((math.log(x) if power_law else x, y))
    slope = estimate_exponential_rate(pts)
    for row in rows:
        row.insert(-1, slope if power_law else -slope)
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
    # A tau sweep repeats Wyner's capacity, an A sweep the coefficients of
    # both limits.  Each is computed once per run of equal arguments, called
    # in the per-row order and with no refusal cached, so a refused sweep
    # names the same point.
    wyner_capacity, low_A_coeffs, large_A_coeff = (
        functools.lru_cache(maxsize=1)(fn)
        for fn in (
            wyner_poisson_capacity,
            quadratic_coeffs_low_A,
            asymptotic_capacity_coeff_large_A,
        )
    )
    rows = []
    for peak, tau in points:
        t_s = sampling_interval if sampling_interval is not None else tau
        mu_star, cap = capacity_sampled(peak, background, tau, t_s)
        _, wyner = wyner_capacity(peak, background)
        if background == 0.0:
            approx_low = (tau / t_s) * peak / math.e
        else:
            _, d_tau = low_A_coeffs(background, tau)
            approx_low = d_tau * peak * peak * (tau / t_s)
        limit = large_A_coeff(background, tau) / t_s
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

    ``monte_carlo.SimConfig`` holds the settings and refuses a bad one,
    samples * dead_time > 1 included: the sampling interval is 1/samples,
    so the samples tile one symbol exactly.
    """
    config = monte_carlo.SimConfig(**settings)
    probs = detection_probs(config.peak_rate, config.background, config.dead_time)
    mi_exact = mi_binomial_mixture(config.mu, probs, config.samples)
    counts = monte_carlo.joint_counts(config)
    (p0_hat, se0), (p1_hat, se1) = monte_carlo.detection_from_counts(counts, config.samples)
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
        config.symbols,
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
    """Serialize to CSV text: UTF-8 content, LF endings, 17 significant digits.

    Each row is formatted by one %-template, "%.17g" for a float cell (as
    ``f"{value:.17g}"``) and "%s" for any other, its ``str()``, so that an
    int keeps every digit where "%.17g" would print 10**17 as 1e+17.
    """
    lines = [",".join(header)]
    for row in rows:
        template = ",".join(["%.17g" if isinstance(v, float) else "%s" for v in row])
        lines.append(template % tuple(row))
    return "\n".join(lines) + "\n"
