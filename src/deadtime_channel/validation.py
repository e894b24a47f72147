"""The acceptance suite: every headline claim as a measurable pass/fail check.

Each check pins its parameters and tolerances and returns a CheckResult
whose rows are its measurements, (label, value, op, limit) with op one of
<, <=, ==, >=.  The check passes when ``value op limit`` holds in every
row, so a NaN value fails its row; a law that must hold at every point
is a row counting the points that break it, with limit 0.  Tolerances are
fixed here, not tuned per run.
The four gap-rate checks, the four capacity-law checks (duty-cycle and
capacity limits, Poisson convergence, monotonicity), the Monte Carlo check
and ``approx-beats-bounds`` assert on the rows the CLI emits for the same
settings (experiments.run), not on a second copy of the sweeps.
``half-alpha-optimal`` reads ``optimal_alpha_grid``, the grid oracle of
the optimal Chernoff order, which lives here because no sweep calls it:
one numpy scan over all ALPHA_GRID_SIZE orders picks the grid point, and
the scalar ``chernoff_binomial`` prints its value.

Known red check: ``approx-beats-bounds`` asks the medium-SNR expansion to
beat both envelopes at >= 90% of a grid reaching peak rate 20, but the
envelopes tighten exponentially in the peak rate while the expansion's
dropped terms grow, so the crossover sits near peak rate 12 and the grid
tops out near 60%.  The check is kept faithful to the stated target and
is expected to fail; see the accuracy window documented in README.
"""

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .channel import BinaryDetectionProbs, detection_probs
from .divergences import _below_zero, beta_triple, chernoff_binomial
from .guards import check_trials
from .mutual_info import mi_binomial_mixture
from .capacity import (
    asymptotic_capacity_coeff_large_A,
    capacity_bruteforce,
    capacity_tau,
    duty_cycle_limits,
    quadratic_coeffs_low_A,
    wyner_poisson_capacity,
)
from .rate_bounds import upper_envelope
from . import experiments

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}

# Points of optimal_alpha_grid's grid on [0, 1]; odd, so that 1/2 is one.
ALPHA_GRID_SIZE = 999


@dataclass(frozen=True)
class CheckResult:
    """One check's measurements as rows of (label, value, op, limit)."""

    name: str
    rows: tuple

    @property
    def passed(self):
        return all(_OPS[op](value, limit) for _, value, op, limit in self.rows)

    def line(self):
        """``[PASS|FAIL] <name>: <label> <value> <op> <limit>; ...``"""
        cells = "; ".join(
            f"{label} {value:.4g} {op} {limit:.4g}" for label, value, op, limit in self.rows
        )
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {cells}"


def _violations(label, holds, pairs):
    """Row counting the pairs (x, y) for which ``holds(x, y)`` is false; a
    NaN makes every comparison false, so it counts as a violation."""
    return (label, sum(not holds(x, y) for x, y in pairs), "==", 0)


def check_sandwich():
    """Envelopes bracket the exact rate over 1000 seeded random tuples."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    slacks = []
    for _ in range(1000):
        lam_tau = rng.uniform(0.0, 0.1)
        a_tau = rng.uniform(1e-9, 5.0)
        trials = int(rng.integers(1, 201))
        mu = rng.uniform(1e-9, 1.0 - 1e-9)
        probs = detection_probs(a_tau, lam_tau, 1.0)
        triple = beta_triple(probs, trials)
        mi = mi_binomial_mixture(mu, probs, trials)
        slacks.append(mi - upper_envelope(mu, triple.beta, triple.beta))
        slacks.append(upper_envelope(mu, triple.beta1, triple.beta2) - mi)
    return CheckResult("sandwich-1000-tuples", (
        ("worst slack nats", float(np.min(slacks)), ">=", -1e-9),
        ("seconds", time.time() - t0, "<", 10.0),
    ))


def optimal_alpha_grid(probs: BinaryDetectionProbs, trials):
    """Argmax over the ALPHA_GRID_SIZE-point grid i / (ALPHA_GRID_SIZE - 1)
    on [0, 1] of min{C_alpha(P1||P0), C_alpha(P0||P1)}.

    Verification oracle for the closed-form optimum alpha* = 1/2: returns
    (alpha_star, value).  Degenerate p0 = p1 yields (0.5, 0.0).  numpy
    picks and libm prints: both orientations are evaluated at every order
    in one array, ``np.argmax`` takes the first largest minimum, and the
    value is the scalar ``chernoff_binomial`` pair there.  A grid value
    below 0 refuses the channel with ``_chernoff``'s message, at the first
    such order, P1||P0 before P0||P1.
    """
    p0, p1 = probs.p_off, probs.p_on
    if p0 == p1:
        return 0.5, 0.0
    check_trials(trials)
    alpha = np.arange(ALPHA_GRID_SIZE) / (ALPHA_GRID_SIZE - 1)
    # row j is C_alpha(p_a||p_b) for the j-th law pair: P1||P0, then P0||P1
    laws = ((p1, p0), (p0, p1))
    p_a, p_b = (np.array(side)[:, None] for side in zip(*laws))
    with np.errstate(divide="ignore"):  # s = 0 gives +inf
        s = p_a**alpha * p_b ** (1.0 - alpha) + (1.0 - p_a) ** alpha * (1.0 - p_b) ** (
            1.0 - alpha
        )
        pairs = -trials * np.log(s)
    below = np.argwhere(pairs.T < 0.0)  # in grid order, P1||P0 first
    if below.size:
        i, j = below[0]
        raise _below_zero(float(pairs[j, i]), float(alpha[i]), *laws[j])
    best = float(alpha[np.argmax(pairs.min(axis=0))])
    return best, min(
        chernoff_binomial(best, p1, p0, trials), chernoff_binomial(best, p0, p1, trials)
    )


def check_half_alpha_optimal():
    """Grid argmax of the min-divergence sits at alpha = 1/2."""
    rng = np.random.default_rng(2)
    offsets = []
    for _ in range(50):
        p0, p1 = np.sort(rng.uniform(0.01, 0.99, 2))
        trials = int(rng.integers(1, 101))
        alpha, _ = optimal_alpha_grid(BinaryDetectionProbs(p0, p1), trials)
        offsets.append(abs(alpha - 0.5))
    # one grid step, plus rounding
    step = 1.0 / (ALPHA_GRID_SIZE - 1)
    return CheckResult("half-alpha-optimal", (
        ("worst |alpha* - 1/2|", float(np.max(offsets)), "<=", step + 1e-12),
    ))


def _columns(command, **settings):
    """The CLI's rows of ``command`` for ``settings`` as a dict column name
    -> list of cells.  experiments.run lays the settings over the preset of
    the sweep they run and refuses a setting that sweep does not read."""
    header, rows = experiments.run(command, settings)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _rate_error(cols):
    return abs(cols["fitted_rate"][0] / cols["predicted_rate"][0] - 1.0)


def check_large_L_rate():
    """Gap decays in L at the Bhattacharyya rate (both published peak rates)."""
    return CheckResult("large-L-gap-rate", tuple(
        (f"rate rel error at A={peak:g}",
         _rate_error(_columns("gap", scenario="large-L", peak_rate=peak)), "<=", 0.02)
        for peak in (5.0, 10.0)
    ))


def check_zero_background_rate():
    """Zero-background gap: rate L*tau/2 and leading-constant bracket."""
    cols = _columns("gap", scenario="zero-lambda")
    ratios = [
        gap / lead for gap, lead in zip(cols["gap_numeric"], cols["gap_lower_formula"])
    ]
    return CheckResult("zero-background-gap-rate", (
        ("rate rel error", _rate_error(cols), "<=", 0.02),
        ("min gap/leading", float(np.min(ratios)), ">=", 0.9),
        ("max gap/leading", float(np.max(ratios)), "<=", 2.1),
    ))


def check_low_A_quadratic():
    """Gap is quadratic in low peak rate with the stated coefficient."""
    rows = []
    for trials in (10, 20):
        cols = _columns("gap", scenario="low-A", samples=trials)
        i = cols["x"].index(1e-3)
        rel = abs(cols["offset_numeric"][i] / cols["offset_formula"][i] - 1.0)
        rows.append((f"coeff rel error at L={trials}", rel, "<=", 0.01))
    return CheckResult("low-A-quadratic-gap", tuple(rows))


def check_offset_rates():
    """Offset terms of the gap bounds decay at the stated rates.

    Large peak rate: exponential rate min(1/2, (1-p0)L) * tau in the peak
    rate.  Low background: the offset follows a power law in the
    background rate; the fitted exponent must match min(1/2, p(A) L), with
    p(A) = 1 - exp(-A tau) the limit of p1 as the background goes to 0.
    """
    return CheckResult("gap-offset-rates", tuple(
        (label, _rate_error(_columns("gap", scenario=scenario)), "<=", 0.05)
        for label, scenario in (
            ("large-peak rate rel error", "large-A"),
            ("low-background exponent rel error", "low-lambda"),
        )
    ))


def check_capacity_vs_bruteforce():
    """Closed-form capacity and duty cycle agree with the scalar optimizer."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    cap_errs, mu_errs = [], []
    for _ in range(200):
        a_tau = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        lam_tau = rng.uniform(0.0, 2.0)
        mu_closed, cap_closed = capacity_tau(a_tau, lam_tau, 1.0)
        mu_brute, cap_brute = capacity_bruteforce(a_tau, lam_tau, 1.0)
        cap_errs.append(abs(cap_closed - cap_brute) / (1.0 + cap_closed))
        mu_errs.append(abs(mu_closed - mu_brute))
    return CheckResult("capacity-closed-vs-bruteforce", (
        ("worst rel capacity error", float(np.max(cap_errs)), "<=", 1e-8),
        ("worst duty cycle error", float(np.max(mu_errs)), "<=", 1e-6),
        ("seconds", time.time() - t0, "<", 5.0),
    ))


def _limit_columns(background):
    """The CLI's capacity rows at dead time 1 for peak rates 1e-6 and 1e4."""
    return _columns(
        "capacity", background=background, dead_time=1.0, a_grid="log:1e-6,1e4,2"
    )


def check_duty_cycle_limits():
    """Extreme-peak-rate duty cycles hit their four closed-form limits."""
    mu0 = _limit_columns(0.0)["mu_star"]
    mu_bg = _limit_columns(0.5)["mu_star"]
    limits = duty_cycle_limits(0.5, 1.0)
    cases = (
        ("low-A zero-background", "low_peak_zero_background"),
        ("high-A zero-background", "high_peak_zero_background"),
        ("low-A background", "low_peak_with_background"),
        ("high-A background", "high_peak_with_background"),
    )
    return CheckResult("duty-cycle-limits", tuple(
        (f"{case} mu* error", abs(mu - limits[key]), "<=", 1e-3)
        for (case, key), mu in zip(cases, mu0 + mu_bg)
    ))


def check_capacity_limits():
    """Capacity limits: ln2/tau saturation, A/e low-rate slope, c/tau with bg."""
    zero, bg = _limit_columns(0.0), _limit_columns(0.5)
    errors = (
        ("saturation error", abs(zero["capacity_nats"][1] - zero["limit_large_A"][1])),
        ("low-rate slope rel error",
         abs(zero["capacity_nats"][0] / zero["approx_low_A"][0] - 1.0)),
        ("background saturation error",
         abs(bg["capacity_nats"][1] - bg["limit_large_A"][1])),
    )
    return CheckResult("capacity-limits", tuple(
        (label, err, "<=", 1e-3) for label, err in errors
    ))


def check_poisson_convergence():
    """Capacity and optimal duty cycle converge to the continuous Poisson
    channel's (Wyner's C and q*) as tau -> 0."""
    cols = _columns(
        "capacity", peak_rate=1.0, background=0.1, tau_grid="log:1e-4,1e-2,3"
    )
    q_star, _ = wyner_poisson_capacity(1.0, 0.1)
    rels = [
        abs(cap - c_poi) / c_poi
        for cap, c_poi in zip(cols["capacity_nats"], cols["wyner_capacity"])
    ][::-1]
    return CheckResult("continuous-poisson-convergence", (
        _violations(
            "steps where the rel gap does not fall with tau", operator.gt,
            zip(rels, rels[1:]),
        ),
        ("rel gap at the smallest tau", rels[-1], "<=", 0.01),
        ("|mu* - q*| at the smallest tau", abs(cols["mu_star"][0] - q_star), "<=", 1e-3),
    ))


def check_quadratic_coefficients():
    """Low-peak-rate quadratic coefficients of both channels."""
    _, c_poi = wyner_poisson_capacity(1e-3, 1.0)
    d_poi, d_tau = quadratic_coeffs_low_A(1.0, 1e-3)
    return CheckResult("low-A-capacity-coefficients", (
        ("poisson coeff rel error", abs(c_poi / 1e-6 / d_poi - 1.0), "<=", 0.01),
        _violations(
            "taus with d_tau >= d_poi", operator.gt,
            (quadratic_coeffs_low_A(1.0, tau) for tau in (1.0, 0.1, 0.01)),
        ),
        ("d_tau/d_poi rel error", abs(d_tau / d_poi - 1.0), "<=", 1e-3),
    ))


def check_saturation_coefficient():
    """Saturation coefficient: exact ln2 at zero background, decreasing, small."""
    grid = [asymptotic_capacity_coeff_large_A(x, 1.0) for x in np.arange(0, 5.01, 0.1)]
    return CheckResult("saturation-coefficient", (
        _violations(
            "c(0) != ln2", operator.eq,
            [(asymptotic_capacity_coeff_large_A(0.0, 1.0), math.log(2.0))],
        ),
        _violations("steps where c does not fall", operator.gt, zip(grid, grid[1:])),
        ("c(20)", asymptotic_capacity_coeff_large_A(20.0, 1.0), "<", 1e-2),
    ))


def check_monotonicity():
    """Monotonicity of capacity in peak rate and dead time."""
    at_background = {"background": 1.0, "dead_time": 0.02}
    caps = _columns(
        "capacity", a_grid="log:0.05,1250,100", **at_background
    )["capacity_nats"]
    high = _columns("capacity", a_grid="log:500,50000,50", **at_background)
    per_power = [c / a for c, a in zip(high["capacity_nats"], high["A"])]
    fixed_ts = _columns(
        "capacity", peak_rate=1.0, background=1.0, sampling_interval=1.0,
        tau_grid="lin:0.6931471805599453,1,30",
    )["capacity_nats"]
    zero_bg = _columns(
        "capacity", peak_rate=100.0, background=0.0, tau_grid="lin:0.1,1,30"
    )["capacity_nats"]
    laws = (
        ("steps where C does not rise in A", operator.lt, caps),
        ("steps where C/A does not fall", operator.gt, per_power),
        ("steps where C does not rise in tau at fixed T_s", operator.lt, fixed_ts),
        ("steps where C does not fall in tau at zero background", operator.gt, zero_bg),
    )
    return CheckResult("capacity-monotonicity", tuple(
        _violations(label, holds, zip(values, values[1:])) for label, holds, values in laws
    ))


def check_monte_carlo():
    """The CLI's simulate row for its preset: |z| < 3, and reruns identically."""
    t0 = time.time()
    cols = _columns("simulate")
    rerun = _columns("simulate")
    z_rows = tuple((f"|{z}|", abs(cols[z][0]), "<", 3.0) for z in ("z_p0", "z_p1", "z_mi"))
    return CheckResult("monte-carlo-validation", z_rows + (
        _violations("reruns that differ", operator.eq, [(cols, rerun)]),
        ("seconds", time.time() - t0, "<", 30.0),
    ))


def check_approximation_accuracy():
    """Expansion beats both envelopes at >= 90% of the published-setup grid.

    The grid is the CLI's ``mi-sweep`` at its published preset with the
    peak rate set to each of 2, 4, ..., 20 and 9 duty cycles in [0.3, 0.7].
    Known to fail as specified: the win region ends near peak rate 12 on
    this grid, so the observed share is near 60%.
    """
    wins = total = 0
    for peak in np.linspace(2.0, 20.0, 10):
        cols = _columns("mi-sweep", peak_rate=peak, mu_grid="lin:0.3,0.7,9")
        names = ("exact_mi", "approx", "lower_sub", "upper")
        for exact, approx, lo, hi in zip(*(cols[name] for name in names)):
            total += 1
            if abs(approx - exact) < min(abs(lo - exact), abs(hi - exact)):
                wins += 1
    return CheckResult("approx-beats-bounds", (
        (f"share of {total} points won", wins / total, ">=", 0.9),
    ))


ALL_CHECKS = [
    check_sandwich,
    check_half_alpha_optimal,
    check_large_L_rate,
    check_zero_background_rate,
    check_low_A_quadratic,
    check_offset_rates,
    check_capacity_vs_bruteforce,
    check_duty_cycle_limits,
    check_capacity_limits,
    check_poisson_convergence,
    check_quadratic_coefficients,
    check_saturation_coefficient,
    check_monotonicity,
    check_monte_carlo,
    check_approximation_accuracy,
]

# Checks that fail by design of their stated target (see module docstring).
EXPECTED_FAILURES = {"approx-beats-bounds"}


def run_all():
    """Run every acceptance check; returns (CheckResult, runtime_s) per check."""
    runs = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        runs.append((result, time.perf_counter() - t0))
    return runs
