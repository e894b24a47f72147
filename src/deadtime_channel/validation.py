"""The acceptance suite: every headline claim as a measurable pass/fail check.

Each check pins its parameters and tolerance and returns a CheckResult;
the CLI ``validate`` command prints one line per check and the test suite
asserts each one.  Tolerances are fixed here, not tuned per run.  The four
gap-rate checks, the Monte Carlo check and ``approx-beats-bounds`` assert
on the rows the CLI emits for the same settings (experiments.run), not on
a second copy of the sweeps.

Known red check: ``approx-beats-bounds`` asks the medium-SNR expansion to
beat both envelopes at >= 90% of a grid reaching peak rate 20, but the
envelopes tighten exponentially in the peak rate while the expansion's
dropped terms grow, so the crossover sits near peak rate 12 and the grid
tops out near 60%.  The check is kept faithful to the stated target and
is expected to fail; see the accuracy window documented in README.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import BinaryDetectionProbs, detection_probs
from .divergences import beta_triple, optimal_alpha_grid
from .mutual_info import mi_binomial_mixture
from .capacity import (
    asymptotic_capacity_coeff_large_A,
    capacity_bruteforce,
    capacity_sampled,
    capacity_tau,
    duty_cycle_limits,
    optimal_duty_cycle,
    quadratic_coeffs_low_A,
    wyner_poisson_capacity,
)
from .rate_bounds import upper_envelope
from . import experiments


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def check_sandwich():
    """Envelopes bracket the exact rate over 1000 seeded random tuples."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = math.inf
    for _ in range(1000):
        lam_tau = rng.uniform(0.0, 0.1)
        a_tau = rng.uniform(1e-9, 5.0)
        trials = int(rng.integers(1, 201))
        mu = rng.uniform(1e-9, 1.0 - 1e-9)
        probs = detection_probs(a_tau, lam_tau, 1.0)
        triple = beta_triple(probs, trials)
        mi = mi_binomial_mixture(mu, probs, trials)
        worst = min(
            worst,
            mi - upper_envelope(mu, triple.beta, triple.beta),
            upper_envelope(mu, triple.beta1, triple.beta2) - mi,
        )
    elapsed = time.time() - t0
    return CheckResult(
        "sandwich-1000-tuples",
        bool(worst >= -1e-9) and elapsed < 10.0,
        f"worst slack {worst:.3e} nats, {elapsed:.2f}s (limit 10s)",
    )


def check_half_alpha_optimal():
    """Grid argmax of the min-divergence sits at alpha = 1/2."""
    rng = np.random.default_rng(2)
    grid = 999
    step = 1.0 / (grid - 1)
    worst = 0.0
    for _ in range(50):
        p0, p1 = np.sort(rng.uniform(0.01, 0.99, 2))
        if p1 - p0 < 1e-3:
            p1 = min(0.99, p0 + 1e-2)
        trials = int(rng.integers(1, 101))
        alpha, _ = optimal_alpha_grid(BinaryDetectionProbs(p0, p1), trials, grid)
        worst = max(worst, abs(alpha - 0.5))
    return CheckResult(
        "half-alpha-optimal",
        worst <= step + 1e-12,
        f"worst |alpha*-1/2| = {worst:.3e} (one grid step = {step:.3e})",
    )


def _columns(command, **settings):
    """The CLI's rows of ``command`` for ``settings`` over its default
    preset, as a dict column name -> list of cells."""
    header, rows = experiments.run(command, settings)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _rate_error(cols):
    return abs(cols["fitted_rate"][0] / cols["predicted_rate"][0] - 1.0)


def check_large_L_rate():
    """Gap decays in L at the Bhattacharyya rate (both published peak rates)."""
    rels = [
        _rate_error(_columns("gap", scenario="large-L", peak_rate=peak))
        for peak in (5.0, 10.0)
    ]
    return CheckResult(
        "large-L-gap-rate",
        max(rels) <= 0.02,
        f"rate rel errors {rels[0]:.4f}, {rels[1]:.4f} (limit 0.02)",
    )


def check_zero_background_rate():
    """Zero-background gap: rate L*tau/2 and leading-constant bracket."""
    cols = _columns("gap", scenario="zero-lambda")
    rel = _rate_error(cols)
    ratios = [
        gap / lead for gap, lead in zip(cols["gap_numeric"], cols["gap_lower_formula"])
    ]
    in_bracket = all(0.9 <= r <= 2.1 for r in ratios)
    return CheckResult(
        "zero-background-gap-rate",
        rel <= 0.02 and in_bracket,
        f"rate rel {rel:.2e} (limit 0.02); gap/leading in "
        f"[{min(ratios):.4f}, {max(ratios):.4f}] (need [0.9, 2.1])",
    )


def check_low_A_quadratic():
    """Gap is quadratic in low peak rate with the stated coefficient."""
    rels = []
    for trials in (10, 20):
        cols = _columns("gap", scenario="low-A", samples=trials)
        i = cols["x"].index(1e-3)
        rels.append(abs(cols["offset_numeric"][i] / cols["offset_formula"][i] - 1.0))
    return CheckResult(
        "low-A-quadratic-gap",
        max(rels) <= 0.01,
        f"coeff rel errors {rels[0]:.2e}, {rels[1]:.2e} (limit 0.01)",
    )


def check_offset_rates():
    """Offset terms of the gap bounds decay at the stated rates.

    Large peak rate: exponential rate min(1/2, (1-p0)L) * tau in the peak
    rate.  Low background: the offset follows a power law in the
    background rate; the fitted exponent must match min(1/2, p1 L).
    """
    rel_a = _rate_error(_columns("gap", scenario="large-A"))
    rel_l = _rate_error(_columns("gap", scenario="low-lambda"))
    return CheckResult(
        "gap-offset-rates",
        rel_a <= 0.05 and rel_l <= 0.05,
        f"large-peak rate rel {rel_a:.2e}, low-background exponent rel "
        f"{rel_l:.2e} (limit 0.05)",
    )


def check_capacity_vs_bruteforce():
    """Closed-form capacity and duty cycle agree with the scalar optimizer."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_cap, worst_mu = 0.0, 0.0
    for _ in range(200):
        a_tau = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        lam_tau = rng.uniform(0.0, 2.0)
        closed = capacity_tau(a_tau, lam_tau, 1.0)
        brute = capacity_bruteforce(a_tau, lam_tau, 1.0)
        worst_cap = max(
            worst_cap,
            abs(closed.capacity_nats_per_time - brute.capacity_nats_per_time)
            / (1.0 + closed.capacity_nats_per_time),
        )
        worst_mu = max(worst_mu, abs(closed.duty_cycle - brute.duty_cycle))
    elapsed = time.time() - t0
    return CheckResult(
        "capacity-closed-vs-bruteforce",
        worst_cap <= 1e-8 and worst_mu <= 1e-6 and elapsed < 5.0,
        f"worst rel capacity {worst_cap:.2e} (limit 1e-8), worst duty "
        f"cycle {worst_mu:.2e} (limit 1e-6), {elapsed:.2f}s (limit 5s)",
    )


def check_duty_cycle_limits():
    """Extreme-peak-rate duty cycles hit their four closed-form limits."""
    table = duty_cycle_limits(0.5, 1.0)
    errs = [
        abs(optimal_duty_cycle(1e-6, 0.0, 1.0)[0] - 1.0 / math.e),
        abs(optimal_duty_cycle(1e4, 0.0, 1.0)[0] - 0.5),
        abs(optimal_duty_cycle(1e-6, 0.5, 1.0)[0] - 0.5),
        abs(
            optimal_duty_cycle(1e4, 0.5, 1.0)[0]
            - table["high_peak_with_background"]
        ),
    ]
    return CheckResult(
        "duty-cycle-limits",
        max(errs) <= 1e-3,
        "errors " + ", ".join(f"{e:.2e}" for e in errs) + " (limit 1e-3)",
    )


def check_capacity_limits():
    """Capacity limits: ln2/tau saturation, A/e low-rate slope, c/tau with bg."""
    err_hi = abs(capacity_tau(1e4, 0.0, 1.0).capacity_nats_per_time - math.log(2.0))
    err_lo = abs(
        capacity_tau(1e-6, 0.0, 1.0).capacity_nats_per_time / (1e-6 / math.e) - 1.0
    )
    err_bg = abs(
        capacity_tau(1e4, 0.5, 1.0).capacity_nats_per_time
        - asymptotic_capacity_coeff_large_A(0.5, 1.0)
    )
    return CheckResult(
        "capacity-limits",
        max(err_hi, err_lo, err_bg) <= 1e-3,
        f"saturation {err_hi:.2e}, low-rate slope {err_lo:.2e}, "
        f"background saturation {err_bg:.2e} (limit 1e-3)",
    )


def check_poisson_convergence():
    """Capacity converges to the continuous Poisson value as tau -> 0."""
    _, c_poi = wyner_poisson_capacity(1.0, 0.1)
    rels = [
        abs(capacity_tau(1.0, 0.1, tau).capacity_nats_per_time - c_poi) / c_poi
        for tau in (1e-2, 1e-3, 1e-4)
    ]
    return CheckResult(
        "continuous-poisson-convergence",
        rels[0] > rels[1] > rels[2] and rels[2] <= 0.01,
        f"rel gaps {rels[0]:.2e} > {rels[1]:.2e} > {rels[2]:.2e}, final <= 1%",
    )


def check_quadratic_coefficients():
    """Low-peak-rate quadratic coefficients of both channels."""
    _, c_poi = wyner_poisson_capacity(1e-3, 1.0)
    err_poi = abs(c_poi / 1e-6 / 0.125 - 1.0)
    ordering = all(
        quadratic_coeffs_low_A(1.0, tau)[1] < quadratic_coeffs_low_A(1.0, tau)[0]
        for tau in (1.0, 0.1, 0.01)
    )
    d_poi, d_tau = quadratic_coeffs_low_A(1.0, 1e-3)
    err_ratio = abs(d_tau / d_poi - 1.0)
    return CheckResult(
        "low-A-capacity-coefficients",
        err_poi <= 0.01 and ordering and err_ratio <= 1e-3,
        f"poisson coeff rel {err_poi:.2e} (limit 0.01), d_tau < d_poi "
        f"{ordering}, ratio err {err_ratio:.2e} (limit 1e-3)",
    )


def check_saturation_coefficient():
    """Saturation coefficient: exact ln2 at zero background, decreasing, small."""
    exact = asymptotic_capacity_coeff_large_A(0.0, 1.0) == math.log(2.0)
    grid = [asymptotic_capacity_coeff_large_A(x, 1.0) for x in np.arange(0, 5.01, 0.1)]
    decreasing = all(a > b for a, b in zip(grid, grid[1:]))
    tail = asymptotic_capacity_coeff_large_A(20.0, 1.0)
    return CheckResult(
        "saturation-coefficient",
        exact and decreasing and tail < 1e-2,
        f"c(0)==ln2 {exact}, strictly decreasing {decreasing}, "
        f"c(20) = {tail:.2e} (< 1e-2)",
    )


def check_monotonicity():
    """Monotonicity of capacity in peak rate and dead time."""
    tau, lam0 = 0.02, 1.0
    caps = [
        capacity_tau(a / tau, lam0, tau).capacity_nats_per_time
        for a in np.geomspace(1e-3, 25.0, 100)
    ]
    inc_a = all(x < y for x, y in zip(caps, caps[1:]))
    per_power = [
        capacity_tau(a / tau, lam0, tau).capacity_nats_per_time / (a / tau)
        for a in np.geomspace(10.0, 1000.0, 50)
    ]
    dec_per_power = all(x > y for x, y in zip(per_power, per_power[1:]))
    lam0, t_s, peak = 1.0, 1.0, 1.0
    fixed_ts = [
        capacity_sampled(peak, lam0, tau_i, t_s).capacity_nats_per_time
        for tau_i in np.linspace(math.log(2.0) / lam0, t_s, 30)
    ]
    inc_tau = all(x < y for x, y in zip(fixed_ts, fixed_ts[1:]))
    zero_bg = [
        capacity_tau(100.0, 0.0, tau_i).capacity_nats_per_time
        for tau_i in np.linspace(0.1, 1.0, 30)
    ]
    dec_tau = all(x > y for x, y in zip(zero_bg, zero_bg[1:]))
    return CheckResult(
        "capacity-monotonicity",
        inc_a and dec_per_power and inc_tau and dec_tau,
        f"increasing in A {inc_a}; C/A decreasing {dec_per_power}; "
        f"increasing in tau at fixed T_s {inc_tau}; decreasing in tau at "
        f"zero background {dec_tau}",
    )


def check_monte_carlo():
    """The CLI's simulate row for its preset: |z| < 3, and reruns identically."""
    t0 = time.time()
    cols = _columns("simulate")
    reproducible = cols == _columns("simulate")
    z0, z1, z_mi = (cols[z][0] for z in ("z_p0", "z_p1", "z_mi"))
    elapsed = time.time() - t0
    return CheckResult(
        "monte-carlo-validation",
        bool(max(abs(z0), abs(z1), abs(z_mi)) < 3.0) and reproducible and elapsed < 30.0,
        f"z-scores p0 {z0:+.2f}, p1 {z1:+.2f}, MI {z_mi:+.2f} (|z| < 3); "
        f"rerun identical {reproducible}; {elapsed:.1f}s (limit 30s)",
    )


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
    share = wins / total
    return CheckResult(
        "approx-beats-bounds",
        share >= 0.9,
        f"approximation wins at {wins}/{total} = {share:.0%} (target 90%)",
    )


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
    """Run every acceptance check; returns the list of CheckResult."""
    return [check() for check in ALL_CHECKS]
