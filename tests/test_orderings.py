"""The orderings the paper proves hold on every row a sweep prints.

Derandomized ``hypothesis`` draws run ``experiments.run``, the function
behind the CLI: L from 1 to 300; the peak rate, the dead time and the
background (zero in a fifth of the draws) log-uniform; grids of a few
points.  A run that is refused prints no row and is skipped.  Every row of
every other run must keep each ordering up to one relative slack,
``SLACK``, written once here and never widened per case:

- ``mi-sweep``: lower <= exact_mi <= upper; exact_mi <= poisson_benchmark;
  0 <= exact_mi <= min(ln 2, h_b(mu));
- ``duty-imax``: imax_lower <= imax_exact <= imax_upper <= ln 2; mu_exact
  and mu_upper in [0, 1];
- ``capacity``, over a peak-rate grid or a dead-time grid: capacity_nats
  <= wyner_capacity (the dead-time receiver sees a function of the
  arrivals); capacity_nats <= limit_large_A; mu_star in [0, 1];
- ``capacity`` monotonicity, over grids whose neighbouring points are at
  least 1% apart: capacity_nats rises in A and capacity_nats / A falls; at
  a fixed sampling interval capacity_nats rises in the dead time, and at
  zero background and critical sampling it falls, each in the range where
  the law holds (see GRID_RATIO);
- ``gap``, each of the five scenarios over its own grid of three to five
  points: gap_numeric finite and > 0; at large L, gap_lower_formula <=
  gap_numeric <= gap_upper_formula (the general lower and the high-SNR
  upper bound).

The Poisson benchmark bounds the exact rate only where the sampling
interval 1/L is at least the dead time: the photon count is then a
sufficient statistic for the symbol, and the dead-time receiver sees a
function of the arrivals.  Shorter intervals overlap their dead-time
windows, which the binomial model does not describe.

Today's arithmetic resolves these orderings only between the two ends of
the channel's range, so the draws keep the Bhattacharyya coefficient beta =
(sqrt(p0 p1) + sqrt(q0 q1))^L in [BETA_MIN, BETA_MAX] and the interior
duty cycles in [MU_MIN, 1 - MU_MIN].  The capacity draws keep each
point's A tau at least A_TAU_MIN and its on-level exponent (A +
background) tau at most SATURATION, and the large-L gap draws keep beta
in [GAP_BETA_MIN, GAP_BETA_MAX] at every L.  The known violations,
outside those ranges and of the two orderings left out above (exact_mi
<= upper_sub and lower_sub <= lower), are strict xfails, one test
function each, naming the ROADMAP item that mends them; each turns into
a failure when its item lands.
"""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from deadtime_channel import (
    NumericalFailure,
    ParameterError,
    beta_triple,
    binary_entropy,
    experiments,
)
from deadtime_channel.channel import detection_probs

# 16 ulp relative to the larger side of each comparison
SLACK = 16 * sys.float_info.epsilon
LN2 = math.log(2.0)

# below BETA_MIN the exact MI lies within its own rounding of ln 2 or
# h_b(mu); above BETA_MAX (weak signal) the envelopes lose their digits to
# cancellation (ROADMAP items 3 and 17)
BETA_MIN, BETA_MAX = 1e-6, 1.0 - 1e-6
# below MU_MIN the exact MI is within its rounding of 0 (item 3)
MU_MIN = 1e-3
# a large-L gap is about beta at strong signal, and below GAP_BETA_MIN it
# nears the subnormal range, which gap_rows refuses; above GAP_BETA_MAX
# the general lower bound on the gap lies within the rounding of the gap
# and of the bound, each computed from betas near 1 (item 17)
GAP_BETA_MIN, GAP_BETA_MAX = 1e-300, 1.0 - 1e-3
# below A_TAU_MIN a weak signal's capacity rounds above Wyner's (item 2);
# above SATURATION the on-level q1 = exp(-(A + background) tau) is below
# 2**-53, lost beside 1, and the capacity rounds above its limit (item 2)
A_TAU_MIN, SATURATION = 1e-7, 53 * math.log(2.0)

EXAMPLES = 500


def _le(a, b):
    return a <= b + SLACK * max(abs(a), abs(b))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _grid(kind, endpoint, counts=st.integers(1, 4)):
    return st.builds(
        lambda a, b, count: f"{kind}:{min(a, b)!r},{max(a, b)!r},{count}",
        endpoint, endpoint, counts,
    )


def _resolved(sweep, peak_rates):
    """Whether every channel of ``sweep`` at ``peak_rates`` lies in the
    resolved range of beta."""
    for peak in peak_rates:
        probs = detection_probs(peak, sweep["background"], sweep["dead_time"])
        try:
            beta = beta_triple(probs, sweep["samples"]).beta
        except NumericalFailure:
            return False
        if not BETA_MIN <= beta <= BETA_MAX:
            return False
    return True


_CHANNEL = {
    "background": st.one_of(st.just(0.0), _log_uniform(1e-6, 1e2)),
    "dead_time": _log_uniform(1e-4, 0.3),
    "samples": st.integers(1, 300),
}
_MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(MU_MIN, 1.0 - MU_MIN))

MI_SWEEPS = st.fixed_dictionaries(
    {**_CHANNEL, "peak_rate": _log_uniform(1e-4, 1e3), "mu_grid": _grid("lin", _MU)}
).filter(lambda sweep: _resolved(sweep, [sweep["peak_rate"]]))
DUTY_SWEEPS = st.fixed_dictionaries(
    {**_CHANNEL, "a_grid": _grid("log", _log_uniform(1e-4, 1e3))}
).filter(lambda sweep: _resolved(sweep, experiments.parse_grid(sweep["a_grid"])))


def _capacity_resolved(peak_rates, dead_times, background):
    """Whether every (A, tau) point lies between the weak-signal and the
    saturated end of the capacity's resolved range."""
    return all(
        A_TAU_MIN <= peak * tau and (peak + background) * tau <= SATURATION
        for peak in peak_rates
        for tau in dead_times
    )


_CAPACITY_A_SWEEPS = st.fixed_dictionaries(
    {
        "background": _CHANNEL["background"],
        "dead_time": _CHANNEL["dead_time"],
        "a_grid": _grid("log", _log_uniform(1e-4, 1e3)),
    }
).filter(
    lambda sweep: _capacity_resolved(
        experiments.parse_grid(sweep["a_grid"]), [sweep["dead_time"]], sweep["background"]
    )
)
_CAPACITY_TAU_SWEEPS = st.fixed_dictionaries(
    {
        "peak_rate": _log_uniform(1e-4, 1e3),
        "background": _CHANNEL["background"],
        "tau_grid": _grid("log", _CHANNEL["dead_time"]),
    }
).filter(
    lambda sweep: _capacity_resolved(
        [sweep["peak_rate"]], experiments.parse_grid(sweep["tau_grid"]), sweep["background"]
    )
)
CAPACITY_SWEEPS = st.one_of(_CAPACITY_A_SWEEPS, _CAPACITY_TAU_SWEEPS)

# a rate fit needs three points
_GAP_COUNTS = st.integers(3, 5)
_GAP_RATES = _grid("log", _log_uniform(1e-4, 1e3), _GAP_COUNTS)
_L_GRID = st.builds(
    # integer endpoints and step, so that every grid value is an integer
    lambda first, step, count: f"lin:{first},{first + step * (count - 1)},{count}",
    st.integers(1, 300), st.integers(1, 50), _GAP_COUNTS,
)
_POSITIVE_BACKGROUND = _log_uniform(1e-6, 1e2)


def _gap_resolved(sweep):
    """Whether beta lies in [GAP_BETA_MIN, GAP_BETA_MAX] at every L of a
    large-L sweep."""
    probs = detection_probs(sweep["peak_rate"], sweep["background"], sweep["dead_time"])
    for samples in experiments.parse_grid(sweep["l_grid"]):
        try:
            beta = beta_triple(probs, samples).beta
        except NumericalFailure:
            return False
        if not GAP_BETA_MIN <= beta <= GAP_BETA_MAX:
            return False
    return True


GAP_SWEEPS = st.one_of(
    st.fixed_dictionaries({
        "scenario": st.just("large-L"), "peak_rate": _log_uniform(1e-4, 1e3),
        "background": _CHANNEL["background"], "dead_time": _CHANNEL["dead_time"],
        "l_grid": _L_GRID,
    }).filter(_gap_resolved),
    st.fixed_dictionaries({
        "scenario": st.just("large-A"), "background": _POSITIVE_BACKGROUND,
        "dead_time": _CHANNEL["dead_time"], "samples": _CHANNEL["samples"],
        "a_grid": _GAP_RATES,
    }),
    st.fixed_dictionaries({
        "scenario": st.just("low-lambda"), "peak_rate": _log_uniform(1e-4, 1e3),
        "dead_time": _CHANNEL["dead_time"], "samples": _CHANNEL["samples"],
        "lambda_grid": _grid("log", _POSITIVE_BACKGROUND, _GAP_COUNTS),
    }),
    st.fixed_dictionaries({
        "scenario": st.just("zero-lambda"), "dead_time": _CHANNEL["dead_time"],
        "samples": _CHANNEL["samples"], "a_grid": _GAP_RATES,
    }),
    st.fixed_dictionaries({
        "scenario": st.just("low-A"), "background": _POSITIVE_BACKGROUND,
        "dead_time": _CHANNEL["dead_time"], "samples": _CHANNEL["samples"],
        "a_grid": _GAP_RATES,
    }),
)


def _rows(command, sweep):
    """The rows of ``command`` as dicts by column, or [] if it is refused."""
    try:
        header, rows = experiments.run(command, sweep)
    except (ParameterError, NumericalFailure):
        return []
    return [dict(zip(header, row)) for row in rows]


def _poisson_bounds(sweep):
    """Whether the sweep samples no faster than its dead time, 1/L >= tau."""
    settings = {**experiments.PRESETS["mi-sweep"]["published"], **sweep}
    return settings["dead_time"] <= 1.0 / settings["samples"]


def mi_sweep_violations(row, sweep):
    mu, exact = row["mu"], row["exact_mi"]
    orderings = {
        "lower <= exact_mi": _le(row["lower"], exact),
        "exact_mi <= upper": _le(exact, row["upper"]),
        "exact_mi <= poisson_benchmark": (
            not _poisson_bounds(sweep) or _le(exact, row["poisson_benchmark"])
        ),
        "0 <= exact_mi": _le(0.0, exact),
        "exact_mi <= ln 2": _le(exact, LN2),
        "exact_mi <= h_b(mu)": _le(exact, binary_entropy(mu)),
    }
    return [name for name, holds in orderings.items() if not holds]


def duty_imax_violations(row):
    orderings = {
        "imax_lower <= imax_exact": _le(row["imax_lower"], row["imax_exact"]),
        "imax_exact <= imax_upper": _le(row["imax_exact"], row["imax_upper"]),
        "imax_upper <= ln 2": _le(row["imax_upper"], LN2),
        "mu_exact in [0, 1]": 0.0 <= row["mu_exact"] <= 1.0,
        "mu_upper in [0, 1]": 0.0 <= row["mu_upper"] <= 1.0,
    }
    return [name for name, holds in orderings.items() if not holds]


def gap_violations(row, scenario):
    gap = row["gap_numeric"]
    orderings = {"gap_numeric finite and > 0": math.isfinite(gap) and gap > 0.0}
    if scenario == "large-L":
        orderings["gap_lower_formula <= gap_numeric"] = _le(row["gap_lower_formula"], gap)
        orderings["gap_numeric <= gap_upper_formula"] = _le(gap, row["gap_upper_formula"])
    return [name for name, holds in orderings.items() if not holds]


def capacity_violations(row):
    cap = row["capacity_nats"]
    orderings = {
        "capacity_nats <= wyner_capacity": _le(cap, row["wyner_capacity"]),
        "capacity_nats <= limit_large_A": _le(cap, row["limit_large_A"]),
        "mu_star in [0, 1]": 0.0 <= row["mu_star"] <= 1.0,
    }
    return [name for name, holds in orderings.items() if not holds]


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(MI_SWEEPS)
def test_mi_sweep_rows_keep_the_orderings(sweep):
    for row in _rows("mi-sweep", sweep):
        assert mi_sweep_violations(row, sweep) == [], (sweep, row)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(DUTY_SWEEPS)
def test_duty_imax_rows_keep_the_orderings(sweep):
    for row in _rows("duty-imax", sweep):
        assert duty_imax_violations(row) == [], (sweep, row)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(CAPACITY_SWEEPS)
def test_capacity_rows_keep_the_orderings(sweep):
    for row in _rows("capacity", sweep):
        assert capacity_violations(row) == [], (sweep, row)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(GAP_SWEEPS)
def test_gap_rows_keep_the_orderings(sweep):
    for row in _rows("gap", sweep):
        assert gap_violations(row, sweep["scenario"]) == [], (sweep, row)


# The capacity monotonicity laws, validation's capacity-monotonicity check
# at random channels: C rises in A and C/A falls, at critical sampling; C
# rises in tau at a fixed sampling interval T_s; C falls in tau at zero
# background and T_s = tau.  The draws keep A_TAU_MIN and SATURATION, and
# neighbouring grid points at least GRID_RATIO apart, so that a law's step
# exceeds the capacity's rounding.  At zero background the steps of C/A and
# of C in tau are only O(A tau) relative, so those two are checked from
# WEAK_STEP_A_TAU on (below it, a strict xfail).  With background, C ~ A^2 at
# weak signal, and over the drawn channels C/A peaks below A tau = 2.3 and
# F = C T_s peaks in tau above (A + background) tau = 1.5: C/A is checked
# from PER_PHOTON_A_TAU on, and C in tau up to FIXED_TS_EXPONENT.
GRID_RATIO = 1.01
WEAK_STEP_A_TAU, PER_PHOTON_A_TAU, FIXED_TS_EXPONENT = 1e-6, 3.0, 1.0


def _spaced(grid):
    return all(b >= GRID_RATIO * a for a, b in zip(grid, grid[1:]))


_MONOTONE_A_SWEEPS = _CAPACITY_A_SWEEPS.filter(
    lambda sweep: _spaced(experiments.parse_grid(sweep["a_grid"]))
)


def _monotone_tau_sweep(sweep, taus):
    sampling = sweep["sampling_interval"]
    return (
        _capacity_resolved([sweep["peak_rate"]], taus, sweep["background"])
        and _spaced(taus)
        and (sweep["background"] == 0.0 if sampling is None else sampling >= taus[-1])
    )


_MONOTONE_TAU_SWEEPS = st.fixed_dictionaries(
    {
        "peak_rate": _log_uniform(1e-4, 1e3),
        "background": _CHANNEL["background"],
        "tau_grid": _grid("log", _CHANNEL["dead_time"]),
        # None: critical sampling, T_s = tau, drawn at zero background
        "sampling_interval": st.one_of(st.none(), _log_uniform(1e-4, 1.0)),
    }
).filter(lambda sweep: _monotone_tau_sweep(sweep, experiments.parse_grid(sweep["tau_grid"])))


def _steps(sweep, column):
    """Each pair of neighbouring rows of a capacity sweep, as (x, C) pairs."""
    points = [(row[column], row["capacity_nats"]) for row in _rows("capacity", sweep)]
    return list(zip(points, points[1:]))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(_MONOTONE_A_SWEEPS)
def test_capacity_rises_in_A_and_falls_per_photon(sweep):
    tau = sweep["dead_time"]
    per_photon_from = WEAK_STEP_A_TAU if sweep["background"] == 0.0 else PER_PHOTON_A_TAU
    for (a1, c1), (a2, c2) in _steps(sweep, "A"):
        assert _le(c1, c2), (sweep, a1, a2)
        if a1 * tau >= per_photon_from:
            assert _le(c2 / a2, c1 / a1), (sweep, a1, a2)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(_MONOTONE_TAU_SWEEPS)
def test_capacity_in_tau_rises_at_fixed_sampling_and_falls_at_zero_background(sweep):
    peak, background = sweep["peak_rate"], sweep["background"]
    for (t1, c1), (t2, c2) in _steps(sweep, "tau"):
        if sweep["sampling_interval"] is None:
            if peak * t1 >= WEAK_STEP_A_TAU:
                assert _le(c2, c1), (sweep, t1, t2)
        elif background == 0.0 or (peak + background) * t2 <= FIXED_TS_EXPONENT:
            assert _le(c1, c2), (sweep, t1, t2)


def _violated(command, sweep, ordering):
    """Whether some row of ``command`` breaks ``ordering``; a refused run,
    which prints no row, breaks none."""
    rows = _rows(command, sweep)
    if command == "mi-sweep":
        return any(ordering in mi_sweep_violations(row, sweep) for row in rows)
    if command == "capacity":
        return any(ordering in capacity_violations(row) for row in rows)
    if command == "gap":
        return any(ordering in gap_violations(row, sweep["scenario"]) for row in rows)
    return any(ordering in duty_imax_violations(row) for row in rows)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: at weak signal upper_sub is computed from O(1) "
    "terms that cancel, and falls below the exact rate",
)
def test_upper_sub_bounds_exact_mi_at_weak_signal():
    rows = _rows("mi-sweep", {"peak_rate": 1e-6, "mu_grid": "lin:0.25,0.75,3"})
    assert rows
    for row in rows:
        assert _le(row["exact_mi"], row["upper_sub"]), row


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: the tuned lower envelope is F_l itself where its "
    "best order is 1/2, from pairs that round apart from beta, and F_l "
    "amplifies that rounding by about 1/(1 - beta)",
)
def test_tuned_lower_envelope_above_lower_sub_at_weak_signal():
    rows = _rows("mi-sweep", {"peak_rate": 1e-5, "mu_grid": "lin:0.25,0.75,3"})
    assert rows
    for row in rows:
        assert _le(row["lower_sub"], row["lower"]), row


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: H(mixture) - (1-mu) H0 - mu H1 cancels, so at "
    "tiny duty cycles the exact MI is rounding noise, negative here",
)
def test_exact_mi_nonnegative_at_tiny_duty_cycles():
    sweep = {"mu_grid": "log:1e-300,1e-100,3"}
    assert not _violated("mi-sweep", sweep, "0 <= exact_mi")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: near saturation the exact MI's rounding exceeds "
    "its distance to the Poisson benchmark and to F_l's maximum",
)
def test_exact_mi_within_its_bounds_at_saturation():
    mi_sweep = {"peak_rate": 1000.0, "mu_grid": "lin:0.25,0.75,3"}
    duty_imax = {
        "samples": 200, "dead_time": 0.005, "background": 0.0, "a_grid": "log:100,1000,4",
    }
    assert not _violated("mi-sweep", mi_sweep, "exact_mi <= poisson_benchmark")
    assert not _violated("duty-imax", duty_imax, "imax_lower <= imax_exact")


@pytest.mark.xfail(
    strict=True,
    reason="mi-sweep accepts a sampling interval 1/L below the dead time, "
    "where the binomial model overlaps its windows and the exact rate "
    "exceeds the Poisson benchmark",
)
def test_exact_mi_below_poisson_benchmark_when_sampling_faster_than_dead_time():
    sweep = {"samples": 100, "mu_grid": "lin:0.5,0.5,1"}
    rows = _rows("mi-sweep", sweep)
    assert all(_le(row["exact_mi"], row["poisson_benchmark"]) for row in rows), rows


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at zero background and A tau <= 3.6e-8 "
    "_entropy_increment takes its plain-difference branch, and the capacity "
    "rounds above Wyner's",
)
def test_capacity_below_wyner_at_zero_background_and_weak_signal():
    sweep = {"preset": "zero-background", "a_grid": "log:1e-8,1e-6,3"}
    assert not _violated("capacity", sweep, "capacity_nats <= wyner_capacity")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at A tau of about 2e-14 and below, F(mu*) ~ "
    "d^2 / (8 p0 q0) is summed from O(d) terms of _entropy_increment, whose "
    "O(eps d) rounding puts the capacity above Wyner's at any background",
)
def test_capacity_below_wyner_at_weak_signal_with_background():
    sweep = {"background": 0.01, "a_grid": "log:1e-13,1e-11,3"}
    assert not _violated("capacity", sweep, "capacity_nats <= wyner_capacity")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: where q1 = exp(-(A + background) tau) underflows "
    "_entropy_increment takes its plain-difference branch and loses the "
    "O(q0) terms; the capacity lands 5.5e-4 above its limit here",
)
def test_capacity_below_its_limit_where_q1_underflows():
    sweep = {"background": 1600.0, "a_grid": "log:4e4,1e5,2"}
    assert not _violated("capacity", sweep, "capacity_nats <= limit_large_A")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at zero background and A tau near 1e-7 the "
    "capacity is about 1e-9 off, more than the O(A tau) relative steps of "
    "C/A in A and of C in tau between grid points 1% apart",
)
def test_capacity_per_photon_laws_at_zero_background_and_weak_signal():
    # A tau from 1e-7 to 2e-7: C/A over A at tau = 0.02, C over tau at A = 1e-3
    per_photon = _steps({"preset": "zero-background", "a_grid": "log:5e-6,1e-5,70"}, "A")
    in_tau = _steps({"peak_rate": 1e-3, "background": 0.0, "tau_grid": "log:1e-4,2e-4,70"}, "tau")
    assert per_photon and in_tau
    assert all(_le(c2 / a2, c1 / a1) for (a1, c1), (a2, c2) in per_photon)
    assert all(_le(c2, c1) for (_, c1), (_, c2) in in_tau)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: at weak signal the gap and its general lower "
    "bound, which is tight there to many digits, are each computed from "
    "betas near 1 and cancel; the bound rounds above the gap by 1e-8",
)
def test_gap_above_its_general_lower_bound_at_weak_signal():
    sweep = {
        "scenario": "large-L", "peak_rate": 1e-3, "background": 1.0,
        "dead_time": 0.01, "l_grid": "lin:1,3,3",
    }
    assert not _violated("gap", sweep, "gap_lower_formula <= gap_numeric")


def test_gap_below_the_normal_range_is_refused():
    # these gaps run from 3.2e-312 down to 8.3e-321 with few correct digits,
    # and the general lower bound rounds above three of them
    sweep = {
        "scenario": "large-L", "peak_rate": 100.0, "background": 1e-4,
        "dead_time": 0.05, "l_grid": "lin:290,298,5",
    }
    with pytest.raises(NumericalFailure) as refused:
        experiments.run("gap", sweep)
    assert str(refused.value) == (
        "large-L gap at x = 290 cannot be resolved in double precision: "
        "gap_numeric is 3.23279246834e-312"
    )
