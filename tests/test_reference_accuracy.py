"""The audited cells of the references against the mpmath oracle: every
computed cell of the capacity, gap, mi-sweep and duty-imax references, and
the seed-free cells of the simulate reference.

The files under perfbench/reference/ pin today's bytes, not the truth.
This test reads them (and only reads them) and scores each audited cell
against ``oracle``, which evaluates the same formula exactly in the row's
double inputs.  The A and tau columns are those inputs; the other settings
come from the preset.  Each bound is the worst relative error that the
reference holds today, rounded up to two digits, so a new reference may
keep or lower a bound but not raise it.
"""

import csv
import math
from pathlib import Path

import pytest

import oracle
from deadtime_channel.experiments import PRESETS

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

# worst relative error per capacity preset and column
BOUNDS = {
    "small-background": {
        "mu_star": 1.8e-15,
        "capacity_nats": 2.1e-15,
        "capacity_bits": 2.1e-15,
        "wyner_capacity": 3.9e-16,
        "approx_low_A": 2.6e-16,
        "limit_large_A": 2.1e-16,
    },
    # the capacity takes _entropy_increment's plain-difference branch at p0 = 0
    "zero-background": {
        "mu_star": 1.4e-15,
        "capacity_nats": 1.2e-12,
        "capacity_bits": 1.2e-12,
        "wyner_capacity": 2.2e-16,
        "approx_low_A": 2.2e-16,
        "limit_large_A": 0.0,
    },
    "dead-time-sweep": {
        "mu_star": 2.7e-15,
        "capacity_nats": 3.8e-15,
        "capacity_bits": 3.9e-15,
        "wyner_capacity": 2.3e-16,
        "approx_low_A": 1.8e-16,
        "limit_large_A": 3.7e-16,
    },
}


# worst relative error per duty-imax preset and bound column; mu_upper is
# an argmax, resolved only to about sqrt(eps) where F_u is flat
DUTY_IMAX_BOUNDS = {
    "samples30": {"imax_lower": 8.9e-15, "mu_upper": 1.7e-8, "imax_upper": 2.6e-15},
    "samples20": {"imax_lower": 9.9e-15, "mu_upper": 2.4e-8, "imax_upper": 2.4e-15},
}


# worst relative error per gap preset and filled column.  gap_numeric is
# the maximum of F_u - F_l; at low A it keeps about 7 digits, since beta -
# beta1 and beta - beta2 cancel.  The large-A offset is high_snr - const_u,
# whose terms cancel to about 1e-9 of the betas' rounding.
GAP_BOUNDS = {
    "large-L": {
        "gap_numeric": 2.8e-14,
        "gap_lower_formula": 2.8e-14,
        "gap_upper_formula": 2.8e-14,
        "fitted_rate": 7.7e-16,
        "predicted_rate": 7.7e-16,
    },
    "large-A": {
        "gap_numeric": 7.4e-13,
        "gap_lower_formula": 7.4e-13,
        "gap_upper_formula": 7.8e-13,
        "offset_numeric": 1.1e-9,
        "offset_formula": 1.1e-9,
        "fitted_rate": 3.2e-11,
        "predicted_rate": 0.0,
    },
    "low-lambda": {
        "gap_numeric": 1.1e-15,
        "gap_lower_formula": 7.7e-16,
        "gap_upper_formula": 1.1e-15,
        "offset_numeric": 5.0e-14,
        "offset_formula": 9.7e-16,
        "fitted_rate": 8.1e-15,
        "predicted_rate": 0.0,
    },
    # the leading constant (1 - p1)^(L/2) forms 1 - p1 from p1 near 1
    "zero-lambda": {
        "gap_numeric": 4.6e-13,
        "gap_lower_formula": 4.6e-13,
        "gap_upper_formula": 4.6e-13,
        "fitted_rate": 7.8e-15,
        "predicted_rate": 0.0,
    },
    "low-A": {
        "gap_numeric": 1.4e-7,
        "gap_lower_formula": 2.3e-16,
        "gap_upper_formula": 2.3e-16,
        "offset_numeric": 1.4e-7,
        "offset_formula": 1.9e-16,
        "fitted_rate": 1.8e-9,
        "predicted_rate": 0.0,
    },
}


# worst relative error per duty-imax preset and approximation column; the
# oracle roots the expansion's mu-derivative and does not judge whether the
# expansion applies.  mu_approx is an argmax, resolved to about sqrt(eps)
DUTY_IMAX_APPROX_BOUNDS = {
    "samples30": {"mu_approx": 2.5e-8, "imax_approx": 1.1e-15},
    "samples20": {"mu_approx": 4.1e-8, "imax_approx": 1.5e-15},
}


# worst relative error per duty-imax preset and exact-MI column: mu_exact
# against the root of dI/dmu, an argmax resolved to about sqrt(eps), and
# imax_exact against the exact MI at the printed mu_exact
DUTY_IMAX_EXACT_BOUNDS = {
    "samples30": {"mu_exact": 3.2e-8, "imax_exact": 4.7e-15},
    "samples20": {"mu_exact": 3.3e-8, "imax_exact": 2.5e-15},
}


# worst relative error per mi-sweep column over the published grid, the
# exact zeros at mu in {0, 1} counted as matches
MI_SWEEP_BOUNDS = {
    "exact_mi": 6.1e-15,
    "lower": 7.8e-16,
    "lower_sub": 1.2e-15,
    "upper": 6.0e-16,
    "upper_sub": 0.0,
    "approx": 5.8e-16,
    "poisson_benchmark": 2.2e-15,
}


# worst relative error per seed-free column of the simulate reference
SIMULATE_BOUNDS = {"p0_closed": 0.0, "p1_closed": 0.0, "mi_exact": 3.8e-15}


def _oracle_row(peak, tau, background, sampling_interval):
    t_s = tau if sampling_interval is None else sampling_interval
    cap = oracle.capacity(peak, background, tau, t_s)
    return {
        "mu_star": oracle.mu_star(peak, background, tau),
        "capacity_nats": cap,
        "capacity_bits": cap / math.log(2.0),
        "wyner_capacity": oracle.wyner_capacity(peak, background),
        "approx_low_A": oracle.approx_low_A(peak, background, tau, t_s),
        "limit_large_A": oracle.limit_large_A(background, tau, t_s),
    }


def _relative_error(value, exact):
    return abs(value - exact) / abs(exact) if exact != 0.0 else abs(value)


def _reference(command, name):
    """The header and rows of a reference file."""
    path = REFERENCE / f"{command}_{name}.csv"
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    assert rows
    return reader.fieldnames, rows


def _worst_errors(rows, oracle_row, columns):
    """Each column's worst relative error against ``oracle_row(row)``."""
    worst = dict.fromkeys(columns, 0.0)
    for row in rows:
        for column, value in oracle_row(row).items():
            worst[column] = max(worst[column], _relative_error(float(row[column]), value))
    return worst


def test_every_capacity_preset_has_bounds():
    assert sorted(BOUNDS) == sorted(PRESETS["capacity"])


@pytest.mark.parametrize("name", list(BOUNDS))
def test_capacity_reference_within_bounds(name):
    preset = PRESETS["capacity"][name]
    fieldnames, rows = _reference("capacity", name)
    assert set(fieldnames) == {"A", "tau", *BOUNDS[name]}

    def oracle_row(row):
        peak, tau = float(row["A"]), float(row["tau"])
        return _oracle_row(peak, tau, preset["background"], preset["sampling_interval"])

    worst = _worst_errors(rows, oracle_row, BOUNDS[name])
    over = {c: w for c, w in worst.items() if w > BOUNDS[name][c]}
    assert over == {}, worst


def test_every_duty_imax_preset_has_bounds():
    assert sorted(DUTY_IMAX_BOUNDS) == sorted(PRESETS["duty-imax"])


@pytest.mark.parametrize("name", list(DUTY_IMAX_BOUNDS))
def test_duty_imax_reference_bound_columns_within_bounds(name):
    preset = PRESETS["duty-imax"][name]
    bounds = DUTY_IMAX_BOUNDS[name]
    fieldnames, rows = _reference("duty-imax", name)
    assert {"A", *bounds} <= set(fieldnames)

    def oracle_row(row):
        exact = oracle.duty_imax_bounds(
            float(row["A"]), preset["background"], preset["dead_time"], preset["samples"]
        )
        return dict(zip(("imax_lower", "mu_upper", "imax_upper"), exact))

    worst = _worst_errors(rows, oracle_row, bounds)
    over = {c: w for c, w in worst.items() if w > bounds[c]}
    assert over == {}, worst


def test_every_gap_preset_has_bounds():
    assert sorted(GAP_BOUNDS) == sorted(PRESETS["gap"])


@pytest.mark.parametrize("name", list(GAP_BOUNDS))
def test_gap_reference_within_bounds(name):
    preset = PRESETS["gap"][name]
    bounds = GAP_BOUNDS[name]
    fieldnames, rows = _reference("gap", name)
    # every column but x is audited, or nan on every row
    unfilled = {c for c in fieldnames if all(row[c] == "nan" for row in rows)}
    assert set(fieldnames) - unfilled == {"x", *bounds}

    exact = {
        row["x"]: oracle.gap_cells(
            name, float(row["x"]), preset.get("peak_rate"), preset.get("background"),
            preset["dead_time"], preset.get("samples"),
        )
        for row in rows
    }
    points = [(float(row["x"]), exact[row["x"]].pop("y")) for row in rows]
    fitted = oracle.fitted_rate(points, power_law=name in ("low-lambda", "low-A"))

    def oracle_row(row):
        return {**exact[row["x"]], "fitted_rate": fitted}

    worst = _worst_errors(rows, oracle_row, bounds)
    over = {c: w for c, w in worst.items() if w > bounds[c]}
    assert over == {}, worst


@pytest.mark.parametrize("name", list(DUTY_IMAX_APPROX_BOUNDS))
def test_duty_imax_reference_approximation_columns_within_bounds(name):
    preset = PRESETS["duty-imax"][name]
    bounds = DUTY_IMAX_APPROX_BOUNDS[name]
    _, rows = _reference("duty-imax", name)

    def oracle_row(row):
        exact = oracle.approximation_optimum(
            float(row["A"]), preset["background"], preset["dead_time"], preset["samples"],
            float(row["mu_approx"]),
        )
        return dict(zip(("mu_approx", "imax_approx"), exact))

    worst = _worst_errors(rows, oracle_row, bounds)
    over = {c: w for c, w in worst.items() if w > bounds[c]}
    assert over == {}, worst


@pytest.mark.parametrize("name", list(DUTY_IMAX_EXACT_BOUNDS))
def test_duty_imax_reference_exact_columns_within_bounds(name):
    preset = PRESETS["duty-imax"][name]
    bounds = DUTY_IMAX_EXACT_BOUNDS[name]
    fieldnames, rows = _reference("duty-imax", name)
    # every column is audited; mu_lower is F_l's argmax 1/2 on every row
    audited = {*DUTY_IMAX_BOUNDS[name], *DUTY_IMAX_APPROX_BOUNDS[name], *bounds}
    assert set(fieldnames) == {"A", "mu_lower", *audited}
    assert {row["mu_lower"] for row in rows} == {"0.5"}

    def oracle_row(row):
        return oracle.mi_max_cells(
            float(row["A"]), preset["background"], preset["dead_time"], preset["samples"],
            float(row["mu_exact"]),
        )

    worst = _worst_errors(rows, oracle_row, bounds)
    over = {c: w for c, w in worst.items() if w > bounds[c]}
    assert over == {}, worst


def test_every_mi_sweep_cell_within_bounds():
    assert sorted(PRESETS["mi-sweep"]) == ["published"]
    preset = PRESETS["mi-sweep"]["published"]
    fieldnames, rows = _reference("mi-sweep", "published")
    assert set(fieldnames) == {"mu", *MI_SWEEP_BOUNDS}
    mus = [float(row["mu"]) for row in rows]
    exact = oracle.mi_sweep_cells(
        mus, preset["peak_rate"], preset["background"], preset["dead_time"], preset["samples"]
    )
    ends = [row for row, mu in zip(rows, mus) if mu in (0.0, 1.0)]
    assert len(ends) == 2
    assert {row[c] for row in ends for c in oracle.MI_SWEEP_DUTY_COLUMNS} == {"0"}

    by_mu = {row["mu"]: cells for row, cells in zip(rows, exact)}
    worst = _worst_errors(rows, lambda row: by_mu[row["mu"]], MI_SWEEP_BOUNDS)
    over = {c: w for c, w in worst.items() if w > MI_SWEEP_BOUNDS[c]}
    assert over == {}, worst


def test_simulate_reference_seed_free_cells_within_bounds():
    preset = PRESETS["simulate"]["published"]
    _, rows = _reference("simulate", "published")
    assert len(rows) == 1

    def oracle_row(row):
        return oracle.simulate_closed(
            preset["peak_rate"], preset["background"], preset["dead_time"],
            preset["samples"], preset["mu"],
        )

    worst = _worst_errors(rows, oracle_row, SIMULATE_BOUNDS)
    over = {c: w for c, w in worst.items() if w > SIMULATE_BOUNDS[c]}
    assert over == {}, worst
