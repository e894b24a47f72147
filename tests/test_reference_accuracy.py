"""Every computed cell of the capacity references against the mpmath oracle.

The files under perfbench/reference/ pin today's bytes, not the truth.
This test reads them (and only reads them) and scores each computed cell
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


def test_every_capacity_preset_has_bounds():
    assert sorted(BOUNDS) == sorted(PRESETS["capacity"])


@pytest.mark.parametrize("name", list(BOUNDS))
def test_capacity_reference_within_bounds(name):
    preset = PRESETS["capacity"][name]
    with open(REFERENCE / f"capacity_{name}.csv", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        assert set(reader.fieldnames) == {"A", "tau", *BOUNDS[name]}
        rows = list(reader)
    assert rows
    worst = dict.fromkeys(BOUNDS[name], 0.0)
    for row in rows:
        peak, tau = float(row["A"]), float(row["tau"])
        exact = _oracle_row(peak, tau, preset["background"], preset["sampling_interval"])
        for column, value in exact.items():
            worst[column] = max(worst[column], _relative_error(float(row[column]), value))
    over = {c: w for c, w in worst.items() if w > BOUNDS[name][c]}
    assert over == {}, worst
