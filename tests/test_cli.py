import contextlib
import io
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import deadtime_channel
from deadtime_channel import cli, experiments
from deadtime_channel.monte_carlo import CHUNK_SYMBOLS, MAX_CHUNK_WINDOWS
from deadtime_channel.mutual_info import MAX_TRIALS_EXACT


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [
        [float(cell) if cell != "nan" else math.nan for cell in line.split(",")]
        for line in lines[1:]
    ]
    return header, rows


def test_mi_sweep_corners_are_zero(capsys):
    code, out, _ = _run(capsys, ["mi-sweep", "--mu-grid", "lin:0,1,5"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header[0] == "mu"
    by_mu = {row[0]: row for row in rows}
    for mu in (0.0, 1.0):
        row = by_mu[mu]
        assert row[header.index("exact_mi")] == 0.0
        assert row[header.index("lower")] == 0.0
        assert row[header.index("upper")] == 0.0


def test_mi_sweep_rows_are_sandwiched(capsys):
    code, out, _ = _run(capsys, ["mi-sweep", "--mu-grid", "lin:0.05,0.95,7"])
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    for row in rows:
        exact = row[idx["exact_mi"]]
        assert row[idx["lower_sub"]] <= row[idx["lower"]] <= exact + 1e-9
        assert exact <= row[idx["upper"]] + 1e-9
        assert row[idx["upper"]] <= row[idx["upper_sub"]] + 1e-9
        assert exact <= row[idx["poisson_benchmark"]] + 1e-9


def test_mi_sweep_deterministic(capsys):
    args = ["mi-sweep", "--mu-grid", "lin:0,1,9"]
    _, first, _ = _run(capsys, args)
    _, second, _ = _run(capsys, args)
    assert first == second


def test_out_file_has_lf_endings(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys, ["mi-sweep", "--mu-grid", "lin:0,1,3", "--out", str(out_path)]
    )
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode("utf-8").splitlines()[0].startswith("mu,")


def test_seventeen_significant_digits(capsys):
    _, out, _ = _run(capsys, ["mi-sweep", "--mu-grid", "lin:0.5,0.5,1"])
    cell = out.strip().split("\n")[1].split(",")[1]
    mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) >= 16  # 17 significant digits requested


def _csv_per_cell(header, rows):
    """The CSV text by the per-cell rule: f"{v:.17g}" for a float, str(v) otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[math.nan, math.inf, -math.inf, -0.0, 0.0]],
        [[5e-324, 1.7976931348623157e308, 0.1, -2.2250738585072014e-308, 1.0 / 3.0]],
        # "%.17g" would print the int 10**17 as 1e+17
        [[0, -3, 10**17, 2**70], [True, 0.5, -0, 7]],
        [[np.float64(0.1), np.float64(-0.0), np.int64(10**17), np.int64(-3)]],
        # rows of different types and lengths in one table
        [[1, 2.5], [2.5, 1], [3], [], [np.float64(math.nan), "x"]],
        # one column, an int in some rows and a float in others: each row
        # is formatted by its own types, not by the first row's template
        [[10**17, 0.5], [1e17, 0.5], [10**17, 2], [np.float64(1e17), 0.5]],
    ],
    ids=[
        "header-only", "special-floats", "extreme-floats", "ints", "numpy-scalars", "mixed",
        "int-and-float-column",
    ],
)
def test_format_csv_matches_per_cell_rule(rows):
    header = ["a", "b", "c"]
    assert experiments.format_csv(header, rows) == _csv_per_cell(header, rows)


def test_format_csv_matches_per_cell_rule_on_random_floats():
    rng = np.random.default_rng(24)
    values = rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 308, 4000)
    rows = [values[i : i + 8].tolist() for i in range(0, values.size, 8)]
    assert experiments.format_csv(["x"] * 8, rows) == _csv_per_cell(["x"] * 8, rows)


def test_duty_imax_columns(capsys):
    code, out, _ = _run(capsys, ["duty-imax", "--a-grid", "log:1,100,3"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == [
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
    idx = {name: header.index(name) for name in header}
    for row in rows:
        assert row[idx["mu_lower"]] == 0.5
        assert row[idx["imax_lower"]] <= row[idx["imax_exact"]] + 1e-9
        assert row[idx["imax_exact"]] <= row[idx["imax_upper"]] + 1e-9
    # large peak rate drives every duty cycle toward 1/2
    last = rows[-1]
    for name in ("mu_exact", "mu_upper"):
        assert last[idx[name]] == pytest.approx(0.5, abs=5e-3)


def test_duty_imax_zero_background_reaches_ln2(capsys):
    code, out, _ = _run(
        capsys,
        ["duty-imax", "--background", "0", "--samples", "20", "--a-grid", "log:500,5000,2"],
    )
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    assert rows[-1][idx["imax_exact"]] == pytest.approx(math.log(2.0), abs=1e-3)


def test_gap_header_and_scenarios(capsys):
    code, out, _ = _run(capsys, ["gap", "--scenario", "low-A"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == [
        "x",
        "gap_numeric",
        "gap_lower_formula",
        "gap_upper_formula",
        "offset_numeric",
        "offset_formula",
        "fitted_rate",
        "predicted_rate",
    ]
    idx = {name: header.index(name) for name in header}
    for row in rows:
        assert row[idx["offset_numeric"]] == pytest.approx(
            row[idx["offset_formula"]], rel=2e-2
        )
    assert rows[0][idx["fitted_rate"]] == pytest.approx(2.0, abs=0.01)


def test_gap_zero_lambda_rate(capsys):
    code, out, _ = _run(capsys, ["gap", "--scenario", "zero-lambda"])
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    for row in rows:
        assert row[idx["gap_lower_formula"]] * 0.9 <= row[idx["gap_numeric"]]
        assert row[idx["gap_numeric"]] <= row[idx["gap_upper_formula"]] * 1.05
    assert rows[0][idx["fitted_rate"]] == pytest.approx(
        rows[0][idx["predicted_rate"]], rel=0.02
    )


def test_gap_large_L_rate(capsys):
    code, out, _ = _run(capsys, ["gap", "--scenario", "large-L", "--peak-rate", "5"])
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    assert rows[0][idx["fitted_rate"]] == pytest.approx(
        rows[0][idx["predicted_rate"]], rel=0.02
    )


def test_gap_offset_scenarios_track_their_formulas(capsys):
    # the deepest point of each window (largest peak rate, smallest
    # background) is where the offset formula applies most cleanly
    for scenario, deepest in (("large-A", -1), ("low-lambda", 0)):
        code, out, _ = _run(capsys, ["gap", "--scenario", scenario])
        assert code == 0
        header, rows = _parse_csv(out)
        idx = {name: header.index(name) for name in header}
        assert rows[0][idx["fitted_rate"]] == pytest.approx(
            rows[0][idx["predicted_rate"]], rel=0.05
        )
        row = rows[deepest]
        assert row[idx["offset_numeric"]] == pytest.approx(
            row[idx["offset_formula"]], rel=0.01
        )
        for row in rows:
            assert row[idx["gap_lower_formula"]] <= row[idx["gap_numeric"]] * 1.02
            assert row[idx["gap_numeric"]] <= row[idx["gap_upper_formula"]] * 1.02


@pytest.mark.parametrize(
    "argv",
    [["mi-sweep"], ["duty-imax"], ["capacity"], ["simulate", "--symbols", "1000"]],
    ids=lambda argv: argv[0],
)
def test_bare_command_reads_its_first_preset(capsys, argv):
    first = next(iter(experiments.PRESETS[argv[0]]))
    bare = _run(capsys, argv)
    assert bare[0] == 0
    assert bare == _run(capsys, argv + ["--preset", first])


def test_gap_requires_scenario(capsys):
    code, _, err = _run(capsys, ["gap"])
    _assert_one_line_error(code, err, 2, "requires --scenario")


def test_capacity_tau_grid_takes_dead_time_sweep_defaults(capsys):
    grid = ["--tau-grid", "log:1e-4,1e-1,3"]
    defaults = [[], ["--preset", "dead-time-sweep"], ["--peak-rate", "1", "--background", "0.1"]]
    bare, preset, explicit = (_run(capsys, ["capacity", *flags, *grid]) for flags in defaults)
    assert bare[0] == 0
    assert bare == preset == explicit


@pytest.mark.parametrize("scenario", list(experiments.PRESETS["gap"]))
def test_gap_scenario_reads_its_preset(capsys, scenario):
    by_preset = _run(capsys, ["gap", "--preset", scenario])
    assert by_preset[0] == 0
    assert _run(capsys, ["gap", "--scenario", scenario]) == by_preset
    # a named preset accepts its own scenario
    assert _run(capsys, ["gap", "--preset", scenario, "--scenario", scenario]) == by_preset


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split()[1:] for line in block.splitlines()
        if line.startswith("deadtime-channel ")
    ]


# validate is covered by test_validate_reports_every_check
@pytest.mark.parametrize(
    "argv", [a for a in _readme_cli_examples() if a[0] != "validate"], ids=" ".join
)
def test_readme_cli_examples_run(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert (code, err) == (0, "")


# Each subcommand's flags in --help order; the CLI builds them from the
# keys of the subcommand's presets.
_FLAGS = {
    "mi-sweep": ["--peak-rate", "--background", "--dead-time", "--samples", "--mu-grid"],
    "duty-imax": ["--background", "--dead-time", "--samples", "--a-grid"],
    "gap": [
        "--scenario", "--peak-rate", "--background", "--dead-time", "--samples",
        "--a-grid", "--l-grid", "--lambda-grid",
    ],
    "capacity": [
        "--peak-rate", "--background", "--dead-time", "--sampling-interval",
        "--a-grid", "--tau-grid",
    ],
    "simulate": [
        "--peak-rate", "--background", "--dead-time", "--samples", "--symbols",
        "--seed", "--mu",
    ],
}


def test_main_calls_in_one_process_parse_independently(capsys):
    # the parser is built once per process; no flag of one call reaches the next
    code, out, _ = _run(capsys, ["gap", "--scenario", "large-A", "--a-grid", "lin:100,120,3"])
    large_a = experiments.run("gap", {"scenario": "large-A", "a_grid": "lin:100,120,3"})
    assert (code, out) == (0, experiments.format_csv(*large_a))
    code, out, _ = _run(capsys, ["gap", "--scenario", "large-L"])
    large_l = experiments.run("gap", {"scenario": "large-L"})
    assert (code, out) == (0, experiments.format_csv(*large_l))
    assert _run(capsys, ["gap"]) == (2, "", "error: gap requires --scenario\n")
    assert cli._build_parser() is cli._build_parser()


def test_subcommand_flags_come_from_presets():
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if a.dest == "command").choices
    expected = {c: flags + ["--preset", "--out"] for c, flags in _FLAGS.items()}
    expected["validate"] = ["--format", "--out"]
    found = {
        command: [a.option_strings[0] for a in sub._actions if a.dest != "help"]
        for command, sub in subs.items()
    }
    assert found == expected


_RATE_NAMES = {"--peak-rate": "peak_rate", "--background": "background_rate"}


@pytest.mark.parametrize(
    "base, flags",
    [
        (["mi-sweep", "--mu-grid", "lin:0,1,3"], ["--peak-rate", "--background"]),
        (["duty-imax", "--a-grid", "lin:1,2,2"], ["--background"]),
        (["gap", "--scenario", "large-L", "--l-grid", "lin:50,60,3"],
         ["--peak-rate", "--background"]),
        (["gap", "--scenario", "low-lambda", "--lambda-grid", "log:5.8e-6,5.8e-4,3"],
         ["--peak-rate"]),
    ],
    ids=["mi-sweep", "duty-imax", "gap-large-L", "gap-low-lambda"],
)
@pytest.mark.parametrize("value", ["-0.01", "nan"])
def test_bad_rate_named_as_set(capsys, base, flags, value):
    # the refusal names the rate the user set, not the sum p_on is built from
    for flag in flags:
        code, _, err = _run(capsys, base + [f"{flag}={value}"])
        _assert_one_line_error(code, err, 2, _RATE_NAMES[flag])


def test_zero_peak_rate_prints_no_negative_zero(capsys):
    code, out, _ = _run(capsys, ["mi-sweep", "--peak-rate", "0", "--mu-grid", "lin:0,1,5"])
    assert code == 0
    cells = [cell for line in out.strip().split("\n")[1:] for cell in line.split(",")]
    assert "-0" not in cells
    assert cells.count("0") > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["duty-imax", "--peak-rate", "5"],
        ["validate", "--config", "f"],
        ["simulate", "--sampling-interval", "0.5"],
        ["mi-sweep", "--config", "f"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_gap_rejects_unknown_scenario(capsys):
    code, _, err = _run(capsys, ["gap", "--scenario", "sideways"])
    assert code == 2
    assert "sideways" in err


def test_capacity_sweep_saturation(capsys):
    code, out, _ = _run(
        capsys, ["capacity", "--preset", "zero-background", "--a-grid", "log:1,100000,6"]
    )
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    last = rows[-1]
    assert last[idx["capacity_nats"]] == pytest.approx(
        last[idx["limit_large_A"]], rel=1e-3
    )
    for row in rows:
        assert row[idx["capacity_nats"]] <= row[idx["wyner_capacity"]] + 1e-9
        assert row[idx["capacity_bits"]] == pytest.approx(
            row[idx["capacity_nats"]] / math.log(2.0), rel=1e-14
        )


def test_capacity_tau_sweep_converges_to_wyner(capsys):
    code, out, _ = _run(capsys, ["capacity", "--preset", "dead-time-sweep"])
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    gaps = [
        abs(row[idx["capacity_nats"]] - row[idx["wyner_capacity"]]) for row in rows
    ]
    assert gaps[0] < gaps[-1]  # tau grid is increasing: smaller tau, smaller gap


def test_simulate_z_scores_and_determinism(capsys):
    args = ["simulate", "--symbols", "30000", "--seed", "5"]
    code, first, _ = _run(capsys, args)
    assert code == 0
    _, second, _ = _run(capsys, args)
    assert first == second
    header, rows = _parse_csv(first)
    idx = {name: header.index(name) for name in header}
    row = rows[0]
    for name in ("z_p0", "z_p1", "z_mi"):
        assert abs(row[idx[name]]) < 4.0


def test_simulate_dark_channel(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--peak-rate", "0", "--symbols", "5000", "--seed", "3"],
    )
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    assert abs(rows[0][idx["mi_plugin"]]) < 5e-3
    assert rows[0][idx["mi_exact"]] == 0.0


def test_bad_grid_is_usage_error(capsys):
    for argv in (
        ["mi-sweep", "--mu-grid", "geom:0,1,5"],
        ["gap", "--scenario", "large-L", "--l-grid", "lin:nan,3,3"],
        ["capacity", "--a-grid", "lin:100,inf,3"],
        ["duty-imax", "--a-grid", "log:1,-inf,3"],
    ):
        code, _, err = _run(capsys, argv)
        _assert_one_line_error(code, err, 2, "grid")


def _limit_memory():
    # a runaway allocation fails with MemoryError instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def _run_subprocess(argv):
    # -W error turns any numpy RuntimeWarning into a failure
    src = Path(deadtime_channel.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "deadtime_channel.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        preexec_fn=_limit_memory,
    )


def test_capacity_extreme_peak_rates_run_clean():
    proc = _run_subprocess(["capacity", "--a-grid", "log:1e-300,1e300,3"])
    assert (proc.returncode, proc.stderr) == (0, "")
    header, rows = _parse_csv(proc.stdout)
    assert rows[0][header.index("mu_star")] == 0.5  # the A -> 0 limit, not a clamp


def test_unknown_preset_rejected(capsys):
    code, _, err = _run(capsys, ["mi-sweep", "--preset", "nope"])
    assert code == 2
    assert "preset" in err


def test_parameter_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, ["mi-sweep", "--dead-time", "-1"])
    assert code == 2


def test_numerical_failure_exit_code(monkeypatch, capsys):
    from deadtime_channel import NumericalFailure, validation

    def broken():
        raise NumericalFailure("synthetic optimizer breakdown")

    monkeypatch.setattr(validation, "ALL_CHECKS", [broken])
    code, _, err = _run(capsys, ["validate"])
    assert code == 3
    assert "synthetic optimizer breakdown" in err


def test_validate_reports_every_check(capsys):
    from deadtime_channel import validation

    code, out, _ = _run(capsys, ["validate"])
    lines = out.strip().split("\n")
    assert len(lines) == len(validation.ALL_CHECKS) + 1  # one per check + summary
    for line in lines[:-1]:
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
    failing = {
        line.split("]")[1].split(":")[0].strip()
        for line in lines[:-1]
        if line.startswith("[FAIL]")
    }
    # exactly the documented red criterion fails; exit code reflects it
    assert failing == validation.EXPECTED_FAILURES
    assert code == 1


def test_validate_json_rows_are_the_text_lines(monkeypatch, capsys):
    import json

    from deadtime_channel import __version__, validation

    # three quick checks, one of them failing, stand in for the suite
    checks = [validation.check_half_alpha_optimal, validation.check_saturation_coefficient]
    failing = validation.CheckResult("demo", (("count", 2, "==", 0), ("nan", math.nan, "<", 1.0)))
    monkeypatch.setattr(validation, "ALL_CHECKS", checks + [lambda: failing])
    code, out, _ = _run(capsys, ["validate", "--format", "json"])
    report = json.loads(out)
    assert code == 1 and out.endswith("}\n")
    assert report["version"] == __version__
    assert report["passed"] == 2
    code, text, _ = _run(capsys, ["validate"])
    lines = text.splitlines()
    assert (code, lines[-1]) == (1, "2/3 checks passed")
    assert [check["name"] for check in report["checks"]] == [
        "half-alpha-optimal", "saturation-coefficient", "demo",
    ]
    for check, line in zip(report["checks"], lines[:-1]):
        assert check["runtime_s"] >= 0.0
        rows = tuple((r["label"], r["value"], r["op"], r["limit"]) for r in check["rows"])
        result = validation.CheckResult(check["name"], rows)
        assert result.passed == check["passed"]
        assert result.line() == line


def _assert_one_line_error(code, err, expected_code, fragment):
    assert code == expected_code
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert fragment in err


def test_simulate_zero_stderr_is_estimation_error(capsys):
    # 10 symbols at the published setting see no background firing
    code, out, err = _run(capsys, ["simulate", "--symbols", "10"])
    _assert_one_line_error(code, err, 3, "zero standard error")
    assert out == ""


def test_simulate_zero_background_scores_exact_match(capsys):
    # p0 = 0 exactly: the off-symbol estimate is deterministically 0
    code, out, _ = _run(
        capsys, ["simulate", "--background", "0", "--symbols", "1000", "--seed", "4"]
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert rows[0][header.index("p0_hat")] == 0.0
    assert rows[0][header.index("z_p0")] == 0.0


def test_gap_low_A_rejects_non_positive_peak_rates(capsys):
    code, _, err = _run(capsys, ["gap", "--scenario", "low-A", "--a-grid", "lin:0,1e-3,3"])
    _assert_one_line_error(code, err, 2, "must be > 0")


def test_gap_low_lambda_rejects_non_positive_backgrounds(capsys):
    code, _, err = _run(
        capsys, ["gap", "--scenario", "low-lambda", "--lambda-grid", "lin:0,1e-4,3"]
    )
    _assert_one_line_error(code, err, 2, "must be > 0")


@pytest.mark.parametrize(
    "argv",
    [
        ["mi-sweep", "--background", "nan"],
        ["mi-sweep", "--peak-rate", "inf"],
        ["simulate", "--peak-rate", "inf", "--symbols", "100"],
        ["capacity", "--background", "nan"],
    ],
)
def test_non_finite_rates_rejected(capsys, argv):
    code, _, err = _run(capsys, argv)
    _assert_one_line_error(code, err, 2, "must be finite")


def test_duty_imax_zero_signal_row_is_zero(capsys):
    code, out, _ = _run(capsys, ["duty-imax", "--a-grid", "lin:0,1,2"])
    assert code == 0
    header, rows = _parse_csv(out)
    idx = {name: header.index(name) for name in header}
    for name in ("imax_exact", "imax_lower", "imax_upper", "imax_approx"):
        assert rows[0][idx[name]] == 0.0
    for name in ("mu_exact", "mu_approx", "mu_lower", "mu_upper"):
        assert rows[0][idx[name]] == 0.5


@pytest.mark.parametrize(
    "argv, expected, fragment, in_subprocess",
    [
        # gap points below double resolution: the offset is rounding, or
        # the gap itself underflows to 0
        (["gap", "--scenario", "low-lambda", "--lambda-grid", "log:1e-300,1e-200,3"],
         3, "low-lambda gap at x = 1e-300", False),
        (["gap", "--scenario", "large-A", "--a-grid", "lin:300,600,3"],
         3, "large-A gap at x = 450", False),
        (["gap", "--scenario", "zero-lambda", "--a-grid", "lin:300,600,3"],
         3, "zero-lambda gap at x = 450", False),
        (["gap", "--scenario", "low-A", "--a-grid", "log:1e-200,1e-100,3"],
         3, "low-A gap at x = 1e-200", False),
        (["gap", "--scenario", "low-A", "--a-grid", "log:1e-12,1e-9,3"],
         3, "low-A gap at x = 1e-12", False),
        (["gap", "--scenario", "large-L", "--l-grid", "lin:10000,20000,3"],
         3, "large-L gap at x = 10000", False),
        # both levels saturate, so p1 - p0 is 0 and so is the capacity
        (["capacity", "--dead-time", "1e300", "--a-grid", "lin:1,2,2"], 0, None, True),
        (["capacity", "--background", "1e300", "--a-grid", "lin:1,2,2"], 0, None, False),
        # Poisson benchmark means beyond the rounding floor of its pmf sum;
        # a sum that grows its support until the sum rounds to 1 never stops
        (["mi-sweep", "--peak-rate", "200"], 0, None, True),
        (["mi-sweep", "--peak-rate", "1000"], 0, None, True),
        (["mi-sweep", "--peak-rate", "1e9"], 2, "exceeds exact-summation cap", False),
        # beta - beta_i within the rounding of beta: the gap / A^2 is noise
        (["gap", "--scenario", "low-A", "--a-grid", "log:3e-7,1e-4,4"],
         3, "low-A gap at x = 3e-07", False),
        # p1 - p0 subnormal: a ~ 1/q0 overflows, or F / tau keeps no digits
        (["capacity", "--background", "35500", "--a-grid", "lin:1,1,1"],
         3, "capacity at A = 1.0, tau = 0.02 cannot be resolved", False),
        (["capacity", "--background", "37000", "--a-grid", "lin:1,1,1"],
         3, "capacity at A = 1.0, tau = 0.02 cannot be resolved", False),
        (["capacity", "--dead-time", "5e-324", "--a-grid", "lin:2000,2000,1"],
         3, "capacity at A = 2000.0, tau = 5e-324 cannot be resolved", False),
        # simulate refuses its integer settings before dividing or simulating
        (["simulate", "--samples", "0"], 2, "samples must be a positive integer", False),
        (["simulate", "--samples", "-3"], 2, "samples must be a positive integer", False),
        (["simulate", "--samples", "200000", "--dead-time", "1e-6", "--symbols", "20"],
         2, "exceeds exact-summation cap", False),
        # refused before allocating: a 7.45 GiB grid, a 12.2 GiB Monte Carlo chunk
        (["mi-sweep", "--mu-grid", "lin:0,1,1000000000"], 2, "grid count must be <=", True),
        (["simulate", "--samples", "100000", "--dead-time", "1e-5", "--symbols", "1000000"],
         2, "above the cap of 33554432", True),
        # a large-L sweep value is a count of samples, not truncated to one
        (["gap", "--scenario", "large-L", "--l-grid", "lin:1.5,3.5,3"],
         2, "large-L sweep values must be a positive integer, got 1.5", False),
        (["mi-sweep", "--mu-grid", "lin:0,1,3", "--out", "/nonexistent/dir/x.csv"],
         2, "cannot write /nonexistent/dir/x.csv: No such file or directory", False),
        (["capacity", "--out", "."], 2, "cannot write .: Is a directory", False),
        # a flag that the chosen sweep does not read is refused, not dropped
        (["gap", "--scenario", "large-A", "--peak-rate", "nan"],
         2, "--peak-rate does not apply to gap large-A, which sweeps --a-grid", False),
        (["capacity", "--peak-rate", "-5"],
         2, "--peak-rate does not apply to capacity small-background", False),
        (["gap", "--scenario", "large-L", "--samples", "7"],
         2, "--samples does not apply to gap large-L, which sweeps --l-grid", False),
        (["gap", "--scenario", "large-A", "--l-grid", "lin:1,2,3"],
         2, "--l-grid does not apply to gap large-A", False),
        (["capacity", "--tau-grid", "log:1e-3,1e-2,2", "--peak-rate", "1", "--dead-time", "5"],
         2, "--dead-time does not apply to capacity dead-time-sweep", False),
        (["gap", "--scenario", "low-lambda", "--background", "1"],
         2, "--background does not apply to gap low-lambda", False),
        (["capacity", "--preset", "dead-time-sweep", "--a-grid", "lin:1,2,2"],
         2, "--a-grid does not apply to capacity dead-time-sweep, which sweeps --tau-grid",
         False),
        # the samples tile the symbol, so they may not be shorter than the dead time
        (["simulate", "--samples", "100"],
         2, "1/--samples = 0.01 must be >= --dead-time = 0.02", False),
        # a run reads one preset, so the named preset's settings are never dropped
        (["capacity", "--preset", "zero-background", "--tau-grid", "log:1e-3,1e-2,2"],
         2, "--tau-grid does not apply to capacity zero-background", False),
        (["gap", "--preset", "large-A", "--scenario", "large-L", "--l-grid", "lin:50,60,3"],
         2, "does not apply to gap large-A", False),
        (["gap", "--preset", "large-A", "--scenario", "large-L"],
         2, "--scenario large-L differs from gap preset large-A", False),
        # a duty cycle of 0 or 1 sends no symbols of one class
        (["simulate", "--mu", "0"], 2, "mu must be in (0, 1), got 0.0", False),
        (["simulate", "--mu", "1"], 2, "mu must be in (0, 1), got 1.0", False),
        # grid values that overflow the spacing arithmetic; finite ones are run
        (["capacity", "--a-grid", "log:1,1.7976931348623157e308,2"], 0, None, True),
        (["capacity", "--a-grid", "log:1.7976931348623157e308,1.7976931348623157e308,3"],
         2, "grid values must be finite", True),
        (["capacity", "--preset", "dead-time-sweep",
          "--tau-grid", "lin:-1.7976931348623157e308,1.7976931348623157e308,3"],
         2, "grid values must be finite", True),
        # a low-A gap coefficient, or its product with x^2, that overflows
        (["gap", "--scenario", "low-A", "--a-grid", "lin:2000,1e300,3"],
         3, "low-A gap at x = 5e+299 cannot be resolved", False),
        (["gap", "--scenario", "low-A", "--background", "3.62562697079435e-309",
          "--dead-time", "5.373723437353621e+278"],
         3, "low-A gap at x = 0.0001 cannot be resolved", False),
        # the quadratic law needs p0 > 0: refused at zero background, and
        # unresolvable where background * tau underflows p0 to 0
        (["gap", "--scenario", "low-A", "--background", "0"],
         2, "low-A scenario requires background > 0", False),
        (["gap", "--scenario", "low-A", "--background", "5e-324"],
         3, "low-A gap at x = 0.0001 cannot be resolved", False),
        # a peak rate that saturates p1 leaves no low-background offset
        (["gap", "--scenario", "low-lambda", "--peak-rate", "1e300"],
         3, "low-lambda gap at x = 5.8e-06 cannot be resolved in double precision: "
         "p1 rounds to 1", False),
        # a divergence that rounds below 0 is unresolvable, not a bad flag
        (["mi-sweep", "--peak-rate", "1e-8"], 3, "C_alpha = -", False),
        (["mi-sweep", "--peak-rate", "1e-13", "--background", "1.0", "--samples", "20"],
         3, "C_alpha = -", False),
        (["duty-imax", "--a-grid", "lin:1e-9,1e-9,1"], 3, "KL(P1||P0) = -", False),
        # a spread of sweep values that underflows the fit; equal values are a bad grid
        (["gap", "--scenario", "zero-lambda", "--a-grid", "lin:1e-300,1e-299,3"],
         3, "the spread of the x values underflows", False),
        (["gap", "--scenario", "zero-lambda", "--a-grid", "lin:30,30,3"],
         2, "all x values are identical", False),
        # a divergence refusal names its sweep point: A, where the beta
        # triple or the tuned lower envelope's scan pairs are refused
        (["duty-imax", "--a-grid", "lin:1e-9,1e-9,1"],
         3, "duty-imax at A = 1e-09 cannot be resolved in double precision: "
         "KL(P1||P0) = -", False),
        (["mi-sweep", "--peak-rate", "1e-9"],
         3, "mi-sweep at A = 1e-09 cannot be resolved in double precision: "
         "KL(P1||P0) = -", False),
        (["mi-sweep", "--peak-rate", "1e-8"],
         3, "mi-sweep at A = 1e-08 cannot be resolved in double precision: "
         "C_alpha = -", False),
        # the large-A offsets expand in p0: refused at zero background (the
        # zero-lambda scenario), unresolvable where background * tau underflows p0 to 0
        (["gap", "--scenario", "large-A", "--background", "0"],
         2, "large-A scenario requires background > 0", False),
        (["gap", "--scenario", "large-A", "--background", "-0"],
         2, "large-A scenario requires background > 0", False),
        (["gap", "--scenario", "large-A", "--background", "5e-324"],
         3, "large-A gap at x = 100.0 cannot be resolved in double precision: "
         "p0 rounds to 0", False),
        # a zero peak rate sends no signal (p0 == p1): a bad setting, not
        # rounding; a negative one is named as a rate, and one that
        # underflows p1 - p0 is unresolvable
        (["gap", "--scenario", "large-L", "--peak-rate", "0"],
         2, "large-L scenario requires peak_rate > 0", False),
        (["gap", "--scenario", "large-L", "--peak-rate", "-0"],
         2, "large-L scenario requires peak_rate > 0", False),
        (["gap", "--scenario", "low-lambda", "--peak-rate", "0"],
         2, "low-lambda scenario requires peak_rate > 0", False),
        (["gap", "--scenario", "large-A", "--a-grid", "lin:0,180,9"],
         2, "large-A sweep values must be > 0, got 0.0", False),
        (["gap", "--scenario", "zero-lambda", "--a-grid", "lin:0,80,11"],
         2, "zero-lambda sweep values must be > 0, got 0.0", False),
        (["gap", "--scenario", "large-L", "--peak-rate", "-1"],
         2, "peak_rate must be >= 0, got -1.0", False),
        (["gap", "--scenario", "large-A", "--a-grid", "lin:-10,180,9"],
         2, "peak_rate must be >= 0, got -10.0", False),
        (["gap", "--scenario", "large-L", "--peak-rate", "5e-324"],
         3, "large-L gap at x = 50 cannot be resolved in double precision: "
         "gap_numeric is 0.0", False),
        # a subnormal gap keeps few correct digits
        (["gap", "--scenario", "large-L", "--peak-rate", "100", "--background", "1e-4",
          "--dead-time", "0.05", "--l-grid", "lin:290,298,5"],
         3, "large-L gap at x = 290 cannot be resolved in double precision: "
         "gap_numeric is 3.23279246834e-312", False),
    ],
)
def test_extreme_inputs_exit_with_one_line(capsys, argv, expected, fragment, in_subprocess):
    if in_subprocess:
        proc = _run_subprocess(argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, _, err = _run(capsys, argv)
    if expected == 0:
        assert (code, err) == (0, "")
    else:
        _assert_one_line_error(code, err, expected, fragment)


# Small grids per command; every float flag of each gets each value.
# Between them the bases run a sweep that reads each float flag of each
# subcommand; a base's other flags are refused with exit 2.
_FUZZ_COMMANDS = [
    ["mi-sweep", "--mu-grid", "lin:0,1,3"],
    ["duty-imax", "--a-grid", "log:0.5,200,3"],
    ["gap", "--scenario", "large-L", "--l-grid", "lin:50,400,3"],
    ["gap", "--scenario", "large-A", "--a-grid", "lin:100,180,3"],
    ["gap", "--scenario", "low-lambda", "--lambda-grid", "log:5.8e-6,5.8e-4,3"],
    ["gap", "--scenario", "low-A", "--a-grid", "log:1e-4,1e-2,3"],
    ["capacity", "--a-grid", "log:0.5,2000,3"],
    ["capacity", "--preset", "dead-time-sweep", "--tau-grid", "log:1e-4,1e-1,3"],
    ["simulate", "--symbols", "2000"],
]
_SPECIAL_FLOATS = ["0", "-0", "5e-324", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf"]
# columns documented as not applicable (nan) for some rows, per subcommand
# or gap scenario
_NAN_COLUMNS = {
    "mi-sweep": {"approx"},
    "duty-imax": {"mu_approx", "imax_approx"},
    "large-L": {"offset_numeric", "offset_formula"},
    "zero-lambda": {"offset_numeric", "offset_formula"},
}


def _ends_cleanly(code, out, err, sweep):
    """The CLI contract: exit 0 with an empty stderr and no nan cell outside
    the columns ``sweep`` (a subcommand or gap scenario) documents as not
    applicable, or exit 2 or 3 with one stderr line that is not the
    catch-all ``numerical failure: <Type>: ...``."""
    if code == 0:
        header = out.split("\n", 1)[0].split(",")
        nan_columns = {
            header[i]
            for line in out.strip().split("\n")[1:]
            for i, cell in enumerate(line.split(","))
            if cell == "nan"
        } - _NAN_COLUMNS.get(sweep, set())
        return err == "" and not nan_columns
    return (
        code in (2, 3)
        and len(err.strip().splitlines()) == 1
        and not re.match(r"numerical failure: \w+: ", err)
    )


def test_special_float_flags_end_cleanly(capsys):
    failures, offered, read = [], set(), set()
    for base in _FUZZ_COMMANDS:
        keys = {key for preset in experiments.PRESETS[base[0]].values() for key in preset}
        for dest in keys:
            conv, _ = cli._OPTIONS[dest]
            if conv is not float:
                continue
            flag = experiments.flag(dest)
            offered.add((base[0], flag))
            for value in _SPECIAL_FLOATS:
                argv = base + [f"{flag}={value}"]
                code, out, err = _run(capsys, argv)
                if "does not apply" not in err:
                    read.add((base[0], flag))
                sweep = base[2] if base[0] == "gap" else base[0]
                if not _ends_cleanly(code, out, err, sweep):
                    failures.append((" ".join(argv), code, err.strip()))
    assert failures == []
    assert read == offered  # every float flag reached a sweep that reads it


def _fuzz_preset(base):
    """The preset settings that the fuzz command ``base`` runs."""
    command = base[0]
    if "--preset" in base:
        name = base[base.index("--preset") + 1]
    else:
        name = base[2] if command == "gap" else next(iter(experiments.PRESETS[command]))
    return experiments.PRESETS[command][name]


# (base, settings key) for every float flag that a non-simulate base reads
_READ_FLOAT_FLAGS = [
    (base, dest)
    for base in _FUZZ_COMMANDS
    if base[0] != "simulate"
    for dest in _fuzz_preset(base)
    if cli._OPTIONS[dest][0] is float
]


def _flag_value(base, dest, product):
    """The value of ``dest`` that puts rate * tau at ``product`` in ``base``:
    a dead time against the base's background (else its peak rate), a rate
    or sampling interval against its dead time (0.1, where the dead-time
    sweep ends)."""
    preset = _fuzz_preset(base)
    if dest == "dead_time":
        return product / (preset.get("background") or preset.get("peak_rate") or 1.0)
    return product / preset.get("dead_time", 0.1)


@settings(max_examples=150, deadline=None)
@given(
    flag=st.sampled_from(_READ_FLOAT_FLAGS),
    value=st.one_of(
        # log-uniform over the positive doubles
        st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(
            lambda e: ("value", max(min(math.exp(e), sys.float_info.max), 5e-324))
        ),
        # rate * tau where exp(-rate * tau) is subnormal or just above
        st.floats(690.0, 760.0).map(lambda product: ("product", product)),
    ),
)
def test_float_flags_between_special_values_end_cleanly(flag, value):
    base, dest = flag
    kind, x = value
    if kind == "product":
        x = _flag_value(base, dest, x)
    argv = base + [f"{experiments.flag(dest)}={x!r}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    sweep = base[2] if base[0] == "gap" else base[0]
    assert _ends_cleanly(code, stdout.getvalue(), stderr.getvalue(), sweep), (
        argv, code, stderr.getvalue()
    )


# (subcommand, preset, grid key) for every *_grid key of every preset; a
# gap preset is named after its scenario
_GRID_SWEEPS = [
    (command, name, key)
    for command, table in experiments.PRESETS.items()
    for name, preset in table.items()
    for key in preset
    if key.endswith("_grid")
]
_MAX_FLOAT = repr(sys.float_info.max)
_GRID_ENDPOINTS = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS + [_MAX_FLOAT, "-" + _MAX_FLOAT]),
    st.builds(
        lambda sign, exponent: repr(sign * min(math.exp(exponent), sys.float_info.max)),
        st.sampled_from([1.0, -1.0]),
        st.floats(math.log(5e-324), math.log(sys.float_info.max)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    sweep=st.sampled_from(_GRID_SWEEPS),
    kind=st.sampled_from(["lin", "log", "geom"]),
    start=_GRID_ENDPOINTS,
    stop=_GRID_ENDPOINTS,
    count=st.sampled_from([0, 1, 2, 3, experiments.MAX_GRID_POINTS + 1]),
)
@example(("capacity", "dead-time-sweep", "tau_grid"), "lin", "-" + _MAX_FLOAT, _MAX_FLOAT, 3)
def test_grid_flags_end_cleanly(sweep, kind, start, stop, count):
    command, name, key = sweep
    argv = [command, "--preset", name, f"{experiments.flag(key)}={kind}:{start},{stop},{count}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    nan_sweep = experiments.PRESETS[command][name].get("scenario", command)
    assert _ends_cleanly(code, out, err, nan_sweep), (argv, code, err)


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--symbols", "5000000"]])
@pytest.mark.parametrize(
    "out, reason",
    [("/nonexistent/dir/x.txt", "No such file or directory"), (".", "Is a directory")],
)
def test_unwritable_out_refused_before_the_work(monkeypatch, capsys, command, out, reason):
    def work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli.validation, "run_all", work)
    monkeypatch.setattr(cli.experiments, "run", work)
    code, stdout, err = _run(capsys, command + ["--out", out])
    _assert_one_line_error(code, err, 2, f"cannot write {out}: {reason}")
    assert stdout == ""


def test_failed_command_leaves_existing_out_file(tmp_path, capsys):
    path = tmp_path / "kept.csv"
    path.write_text("earlier output\n")
    code, _, err = _run(capsys, ["simulate", "--symbols", "0", "--out", str(path)])
    _assert_one_line_error(code, err, 2, "symbols must be >= 1")
    assert path.read_text() == "earlier output\n"


def _near(*centres):
    return st.sampled_from(sorted({c + d for c in centres for d in (-1, 0, 1)}))


_HUGE = (-(2**64), -(2**63), 2**63, 2**64)
# samples below 1e6 pass the sampling check, so the caps decide
_INT_FUZZ_BASE = ["simulate", "--dead-time", "1e-6", "--background", "1e4", "--peak-rate", "1e5"]


@settings(max_examples=80, deadline=None)
@given(
    symbols=st.one_of(
        _near(0, CHUNK_SYMBOLS, MAX_CHUNK_WINDOWS // MAX_TRIALS_EXACT, *_HUGE),
        st.integers(-3, 20_000),
    ),
    samples=st.one_of(
        _near(0, MAX_TRIALS_EXACT, MAX_CHUNK_WINDOWS // CHUNK_SYMBOLS, MAX_CHUNK_WINDOWS, *_HUGE),
        st.integers(-3, 100),
    ),
    seed=st.one_of(_near(0, *_HUGE), st.integers(0, 2**64 - 1)),
)
def test_simulate_integer_flags_end_cleanly(symbols, samples, seed):
    refused = (
        symbols < 1
        or not 1 <= samples <= MAX_TRIALS_EXACT
        or not 0 <= seed < 2**64
        or min(symbols, CHUNK_SYMBOLS) * samples > MAX_CHUNK_WINDOWS
    )
    # an accepted run simulates at most 2e4 symbols; the product bounds both
    # the windows drawn and the 2 (L + 1) cells each bootstrap resamples
    assume(refused or (symbols <= 20_000 and (symbols + 400) * samples <= 2**21))
    argv = _INT_FUZZ_BASE + [f"--symbols={symbols}", f"--samples={samples}", f"--seed={seed}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 0:
        assert not refused and err == ""
        assert len(out.splitlines()) == 2 and "nan" not in out
    else:
        assert code == (2 if refused else 3), (argv, code, err)
        assert out == "" and len(err.strip().splitlines()) == 1
        assert not re.match(r"numerical failure: \w+: ", err)
