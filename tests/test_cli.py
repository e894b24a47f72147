import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import deadtime_channel
from deadtime_channel import cli


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


def test_gap_requires_scenario(capsys):
    code, _, err = _run(capsys, ["gap"])
    _assert_one_line_error(code, err, 2, "requires --scenario")


def test_capacity_tau_grid_requires_peak_rate(capsys):
    code, _, err = _run(capsys, ["capacity", "--tau-grid", "log:1e-4,1e-1,3"])
    _assert_one_line_error(code, err, 2, "requires --peak-rate")


@pytest.mark.parametrize(
    "argv",
    [
        ["duty-imax", "--peak-rate", "5"],
        ["validate", "--config", "f"],
        ["simulate", "--sampling-interval", "0.5"],
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


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mu-grid=lin:0,1,3\npeak-rate=5\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["mi-sweep", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().split("\n")) == 4  # header + 3 rows
    code, out, _ = _run(
        capsys, ["mi-sweep", "--config", str(cfg), "--mu-grid", "lin:0,1,5"]
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6  # flag wins over config


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("peak-rat=5\n", encoding="utf-8")
    code, _, err = _run(capsys, ["mi-sweep", "--config", str(cfg)])
    assert code == 2
    assert "peak-rat" in err


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
        # both levels saturate, so p1 - p0 is 0
        (["capacity", "--dead-time", "1e300", "--a-grid", "lin:1,2,2"],
         3, "ZeroDivisionError", True),
        (["capacity", "--background", "1e300", "--a-grid", "lin:1,2,2"],
         3, "ZeroDivisionError", False),
        # Poisson benchmark means beyond the rounding floor of its pmf sum;
        # a sum that grows its support until the sum rounds to 1 never stops
        (["mi-sweep", "--peak-rate", "200"], 0, None, True),
        (["mi-sweep", "--peak-rate", "1000"], 0, None, True),
        (["mi-sweep", "--peak-rate", "1e9"], 2, "exceeds exact-summation cap", False),
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
