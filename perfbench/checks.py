"""Output checks: every command's exit code, CSV contract and row invariants.

Each check is one attempt; a failed check is one failure.  Per command
the checks are the exit code, the output's line endings, the header and
the row count; then one check per row, covering its .17g format, where
NaN may appear, the row's invariant and, for presets, its agreement with
the reference output of the same preset.

Failures are of three kinds:

exact          a wrong output: the run is not correct.  A Monte Carlo
               z-score that is not finite or has |z| >= 6 is one.  A
               correct simulator's z-scores are close to standard normal,
               which reaches |z| >= 6 with probability 2e-9 per score.
known-defect   exact MI outside its envelopes at L >= 1000, by at most
               1e-9 nats.  Full-support summation loses precision at large
               L (log-gamma of numbers near L).  The rows count as failures
               and set the worst slack, but do not mark the run incorrect.
statistical    a Monte Carlo z-score with 3 <= |z| < 6, which a correct
               simulator shows with probability 0.27% per score
"""

import math

from workloads import EXPECTED_FAILING_CHECKS, VALIDATION_CHECKS

HEADERS = {
    "mi-sweep": "mu,exact_mi,lower,lower_sub,upper,upper_sub,approx,poisson_benchmark",
    "duty-imax": "A,mu_exact,mu_approx,mu_lower,mu_upper,imax_exact,imax_lower,imax_upper,imax_approx",
    "gap": "x,gap_numeric,gap_lower_formula,gap_upper_formula,offset_numeric,offset_formula,fitted_rate,predicted_rate",
    "capacity": "A,tau,mu_star,capacity_nats,capacity_bits,wyner_capacity,approx_low_A,limit_large_A",
    "simulate": "symbols,p0_hat,p0_closed,p1_hat,p1_closed,mi_plugin,mi_exact,z_p0,z_p1,z_mi",
}

# Columns documented as not applicable (nan) for some rows.
NAN_COLUMNS = {
    "mi-sweep": {"approx"},
    "duty-imax": {"mu_approx", "imax_approx"},
    "gap large-L": {"offset_numeric", "offset_formula"},
    "gap zero-lambda": {"offset_numeric", "offset_formula"},
}

# Two independently rounded float64 values near ln 2 differ by up to 7 ulp
# at L = 30 (duty-imax at saturation), so comparisons allow 16 ulp.
TOL_ULPS = 16
KNOWN_DEFECT_MIN_TRIALS = 1000
KNOWN_DEFECT_MAX_SHORTFALL = 1e-9
REFERENCE_RTOL = 1e-6
# simulate columns that do not depend on the seed
SEED_FREE_COLUMNS = {"symbols", "p0_closed", "p1_closed", "mi_exact"}
Z_LIMIT = 3.0  # statistical miss from here
Z_EXACT = 6.0  # wrong output from here


def _leq(a, b):
    """a <= b up to TOL_ULPS of rounding."""
    return a <= b + TOL_ULPS * math.ulp(max(abs(a), abs(b)))


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


class Tally:
    """Counts of checks attempted and failed, by kind, with failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = {"exact": 0, "known-defect": 0, "statistical": 0}
        self.notes = []
        self.slack_min = None  # signed worst sandwich slack, nats
        self.identical_outputs = 0  # preset outputs byte-identical to reference
        self.reference_outputs = 0

    @property
    def failures(self):
        return sum(self.failed.values())

    @property
    def correct(self):
        return self.failed["exact"] == 0

    def check(self, ok, note, kind="exact"):
        self.attempted += 1
        if not ok:
            self.failed[kind] += 1
            if len(self.notes) < 50:
                self.notes.append(f"[{kind}] {note}")
        return ok

    def slack(self, value):
        if self.slack_min is None or value < self.slack_min:
            self.slack_min = value

    def merge(self, other, notes=True):
        """Add ``other``'s checks to this tally."""
        self.attempted += other.attempted
        for kind, n in other.failed.items():
            self.failed[kind] += n
        if notes:
            self.notes.extend(other.notes[: max(0, 50 - len(self.notes))])
        if other.slack_min is not None:
            self.slack(other.slack_min)
        self.identical_outputs += other.identical_outputs
        self.reference_outputs += other.reference_outputs


def _sandwich(tally, cmd, lower, exact, upper):
    """Row kind for lower <= exact <= upper, recording the signed slack."""
    tally.slack(min(exact - lower, upper - exact))
    if _leq(lower, exact) and _leq(exact, upper):
        return None
    shortfall = max(lower - exact, exact - upper)
    if cmd.trials >= KNOWN_DEFECT_MIN_TRIALS and shortfall <= KNOWN_DEFECT_MAX_SHORTFALL:
        return "known-defect", f"outside envelopes by {shortfall:.3g} at L={cmd.trials}"
    return "exact", f"outside envelopes by {shortfall:.3g}"


def _row_problem(tally, cmd, row):
    """(kind, reason) for the first invariant the row breaks, else None."""
    sub = cmd.subcommand
    if sub == "mi-sweep":
        return _sandwich(tally, cmd, row["lower"], row["exact_mi"], row["upper"])
    if sub == "duty-imax":
        for col in ("mu_exact", "mu_approx", "mu_lower", "mu_upper"):
            if not math.isnan(row[col]) and not 0.0 <= row[col] <= 1.0:
                return "exact", f"{col}={row[col]!r} outside [0, 1]"
        return _sandwich(tally, cmd, row["imax_lower"], row["imax_exact"], row["imax_upper"])
    if sub == "gap":
        if not (math.isfinite(row["gap_numeric"]) and row["gap_numeric"] >= 0.0):
            return "exact", f"gap_numeric={row['gap_numeric']!r}"
        return None
    if sub == "capacity":
        if not 0.0 <= row["mu_star"] <= 1.0:
            return "exact", f"mu_star={row['mu_star']!r} outside [0, 1]"
        if not _leq(row["capacity_nats"], row["wyner_capacity"]):
            return "exact", "capacity_nats above wyner_capacity"
        return None
    if sub == "simulate":
        if row["symbols"] != cmd.symbols:
            return "exact", f"symbols={row['symbols']!r}, asked {cmd.symbols}"
        zs = [row[c] for c in ("z_p0", "z_p1", "z_mi")]
        worst = max(abs(z) if math.isfinite(z) else math.inf for z in zs)
        if worst >= Z_LIMIT:
            kind = "exact" if worst >= Z_EXACT else "statistical"
            return kind, "z-scores " + ", ".join(f"{z:+.2f}" for z in zs)
        return None
    return "exact", f"unknown subcommand {sub}"


def _check_validate(tally, cmd, lines):
    tally.check(len(lines) == cmd.rows + 1, f"{cmd.label}: {len(lines)} lines")
    for line, name in zip(lines, VALIDATION_CHECKS):
        mark = "FAIL" if name in EXPECTED_FAILING_CHECKS else "PASS"
        tally.check(line.startswith(f"[{mark}] {name}: "), f"{cmd.label}: {line!r}")
    passed = len(VALIDATION_CHECKS) - len(EXPECTED_FAILING_CHECKS)
    summary = f"{passed}/{len(VALIDATION_CHECKS)} checks passed"
    tally.check(lines[-1:] == [summary], f"{cmd.label}: last line {lines[-1:]}")


def _parse(cells, header):
    if len(cells) != len(header):
        return None, f"{len(cells)} cells, header has {len(header)}"
    row = {}
    for col, cell in zip(header, cells):
        try:
            value = float(cell)
        except ValueError:
            return None, f"{col}={cell!r} is not a number"
        if cell != f"{value:.17g}":
            return None, f"{col}={cell!r} is not .17g"
        row[col] = value
    return row, None


def check_command(cmd, returncode, data, reference=None):
    """Check one command's exit code and output bytes.

    ``reference`` holds the bytes of the same preset's reference output.
    Returns the command's Tally and its number of CSV rows.
    """
    tally = Tally()
    return tally, _check_command(tally, cmd, returncode, data, reference)


def _check_command(tally, cmd, returncode, data, reference):
    expected_rc = 1 if cmd.subcommand == "validate" else 0
    tally.check(returncode == expected_rc, f"{cmd.label}: exit code {returncode}")
    if not tally.check(data is not None, f"{cmd.label}: no output"):
        return 0
    tally.check(
        b"\r" not in data and data.endswith(b"\n"), f"{cmd.label}: not LF-terminated lines"
    )
    try:
        lines = data.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        tally.check(False, f"{cmd.label}: output is not UTF-8")
        return 0
    if cmd.subcommand == "validate":
        _check_validate(tally, cmd, lines)
        return 0

    header = lines[0].split(",") if lines else []
    tally.check(lines[:1] == [HEADERS[cmd.subcommand]], f"{cmd.label}: header {lines[:1]}")
    body = lines[1:]
    tally.check(len(body) == cmd.rows, f"{cmd.label}: {len(body)} rows, expected {cmd.rows}")
    nan_ok = NAN_COLUMNS.get(cmd.subcommand, set()) | NAN_COLUMNS.get(f"gap {cmd.scenario}", set())
    ref_rows = None
    if reference is not None:
        tally.reference_outputs += 1
        tally.identical_outputs += data == reference
        ref_rows = [r.split(",") for r in reference.decode("utf-8").split("\n")[1:-1]]
        columns = SEED_FREE_COLUMNS if cmd.subcommand == "simulate" else set(header)
    for i, line in enumerate(body):
        where = f"{cmd.label} row {i + 1}"
        row, problem = _parse(line.split(","), header)
        if problem:
            tally.check(False, f"{where}: {problem}")
            continue
        bad_nan = [c for c, v in row.items() if math.isnan(v) and c not in nan_ok]
        if bad_nan:
            tally.check(False, f"{where}: nan in {bad_nan}")
            continue
        if ref_rows is not None:
            ref = ref_rows[i] if i < len(ref_rows) else []
            off = [
                c for j, c in enumerate(header)
                if c in columns and (j >= len(ref) or not _close(row[c], float(ref[j])))
            ]
            if off:
                tally.check(False, f"{where}: differs from reference in {off}")
                continue
        found = _row_problem(tally, cmd, row)
        if found is None:
            tally.check(True, where)
        else:
            kind, reason = found
            tally.check(False, f"{where}: {reason}", kind)
    return len(body)
