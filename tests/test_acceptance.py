"""Acceptance gate: every headline criterion, one test each, stated tolerances.

Each test prints its check's line (visible with -s or on failure).  The
single expected failure is marked xfail at runtime and documented in
deadtime_channel.validation; everything else must pass as specified.
Every check's (label, op, limit) rows are pinned below, so a moved limit
fails here even when the verdict does not change.
"""

import math

import pytest

from deadtime_channel import validation
from deadtime_channel.validation import CheckResult

LIMITS = {
    "sandwich-1000-tuples": [
        ("worst slack nats", ">=", -1e-9),
        ("seconds", "<", 10.0),
    ],
    "half-alpha-optimal": [("worst |alpha* - 1/2|", "<=", 1.0 / 998 + 1e-12)],
    "large-L-gap-rate": [
        ("rate rel error at A=5", "<=", 0.02),
        ("rate rel error at A=10", "<=", 0.02),
    ],
    "zero-background-gap-rate": [
        ("rate rel error", "<=", 0.02),
        ("min gap/leading", ">=", 0.9),
        ("max gap/leading", "<=", 2.1),
    ],
    "low-A-quadratic-gap": [
        ("coeff rel error at L=10", "<=", 0.01),
        ("coeff rel error at L=20", "<=", 0.01),
    ],
    "gap-offset-rates": [
        ("large-peak rate rel error", "<=", 0.05),
        ("low-background exponent rel error", "<=", 0.05),
    ],
    "capacity-closed-vs-bruteforce": [
        ("worst rel capacity error", "<=", 1e-8),
        ("worst duty cycle error", "<=", 1e-6),
        ("seconds", "<", 5.0),
    ],
    "duty-cycle-limits": [
        ("low-A zero-background mu* error", "<=", 1e-3),
        ("high-A zero-background mu* error", "<=", 1e-3),
        ("low-A background mu* error", "<=", 1e-3),
        ("high-A background mu* error", "<=", 1e-3),
    ],
    "capacity-limits": [
        ("saturation error", "<=", 1e-3),
        ("low-rate slope rel error", "<=", 1e-3),
        ("background saturation error", "<=", 1e-3),
    ],
    "continuous-poisson-convergence": [
        ("steps where the rel gap does not fall with tau", "==", 0),
        ("rel gap at the smallest tau", "<=", 0.01),
        ("|mu* - q*| at the smallest tau", "<=", 1e-3),
    ],
    "low-A-capacity-coefficients": [
        ("poisson coeff rel error", "<=", 0.01),
        ("taus with d_tau >= d_poi", "==", 0),
        ("d_tau/d_poi rel error", "<=", 1e-3),
    ],
    "saturation-coefficient": [
        ("c(0) != ln2", "==", 0),
        ("steps where c does not fall", "==", 0),
        ("c(20)", "<", 1e-2),
    ],
    "capacity-monotonicity": [
        ("steps where C does not rise in A", "==", 0),
        ("steps where C/A does not fall", "==", 0),
        ("steps where C does not rise in tau at fixed T_s", "==", 0),
        ("steps where C does not fall in tau at zero background", "==", 0),
    ],
    "monte-carlo-validation": [
        ("|z_p0|", "<", 3.0),
        ("|z_p1|", "<", 3.0),
        ("|z_mi|", "<", 3.0),
        ("reruns that differ", "==", 0),
        ("seconds", "<", 30.0),
    ],
    "approx-beats-bounds": [("share of 90 points won", ">=", 0.9)],
}


@pytest.mark.parametrize(
    "check", validation.ALL_CHECKS, ids=[c.__name__ for c in validation.ALL_CHECKS]
)
def test_acceptance_criterion(check):
    result = check()
    line = result.line()
    print(line)
    labels = [label for label, _, _, _ in result.rows]
    assert len(set(labels)) == len(labels), labels
    assert [(label, op, limit) for label, _, op, limit in result.rows] == LIMITS[result.name]
    if result.name in validation.EXPECTED_FAILURES:
        if result.passed:
            pytest.fail(
                f"{result.name} unexpectedly passed; remove it from "
                "EXPECTED_FAILURES and the ledger note"
            )
        pytest.xfail(f"documented spec-target failure: {line}")
    assert result.passed, line


def test_check_result_rows_decide_the_verdict():
    good = ("error", 1e-4, "<=", 1e-3)
    assert CheckResult("demo", (good, ("count", 0, "==", 0))).passed
    # a NaN fails every comparison, so it fails its row and the check
    for op in ("<", "<=", "==", ">="):
        assert not CheckResult("demo", (good, ("value", math.nan, op, 1.0))).passed
    failing = CheckResult("demo", (good, ("count", 2, "==", 0)))
    assert not failing.passed
    assert failing.line() == "[FAIL] demo: error 0.0001 <= 0.001; count 2 == 0"
    assert CheckResult("demo", (good,)).line().startswith("[PASS] demo: ")
