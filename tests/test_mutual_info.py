import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

import deadtime_channel

from deadtime_channel import (
    BinaryDetectionProbs,
    ParameterError,
    binary_entropy,
    beta_triple,
    mi_binomial_mixture,
    mi_discrete_poisson,
    mi_max_bruteforce,
    upper_envelope,
)
from deadtime_channel import experiments, mutual_info
from deadtime_channel.mutual_info import (
    MAX_TRIALS_EXACT,
    POISSON_TAIL_MASS,
    _binomial_logpmf_support,
    _entropy_from_pmf,
    _log_factorials,
    _poisson_pmf_support,
    _poisson_support_max,
    _xlogy,
    mi_binomial_curve,
)

# -0.25 ln 0.25 - 0.75 ln 0.75, 50-digit reference
H_QUARTER = 0.56233514461880835028803031522445885766538235035344


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_maximum():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), rel=0, abs=0)


def test_binary_entropy_value():
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, rel=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(ParameterError):
        binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


def _log_pmf(trials, p, k):
    return _binomial_logpmf_support(trials, p)[k]


def test_log_pmf_certain_outcome():
    assert _log_pmf(5, 1.0, 5) == 0.0
    assert _log_pmf(5, 0.0, 0) == 0.0


def test_log_pmf_hand_countable():
    assert _log_pmf(4, 0.5, 2) == pytest.approx(math.log(6.0 / 16.0), rel=1e-15)


def test_log_pmf_impossible_outcomes():
    assert _log_pmf(5, 0.0, 2) == -math.inf
    assert _log_pmf(5, 1.0, 4) == -math.inf


def test_log_pmf_against_exact_rational():
    trials, k = 200, 60
    p = 0.3
    exact = (
        Fraction(math.comb(trials, k))
        * Fraction(p) ** k
        * (1 - Fraction(p)) ** (trials - k)
    )
    assert math.exp(_log_pmf(trials, p, k)) == pytest.approx(float(exact), rel=1e-12)


# scipy is the oracle here only: the package computes ln k! and k ln y itself


def test_log_factorials_match_gammaln_bit_for_bit(monkeypatch):
    # from an empty table: each read grows it, and it stays shorter than
    # twice the largest count read so far
    monkeypatch.setattr(mutual_info, "_log_factorial_table", np.empty(0))
    for n in (1, 12, 13, 31, 201, 10_001, _poisson_support_max(MAX_TRIALS_EXACT)):
        table = _log_factorials(n)
        assert len(table) == n + 1
        assert np.array_equal(table, gammaln(np.arange(n + 1) + 1.0))
        assert not table.flags.writeable
        assert len(mutual_info._log_factorial_table) < 2 * (n + 1)


@pytest.mark.parametrize("y", [0.0, 5e-324, 1e-300, 0.02, 0.5, 1.0 - 2.0**-53, 1.0])
def test_xlogy_matches_scipy(y):
    k = np.arange(1001, dtype=np.float64)
    with np.errstate(divide="ignore"):
        expected = xlogy(k, y)
    assert np.array_equal(_xlogy(k, y), expected)


def _gammaln_binomial_logpmf(trials, p):
    k = np.arange(trials + 1, dtype=np.float64)
    comb = gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return comb + xlogy(k, p) + xlogy(trials - k, 1.0 - p)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2000), st.floats(0.0, 1.0))
def test_binomial_logpmf_matches_gammaln_expression(trials, p):
    assert np.array_equal(
        _binomial_logpmf_support(trials, p), _gammaln_binomial_logpmf(trials, p)
    )


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1000.0))
def test_poisson_pmf_matches_gammaln_expression(mean):
    n_max = _poisson_support_max(mean)
    k = np.arange(n_max + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        expected = np.exp(xlogy(k, mean) - mean - gammaln(k + 1.0))
    assert np.array_equal(_poisson_pmf_support(mean, n_max), expected)


# Modules whose import would cost every run start-up time and resident
# memory: scipy is a test oracle only, and concurrent.futures loads logging,
# so the Monte Carlo sampler runs on plain threads.
_UNLOADED = ("scipy", "logging", "concurrent.futures")

_IMPORT_THEN_SIMULATE = f"""
import os, sys, deadtime_channel.cli
print([name for name in {_UNLOADED!r} if name in sys.modules])
deadtime_channel.cli.main(["simulate", "--symbols", "20000", "--out", os.devnull])
print([name for name in {_UNLOADED!r} if name in sys.modules])
"""


def test_cli_import_leaves_scipy_unloaded():
    src = Path(deadtime_channel.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_THEN_SIMULATE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


@pytest.mark.parametrize("trials", [2.5, 0, -1])
def test_mi_refuses_non_positive_integer_trials(trials):
    with pytest.raises(ParameterError, match="trials must be a positive integer"):
        mi_binomial_mixture(0.5, BinaryDetectionProbs(0.1, 0.5), trials)


def test_mi_accepts_integer_valued_float_trials():
    probs = BinaryDetectionProbs(0.1, 0.5)
    assert mi_binomial_mixture(0.5, probs, 30.0) == mi_binomial_mixture(0.5, probs, 30)


def test_mi_zero_at_deterministic_prior():
    probs = BinaryDetectionProbs(0.1, 0.6)
    assert mi_binomial_mixture(0.0, probs, 12) == 0.0
    assert mi_binomial_mixture(1.0, probs, 12) == 0.0


def test_mi_noiseless_binary_channel():
    assert mi_binomial_mixture(0.5, BinaryDetectionProbs(0.0, 1.0), 1) == pytest.approx(
        math.log(2.0), rel=1e-15
    )


def test_mi_sandwiched_by_envelopes():
    probs = BinaryDetectionProbs(0.0198, 0.181)
    trials = 30
    triple = beta_triple(probs, trials)
    mi = mi_binomial_mixture(0.5, probs, trials)
    assert upper_envelope(0.5, triple.beta, triple.beta) <= mi <= upper_envelope(
        0.5, triple.beta1, triple.beta2
    )


def test_mi_symmetry_under_relabeling():
    # swapping the two laws and mu -> 1 - mu leaves the information unchanged
    rng = np.random.default_rng(31)
    for _ in range(25):
        p0, p1 = np.sort(rng.uniform(0.02, 0.98, 2))
        mu = float(rng.uniform(0.05, 0.95))
        trials = int(rng.integers(1, 50))
        a = mi_binomial_mixture(mu, BinaryDetectionProbs(p0, p1), trials)
        b = mi_binomial_mixture(1.0 - mu, BinaryDetectionProbs(1.0 - p1, 1.0 - p0), trials)
        assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


def test_mixture_pmf_normalized():
    probs = BinaryDetectionProbs(0.02, 0.4)
    for p in (probs.p_off, probs.p_on):
        pmf = np.exp(_binomial_logpmf_support(60, p))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_mi_concave_in_mu():
    probs = BinaryDetectionProbs(0.0004, 0.1816)
    vals = [mi_binomial_mixture(m, probs, 30) for m in np.linspace(0.01, 0.99, 99)]
    second = np.diff(vals, 2)
    assert second.max() <= 1e-9


def test_mi_trials_cap():
    with pytest.raises(ParameterError):
        mi_binomial_mixture(0.5, BinaryDetectionProbs(0.1, 0.2), MAX_TRIALS_EXACT + 1)


_unit = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(_unit, _unit, st.integers(1, 2000), _unit)
def test_mi_curve_matches_pointwise_bit_for_bit(pa, pb, trials, mu):
    probs = BinaryDetectionProbs(min(pa, pb), max(pa, pb))
    value = mi_binomial_curve(probs, trials)(mu)
    assert value == mi_binomial_mixture(mu, probs, trials)
    if 0.0 < mu < 1.0 and pa != pb:
        # the three-entropy expression, each entropy taken afresh
        pmf0 = np.exp(_binomial_logpmf_support(trials, probs.p_off))
        pmf1 = np.exp(_binomial_logpmf_support(trials, probs.p_on))
        mix = (1.0 - mu) * pmf0 + mu * pmf1
        assert value == (
            _entropy_from_pmf(mix)
            - (1.0 - mu) * _entropy_from_pmf(pmf0)
            - mu * _entropy_from_pmf(pmf1)
        )


@pytest.fixture
def pmf_calls(monkeypatch):
    calls = []
    original = mutual_info._binomial_logpmf_support

    def counted(trials, p):
        calls.append((trials, p))
        return original(trials, p)

    monkeypatch.setattr(mutual_info, "_binomial_logpmf_support", counted)
    return calls


def test_mi_max_builds_each_pmf_once(pmf_calls):
    mi_max_bruteforce(BinaryDetectionProbs(0.02, 0.2), 30)
    assert len(pmf_calls) == 2


def test_mi_sweep_builds_each_pmf_once(pmf_calls):
    _, rows = experiments.run("mi-sweep", {"mu_grid": "lin:0,1,41"})
    assert len(rows) == 41
    assert len(pmf_calls) == 2


def test_mi_curve_refusals(pmf_calls):
    with pytest.raises(ParameterError, match="exceeds exact-summation cap"):
        mi_binomial_curve(BinaryDetectionProbs(0.1, 0.2), MAX_TRIALS_EXACT + 1)
    assert pmf_calls == []
    probs = BinaryDetectionProbs(0.1, 0.2)
    message = r"^mu must be in \[0, 1\], got -0.5$"
    with pytest.raises(ParameterError, match=message):
        mi_binomial_curve(probs, 30)(-0.5)
    with pytest.raises(ParameterError, match=message):
        mi_binomial_mixture(-0.5, probs, 30)


def test_mi_max_degenerate_convention():
    assert mi_max_bruteforce(BinaryDetectionProbs(0.3, 0.3), 10) == (0.5, 0.0)


def test_mi_max_approaches_ln2_for_many_samples():
    _, imax = mi_max_bruteforce(BinaryDetectionProbs(0.02, 0.2), 2000)
    assert imax == pytest.approx(math.log(2.0), abs=1e-3)


def test_mi_max_approaches_ln2_for_strong_signal():
    _, imax = mi_max_bruteforce(BinaryDetectionProbs(0.0, 0.9999), 50)
    assert imax == pytest.approx(math.log(2.0), abs=1e-3)


def test_poisson_mi_degenerate():
    assert mi_discrete_poisson(0.5, 3.0, 3.0) == 0.0
    assert mi_discrete_poisson(0.0, 0.1, 5.0) == 0.0
    assert mi_discrete_poisson(1.0, 0.1, 5.0) == 0.0


def test_poisson_benchmark_dominates_sampled_receiver():
    # perfect counting over the symbol cannot be worse than the window sums
    probs = BinaryDetectionProbs(
        -math.expm1(-0.0004), -math.expm1(-0.2004)
    )
    for mu in (0.2, 0.5, 0.8):
        sampled = mi_binomial_mixture(mu, probs, 30)
        perfect = mi_discrete_poisson(mu, 0.02, 10.02)
        assert perfect >= sampled


def test_poisson_mi_domain():
    with pytest.raises(ParameterError):
        mi_discrete_poisson(0.5, -1.0, 2.0)
    with pytest.raises(ParameterError):
        mi_discrete_poisson(1.5, 1.0, 2.0)
    with pytest.raises(ParameterError):
        mi_discrete_poisson(0.5, 0.0, MAX_TRIALS_EXACT * 1.01)


def test_poisson_support_leaves_negligible_tail():
    means = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 400)))
    n_max = np.array([_poisson_support_max(m) for m in means])
    assert poisson.sf(n_max, means).max() < POISSON_TAIL_MASS
    # rounding keeps 1 - sum(pmf) above the tail mass here; the sum must
    # still finish in one pass
    value = mi_discrete_poisson(0.5, 0.02, 1e3)
    assert 0.0 < value <= math.log(2.0)


def _gaussian_entropy(trials, p):
    # H(Bin(trials, p)) ~ 0.5 ln(2 pi e trials p (1-p)), error O(1/trials)
    return 0.5 * math.log(2.0 * math.pi * math.e * trials * p * (1.0 - p))


def test_gaussian_entropy_error_order():
    trials = 500
    pmf = np.exp(_binomial_logpmf_support(trials, 0.3))
    err = abs(_gaussian_entropy(trials, 0.3) - _entropy_from_pmf(pmf))
    assert err <= 0.1 / trials


def test_gaussian_entropy_error_scales_inversely_with_trials():
    errs = []
    for trials in (50, 5000):
        pmf = np.exp(_binomial_logpmf_support(trials, 0.3))
        errs.append(abs(_gaussian_entropy(trials, 0.3) - _entropy_from_pmf(pmf)))
    assert 80.0 <= errs[0] / errs[1] <= 125.0
