import math
from fractions import Fraction

import numpy as np
import pytest

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
from deadtime_channel.mutual_info import (
    MAX_TRIALS_EXACT,
    _binomial_logpmf_support,
    _entropy_from_pmf,
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
