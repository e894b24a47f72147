import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deadtime_channel import (
    BinaryDetectionProbs,
    NumericalFailure,
    ParameterError,
    beta_triple,
    bhattacharyya_distance,
    chernoff_binomial,
    kl_binomial,
)


def _random_probs(rng, low=0.01, high=0.99, min_gap=1e-3):
    p0, p1 = np.sort(rng.uniform(low, high, 2))
    if p1 - p0 < min_gap:
        p1 = min(high, p0 + 10 * min_gap)
    return float(p0), float(p1)


def test_bhattacharyya_distance_extremes():
    assert bhattacharyya_distance(0.3, 0.3) == 0.0
    assert bhattacharyya_distance(0.0, 1.0) == math.inf


def test_beta_is_the_root_power_bit_for_bit():
    # exp(-L * distance) rounds exactly as exp(L * ln(root)) did
    rng = np.random.default_rng(14)
    for _ in range(500):
        p0, p1 = _random_probs(rng, low=1e-6, high=1.0 - 1e-6, min_gap=0.0)
        trials = int(rng.integers(1, 10**5))
        root = math.sqrt(p0 * p1) + math.sqrt((1.0 - p0) * (1.0 - p1))
        beta = beta_triple(BinaryDetectionProbs(p0, p1), trials).beta
        assert beta == math.exp(trials * math.log(root))


def test_kl_identical_laws():
    assert kl_binomial(0.3, 0.3, 7) == 0.0


def test_kl_absolute_continuity_failure():
    assert kl_binomial(0.4, 0.0, 3) == math.inf
    assert kl_binomial(0.4, 1.0, 3) == math.inf
    assert kl_binomial(0.0, 0.3, 3) > 0.0  # finite: support contained


def test_kl_matches_bruteforce_summation():
    p_from, p_to, trials = 0.5, 0.25, 4
    total = 0.0
    for k in range(trials + 1):
        pmf_from = math.comb(trials, k) * p_from**k * (1 - p_from) ** (trials - k)
        pmf_to = math.comb(trials, k) * p_to**k * (1 - p_to) ** (trials - k)
        total += pmf_from * math.log(pmf_from / pmf_to)
    assert kl_binomial(p_from, p_to, trials) == pytest.approx(total, rel=1e-13)


def test_kl_domain_errors():
    with pytest.raises(ParameterError):
        kl_binomial(1.2, 0.5, 3)
    with pytest.raises(ParameterError):
        kl_binomial(0.5, 0.5, 0)


def test_chernoff_identical_laws():
    for alpha in (0.0, 0.3, 1.0):
        assert chernoff_binomial(alpha, 0.4, 0.4, 9) == 0.0


def test_chernoff_zero_p0_collapse():
    # C_{1/2}(Bin(p0=0) || Bin(p1)) = -(L/2) ln(1 - p1)
    p1, trials = 0.7, 6
    expected = -(trials / 2.0) * math.log(1.0 - p1)
    assert chernoff_binomial(0.5, 0.0, p1, trials) == pytest.approx(expected, rel=1e-14)


def test_chernoff_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p0, p1 = _random_probs(rng)
        alpha = float(rng.uniform(0.0, 1.0))
        trials = int(rng.integers(1, 80))
        a = chernoff_binomial(alpha, p1, p0, trials)
        b = chernoff_binomial(1.0 - alpha, p0, p1, trials)
        assert a == pytest.approx(b, rel=1e-12)


# probabilities over the whole unit interval, ends and subnormals included
_unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 64), _unit, _unit, st.integers(1, 100_000))
def test_chernoff_symmetry_bit_for_bit_at_the_scan_orders(i, p_a, p_b, trials):
    # i/64 are the tuned envelope's scan orders, and 1 - i/64 is exact, so
    # both sides sum the same two products in the same order: the same
    # value, or both refused where it rounds below 0
    def outcome(alpha, p_from, p_to):
        try:
            return chernoff_binomial(alpha, p_from, p_to, trials).hex()
        except NumericalFailure:
            return "refused"

    assert outcome(i / 64, p_a, p_b) == outcome(1.0 - i / 64, p_b, p_a)


def test_chernoff_alpha_domain():
    with pytest.raises(ParameterError):
        chernoff_binomial(1.5, 0.2, 0.3, 4)


def test_beta_triple_degenerate():
    triple = beta_triple(BinaryDetectionProbs(0.3, 0.3), 10)
    assert (triple.beta, triple.beta1, triple.beta2) == (1.0, 1.0, 1.0)


def test_beta_triple_zero_background_collapse():
    p1, trials = 0.6, 8
    triple = beta_triple(BinaryDetectionProbs(0.0, p1), trials)
    assert triple.beta == pytest.approx((1.0 - p1) ** (trials / 2.0), rel=1e-13)
    assert triple.beta1 == 0.0
    assert triple.beta2 == pytest.approx((1.0 - p1) ** trials, rel=1e-13)


def test_beta_chain_inequality():
    # beta > beta^2 >= max(beta1, beta2) whenever the laws differ
    rng = np.random.default_rng(22)
    for _ in range(200):
        p0, p1 = _random_probs(rng)
        trials = int(rng.integers(1, 120))
        t = beta_triple(BinaryDetectionProbs(p0, p1), trials)
        assert t.beta > t.beta**2 >= max(t.beta1, t.beta2) - 1e-16


def test_jensen_chain():
    # C_{1/2} <= (1/2) min{KL(P0||P1), KL(P1||P0)}
    rng = np.random.default_rng(23)
    for _ in range(100):
        p0, p1 = _random_probs(rng)
        trials = int(rng.integers(1, 60))
        c_half = chernoff_binomial(0.5, p1, p0, trials)
        bound = 0.5 * min(kl_binomial(p0, p1, trials), kl_binomial(p1, p0, trials))
        assert c_half <= bound + 1e-12


def test_kl_asymmetry_sign_matches_p0_plus_p1():
    rng = np.random.default_rng(24)
    for _ in range(200):
        p0, p1 = _random_probs(rng)
        trials = int(rng.integers(1, 40))
        diff = kl_binomial(p1, p0, trials) - kl_binomial(p0, p1, trials)
        if abs(p0 + p1 - 1.0) < 1e-12:
            assert diff == pytest.approx(0.0, abs=1e-12)
        elif p0 + p1 < 1.0:
            assert diff > 0.0
        else:
            assert diff < 0.0


def test_kl_asymmetry_vanishes_on_complementary_pair():
    trials = 9
    assert kl_binomial(0.75, 0.25, trials) == pytest.approx(
        kl_binomial(0.25, 0.75, trials), rel=1e-14
    )


def test_alpha_grid_half_dominates_everywhere():
    probs, trials = BinaryDetectionProbs(0.1, 0.7), 10
    at_half = min(
        chernoff_binomial(0.5, probs.p_on, probs.p_off, trials),
        chernoff_binomial(0.5, probs.p_off, probs.p_on, trials),
    )
    for i in range(101):
        alpha = i / 100.0
        val = min(
            chernoff_binomial(alpha, probs.p_on, probs.p_off, trials),
            chernoff_binomial(alpha, probs.p_off, probs.p_on, trials),
        )
        assert at_half >= val - 1e-14

