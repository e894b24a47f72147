"""The alpha-grid oracle of ``half-alpha-optimal``, against the scalar loop
it replaced: the same (alpha*, value) bit for bit wherever the laws are
resolved, and the same refusal where they agree to within rounding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deadtime_channel import (
    BinaryDetectionProbs,
    NumericalFailure,
    ParameterError,
    chernoff_binomial,
)
from deadtime_channel.validation import ALPHA_GRID_SIZE, optimal_alpha_grid


def _loop_alpha_grid(probs, trials):
    """The oracle as a loop of checked scalar calls over the grid, keeping
    the first strict maximum of the smaller divergence."""
    p0, p1 = probs.p_off, probs.p_on
    if p0 == p1:
        return 0.5, 0.0
    best_alpha, best_val = 0.5, -math.inf
    for i in range(ALPHA_GRID_SIZE):
        alpha = i / (ALPHA_GRID_SIZE - 1)
        val = min(
            chernoff_binomial(alpha, p1, p0, trials),
            chernoff_binomial(alpha, p0, p1, trials),
        )
        if val > best_val:
            best_alpha, best_val = alpha, val
    return best_alpha, best_val


@st.composite
def _resolved_laws(draw, min_gap=1e-4):
    """(p_off, p_on) in [0, 1], endpoints included, at least ``min_gap`` apart."""
    p_off = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - min_gap)))
    p_on = draw(st.one_of(st.just(1.0), st.floats(p_off + min_gap, 1.0)))
    return p_off, p_on


@settings(max_examples=150, deadline=None)
@given(_resolved_laws(), st.integers(1, 300))
def test_alpha_grid_matches_the_scalar_loop_bit_for_bit(laws, trials):
    probs = BinaryDetectionProbs(*laws)
    alpha, value = optimal_alpha_grid(probs, trials)
    expected = _loop_alpha_grid(probs, trials)
    assert (alpha.hex(), value.hex()) == tuple(v.hex() for v in expected)


@pytest.mark.parametrize(
    "p_on, message",
    [
        # the first negative grid value is C_alpha(P1||P0) ...
        (
            0.5000000000000001,
            "C_alpha = -1.554312234475219e-15 rounds below 0 at alpha = "
            "0.01603206412825651, p_a = 0.5000000000000001, p_b = 0.5",
        ),
        # ... and here C_alpha(P0||P1)
        (
            0.5000000000000006,
            "C_alpha = -1.554312234475219e-15 rounds below 0 at alpha = "
            "0.01603206412825651, p_a = 0.5, p_b = 0.5000000000000006",
        ),
    ],
)
def test_alpha_grid_refuses_laws_equal_to_within_rounding(p_on, message):
    probs = BinaryDetectionProbs(0.5, p_on)
    for oracle in (optimal_alpha_grid, _loop_alpha_grid):
        with pytest.raises(NumericalFailure) as refused:
            oracle(probs, 7)
        assert str(refused.value) == message


def test_alpha_grid_checks_the_trial_count():
    with pytest.raises(ParameterError, match="trials must be a positive integer, got 2.5"):
        optimal_alpha_grid(BinaryDetectionProbs(0.2, 0.6), 2.5)


def test_alpha_grid_hits_half():
    rng = np.random.default_rng(25)
    for _ in range(20):
        p0, p1 = np.sort(rng.uniform(0.01, 0.99, 2))
        if p1 - p0 < 1e-3:
            p1 = min(0.99, p0 + 1e-2)
        trials = int(rng.integers(1, 60))
        alpha, _ = optimal_alpha_grid(BinaryDetectionProbs(float(p0), float(p1)), trials)
        assert abs(alpha - 0.5) <= 1.0 / 998.0 + 1e-12


def test_alpha_grid_degenerate_convention():
    assert optimal_alpha_grid(BinaryDetectionProbs(0.2, 0.2), 5) == (0.5, 0.0)
