"""Closed-form divergences between the two binomial output laws.

With N trials per symbol the outputs are Bin(L, p0) and Bin(L, p1); both
the KL divergences and the Chernoff alpha-divergence collapse to single-
trial expressions scaled by L.  Everything downstream depends on the laws
only through three exponentiated divergences:

    beta  = exp(-C_{1/2}(P1||P0)) = (sqrt(p0 p1) + sqrt((1-p0)(1-p1)))^L
    beta1 = exp(-KL(P1||P0))
    beta2 = exp(-KL(P0||P1))

Infinite divergences (absolute-continuity failures, e.g. p0 = 0) are kept
as +inf and map to an exact 0 on the beta scale.
"""

import math
from dataclasses import dataclass

from .channel import BinaryDetectionProbs
from .errors import ParameterError
from .guards import check_trials, check_unit


@dataclass(frozen=True)
class BetaTriple:
    """Exponentiated divergences driving every rate bound.

    Satisfies beta >= beta**2 >= max(beta1, beta2) whenever p0 != p1, with
    all three equal to 1 exactly when the laws coincide.
    """

    beta: float
    beta1: float
    beta2: float


def kl_binomial(p_from, p_to, trials):
    """KL(Bin(L,p_from) || Bin(L,p_to)) in nats; +inf when not absolutely continuous."""
    check_unit(p_from, "p_from")
    check_unit(p_to, "p_to")
    check_trials(trials)

    def term(a, b):
        # a*ln(a/b) with 0*ln(0/b) = 0 and a*ln(a/0) = +inf for a > 0
        if a == 0.0:
            return 0.0
        if b == 0.0:
            return math.inf
        return a * math.log(a / b)

    return trials * (term(p_from, p_to) + term(1.0 - p_from, 1.0 - p_to))


def chernoff_binomial(alpha, p_a, p_b, trials):
    """Chernoff alpha-divergence C_alpha(Bin(L,p_a) || Bin(L,p_b)) in nats.

    C_alpha = -L * ln(p_a^alpha p_b^(1-alpha) + (1-p_a)^alpha (1-p_b)^(1-alpha)),
    symmetric under (alpha, p_a, p_b) -> (1-alpha, p_b, p_a).
    """
    check_unit(alpha, "alpha")
    check_unit(p_a, "p_a")
    check_unit(p_b, "p_b")
    check_trials(trials)
    s = p_a**alpha * p_b ** (1.0 - alpha) + (1.0 - p_a) ** alpha * (1.0 - p_b) ** (
        1.0 - alpha
    )
    if s == 0.0:
        return math.inf
    return -trials * math.log(s)


def bhattacharyya_distance(p0, p1):
    """-ln(sqrt(p0 p1) + sqrt(q0 q1)): the single-trial C_{1/2}, which is
    also the large-L decay rate of the bound gap; 0 at p0 = p1 and +inf
    when the laws are disjoint."""
    check_unit(p0, "p0")
    check_unit(p1, "p1")
    if p0 == p1:
        return 0.0
    root = math.sqrt(p0 * p1) + math.sqrt((1.0 - p0) * (1.0 - p1))
    if root == 0.0:
        return math.inf
    return -math.log(root)


def beta_triple(probs: BinaryDetectionProbs, trials) -> BetaTriple:
    """The (beta, beta1, beta2) triple for Bin(L, p_off) vs Bin(L, p_on)."""
    check_trials(trials)
    p0, p1 = probs.p_off, probs.p_on
    if p0 == p1:
        return BetaTriple(1.0, 1.0, 1.0)
    beta = math.exp(-trials * bhattacharyya_distance(p0, p1))
    kl10 = kl_binomial(p1, p0, trials)
    kl01 = kl_binomial(p0, p1, trials)
    beta1 = 0.0 if math.isinf(kl10) else math.exp(-kl10)
    beta2 = 0.0 if math.isinf(kl01) else math.exp(-kl01)
    return BetaTriple(beta=beta, beta1=beta1, beta2=beta2)


def optimal_alpha_grid(probs: BinaryDetectionProbs, trials, grid_size):
    """Grid argmax over alpha of min{C_alpha(P1||P0), C_alpha(P0||P1)}.

    Verification oracle for the closed-form optimum alpha* = 1/2: returns
    (alpha_star, value).  Degenerate p0 = p1 yields (0.5, 0.0).
    """
    if grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    p0, p1 = probs.p_off, probs.p_on
    if p0 == p1:
        return 0.5, 0.0
    best_alpha, best_val = 0.5, -math.inf
    for i in range(grid_size):
        alpha = i / (grid_size - 1)
        val = min(
            chernoff_binomial(alpha, p1, p0, trials),
            chernoff_binomial(alpha, p0, p1, trials),
        )
        if val > best_val:
            best_alpha, best_val = alpha, val
    return best_alpha, best_val

