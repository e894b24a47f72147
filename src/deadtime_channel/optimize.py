"""Scalar maximization on [0, 1].

Every optimum used elsewhere in the library (duty cycles, bound gaps,
brute-force capacities) is either a closed form checked against this
module or produced by it, so the routine favours robustness over speed:
a dense coarse scan brackets the best point, then golden-section search
refines the bracket.
"""

import math

from .errors import NumericalFailure, ParameterError

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_COARSE_POINTS = 1024
DEFAULT_TOL = 1e-10


def maximize_scalar(f, tol=DEFAULT_TOL, coarse_points=DEFAULT_COARSE_POINTS):
    """Maximize ``f`` on [0, 1]; returns ``(x_star, f_star)``.

    A uniform scan over ``coarse_points`` points picks the best bracket
    (ties break toward smaller x, so results are deterministic), then
    golden-section search shrinks the bracket below ``tol``.  Non-finite
    values are treated as -inf; if more than half the scan is non-finite
    the objective is considered broken.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    if coarse_points < 3:
        raise ParameterError("coarse_points must be >= 3")

    xs = [i / (coarse_points - 1) for i in range(coarse_points)]
    vals = [v if math.isfinite(v := f(x)) else -math.inf for x in xs]
    bad = vals.count(-math.inf)
    if bad > coarse_points // 2:
        raise NumericalFailure(
            f"objective non-finite at {bad}/{coarse_points} scan points"
        )

    best_f = max(vals)
    best = vals.index(best_f)
    best_x = xs[best]

    a = xs[best - 1] if best > 0 else xs[0]
    b = xs[best + 1] if best < coarse_points - 1 else xs[-1]

    # Golden-section refinement inside the bracket around the scan winner.
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if math.isnan(fc) or math.isnan(fd):
            raise NumericalFailure("objective returned NaN during refinement")
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
        for x, v in ((c, fc), (d, fd)):
            if v > best_f:
                best_x, best_f = x, v

    return best_x, best_f

