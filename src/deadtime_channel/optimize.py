"""Scalar maximization on [0, 1].

Every optimum used elsewhere in the library (duty cycles, bound gaps,
brute-force capacities) is either a closed form checked against this
module or produced by it, so the routine favours robustness over speed:
a dense coarse scan brackets the best point, then golden-section search
refines the bracket.

numpy picks the bracket; libm refines and prints.  A caller passes one
kernel twice: through ``math`` as the objective and through numpy as the
scan, one call over the interior scan points (or over an array the
caller cached for them, as the tuned lower envelope's divergence pairs).
The scan's values only choose the bracket: the endpoints, the winner and
every refinement point are evaluated by the scalar objective, so a
returned value can differ from the per-point scan's only where the two
best scan values lie within a few ulp of each other.  A caller without
an array form (the brute-force capacity) gets the per-point scan, the
objective at each interior point in turn, through the same statement.
The interior points are one read-only array per scan size, built once
per process.
"""

import functools
import math

import numpy as np

from .errors import NumericalFailure, ParameterError

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_COARSE_POINTS = 1024
DEFAULT_TOL = 1e-10


def maximize_scalar(f, tol=DEFAULT_TOL, coarse_points=DEFAULT_COARSE_POINTS, scan=None):
    """Maximize ``f`` on [0, 1]; returns ``(x_star, f_star)``.

    A uniform scan over ``coarse_points`` points picks the best bracket
    (ties break toward smaller x, so results are deterministic), then
    golden-section search shrinks the bracket below ``tol``.  Non-finite
    values are treated as -inf; if more than half the scan is non-finite
    the objective is considered broken.  ``scan`` (default: ``f`` per point)
    maps the read-only array of interior scan points ``i / (coarse_points - 1)``
    to the values of ``f`` there; ``f`` is evaluated again at the winner.
    """
    if not tol > 0:  # NaN included
        raise ParameterError(f"tol must be > 0, got {tol}")
    if coarse_points < 3:
        raise ParameterError("coarse_points must be >= 3")

    last = coarse_points - 1
    if scan is None:
        scan = lambda points: [f(x) for x in points.tolist()]
    with np.errstate(all="ignore"):
        vals = np.concatenate(([f(0.0)], scan(_interior(coarse_points)), [f(1.0)]), dtype=float)
    vals[~np.isfinite(vals)] = -math.inf
    bad = int(np.count_nonzero(vals == -math.inf))
    if bad > coarse_points // 2:
        raise NumericalFailure(
            f"objective non-finite at {bad}/{coarse_points} scan points"
        )

    best = int(np.argmax(vals))  # the first maximum
    best_x = best / last
    best_f = f(best_x)
    a, b = max(best - 1, 0) / last, min(best + 1, last) / last

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
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd

    return best_x, best_f


@functools.cache
def _interior(coarse_points):
    """The interior scan points i / (coarse_points - 1), read-only: one
    array per size, shared by every scan."""
    last = coarse_points - 1
    points = np.arange(1, last) / last
    points.flags.writeable = False
    return points
