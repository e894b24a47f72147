"""High-precision mpmath versions of the capacity, duty-imax and gap sweeps'
cells.

Each function takes the same double inputs as the library and evaluates
its quantity exactly in those inputs, to ``DIGITS`` significant digits
(more where a ratio of rates needs them), and returns a float.  The
probabilities are built from the rates, so that q = e^(-x) holds exactly
instead of being rebuilt as 1 - p.  Nothing here calls the library, so a
test that scores the library against these functions checks it against
an independent evaluation of the paper's formulas.
"""

import math

import mpmath

# 60 digits leave more than 40 after the worst cancellation of the capacity
# presets: F(mu*) ~ d^2 and a q0 - p0 ~ d lose about 2 log10(1 / (A tau)) <= 8.
DIGITS = 60


def levels(peak_rate, background_rate, dead_time):
    """(p0, q0, p1, q1, d) as mpf, with x = rate * tau, p = 1 - e^(-x),
    q = e^(-x) and d = p1 - p0, at the current precision."""
    peak, background, tau = (mpmath.mpf(v) for v in (peak_rate, background_rate, dead_time))
    x0, x1 = background * tau, (peak + background) * tau
    q0, q1 = mpmath.exp(-x0), mpmath.exp(-x1)
    d = q0 * -mpmath.expm1(-peak * tau)
    return -mpmath.expm1(-x0), q0, -mpmath.expm1(-x1), q1, d


def _entropy(p, q):
    """h_b for p + q = 1 given both, with 0 ln 0 = 0."""
    return sum(-v * mpmath.log(v) for v in (p, q) if v > 0)


def _mu_star(p0, q0, p1, q1, d):
    a = mpmath.exp(-(_entropy(p1, q1) - _entropy(p0, q0)) / d)
    return (a * q0 - p0) / ((1 + a) * d)


def _rate(mu, p0, q0, p1, q1, d):
    """F(mu) = h_b(p_hat) - (1 - mu) h_b(p0) - mu h_b(p1)."""
    p_hat, q_hat = p0 + mu * d, (1 - mu) * q0 + mu * q1
    return _entropy(p_hat, q_hat) - (1 - mu) * _entropy(p0, q0) - mu * _entropy(p1, q1)


def mu_star(peak_rate, background_rate, dead_time, digits=DIGITS):
    """The capacity-achieving duty cycle at critical sampling, from its
    closed form (a q0 - p0) / ((1 + a) d), a = exp(-(h(p1) - h(p0)) / d);
    the cancellation costs about 2 log10(1 / (A tau)) of the ``digits``."""
    with mpmath.workdps(digits):
        return float(_mu_star(*levels(peak_rate, background_rate, dead_time)))


def capacity(peak_rate, background_rate, dead_time, sampling_interval):
    """F(mu*) / T_s in nats: the capacity at dead time tau, sampled every T_s."""
    with mpmath.workdps(DIGITS):
        lv = levels(peak_rate, background_rate, dead_time)
        return float(_rate(_mu_star(*lv), *lv) / mpmath.mpf(sampling_interval))


def wyner_capacity(peak_rate, background_rate):
    """Wyner's continuous peak-constrained Poisson capacity,
    L0 [-ln(1 + q*/s) + q* ln(1 + 1/s) + (q*/s) ln(1 + (1-q*)/(q*+s))]
    with q* = (1+s)^(1+s) / (s^s e) - s and s = background / peak; A / e
    at background 0.

    q* cancels in about log10(s) digits and the bracket, which is
    O(1/s^2), in as many again, so the precision grows with s."""
    if background_rate == 0.0:
        with mpmath.workdps(DIGITS):
            return float(mpmath.mpf(peak_rate) / mpmath.e)
    digits = DIGITS + 2 * max(0, math.ceil(math.log10(background_rate / peak_rate)))
    with mpmath.workdps(digits):
        peak, background = mpmath.mpf(peak_rate), mpmath.mpf(background_rate)
        s = background / peak
        q = (1 + s) * mpmath.exp(s * mpmath.log1p(1 / s) - 1) - s
        return float(background * (
            -mpmath.log1p(q / s)
            + q * mpmath.log1p(1 / s)
            + (q / s) * mpmath.log1p((1 - q) / (q + s))
        ))


def approx_low_A(peak_rate, background_rate, dead_time, sampling_interval):
    """The low-peak-rate law of the capacity: (tau / T_s) A / e at zero
    background, else (tau / T_s) d_tau A^2 with d_tau = tau q0 / (8 p0)."""
    with mpmath.workdps(DIGITS):
        peak, tau = mpmath.mpf(peak_rate), mpmath.mpf(dead_time)
        scale = tau / mpmath.mpf(sampling_interval)
        if background_rate == 0.0:
            return float(scale * peak / mpmath.e)
        p0, q0, _, _, _ = levels(peak_rate, background_rate, dead_time)
        return float(scale * tau * q0 / (8 * p0) * peak**2)


def limit_large_A(background_rate, dead_time, sampling_interval):
    """The saturation limit c / T_s of the capacity as A grows, with
    c = ln(1 + 1/u), u = exp(e^(L0 tau) h_b(p0))."""
    with mpmath.workdps(DIGITS):
        p0, q0, _, _, _ = levels(0.0, background_rate, dead_time)
        u = mpmath.exp(_entropy(p0, q0) / q0)
        return float(mpmath.log1p(1 / u) / mpmath.mpf(sampling_interval))


def _relative_entropy(p_from, q_from, p_to, q_to):
    """KL(Bern(p_from) || Bern(p_to)) with q = 1 - p given, 0 ln 0 = 0 and
    a ln(a / 0) = +inf."""
    pairs = [(a, b) for a, b in ((p_from, p_to), (q_from, q_to)) if a > 0]
    if any(b == 0 for _, b in pairs):
        return mpmath.inf
    return sum(a * mpmath.log(a / b) for a, b in pairs)


def _beta_triple(peak_rate, background_rate, dead_time, trials):
    """(beta, beta1, beta2) as mpf for Bin(L, p0) against Bin(L, p1):
    (sqrt(p0 p1) + sqrt(q0 q1))^L, exp(-L KL(p1||p0)) and exp(-L KL(p0||p1));
    beta1 = 0 at zero background (p0 = 0)."""
    p0, q0, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
    beta = (mpmath.sqrt(p0 * p1) + mpmath.sqrt(q0 * q1)) ** trials
    beta1 = mpmath.exp(-trials * _relative_entropy(p1, q1, p0, q0))
    beta2 = mpmath.exp(-trials * _relative_entropy(p0, q0, p1, q1))
    return beta, beta1, beta2


def _upper_envelope(mu, beta1, beta2):
    """F_u(mu) = -{mu ln[(1-mu) b1 + mu] + (1-mu) ln[mu b2 + (1-mu)]}."""
    return -(
        mu * mpmath.log((1 - mu) * beta1 + mu)
        + (1 - mu) * mpmath.log(mu * beta2 + (1 - mu))
    )


def _upper_envelope_slope(mu, beta1, beta2):
    """dF_u/dmu: positive at mu = 0 and negative at mu = 1 when beta1,
    beta2 < 1 (ln b <= b - 1), with one root between."""
    a, c = (1 - mu) * beta1 + mu, mu * beta2 + (1 - mu)
    return -(
        mpmath.log(a) + mu * (1 - beta1) / a - mpmath.log(c) - (1 - mu) * (1 - beta2) / c
    )


def duty_imax_bounds(peak_rate, background_rate, dead_time, trials):
    """(imax_lower, mu_upper, imax_upper): ln 2 - ln(1 + beta), the maximizer
    of F_u(mu, beta1, beta2) as the root of dF_u/dmu bracketed by [0, 1],
    and F_u there."""
    with mpmath.workdps(DIGITS):
        beta, beta1, beta2 = _beta_triple(peak_rate, background_rate, dead_time, trials)
        mu = mpmath.findroot(
            lambda x: _upper_envelope_slope(x, beta1, beta2), (0, 1), solver="anderson"
        )
        return (
            float(mpmath.log(2) - mpmath.log1p(beta)),
            float(mu),
            float(_upper_envelope(mu, beta1, beta2)),
        )


def _gap(beta, beta1, beta2):
    """max over mu of F_u(mu, beta1, beta2) - F_l(mu, beta), at the root of
    the difference of the two slopes: positive at mu = 0 and negative at
    mu = 1 when beta >= max(beta1, beta2).  A scan of the interior points
    i/64 and 1e-30 from either end, where the slopes stay finite at
    beta1 = 0, brackets the root.  The maximizer nears 0 as beta does:
    at zero-lambda's preset settings it passes 1e-30 between A = 280 and
    300, where no bracket is found and max() raises."""
    def slope(mu):
        return _upper_envelope_slope(mu, beta1, beta2) - _upper_envelope_slope(mu, beta, beta)

    edge = mpmath.mpf(10) ** -(DIGITS // 2)
    points = [edge] + [mpmath.mpf(i) / 64 for i in range(1, 64)] + [1 - edge]
    lo = max(i for i, mu in enumerate(points[:-1]) if slope(mu) > 0)
    mu = mpmath.findroot(slope, (points[lo], points[lo + 1]), solver="anderson")
    return _upper_envelope(mu, beta1, beta2) - _upper_envelope(mu, beta, beta)


def _gap_offsets(b, c, other, trials):
    """(eps_u, eps_l) of the large-A (b = p0, other = q1) and low-lambda
    (b = q1, other = p0) offsets, c = 1 - b: piecewise in c L versus 1/2."""
    L, root = trials, mpmath.sqrt(other)
    if c * L >= 0.5:
        lead = L * b ** (mpmath.mpf(L - 1) / 2) * mpmath.sqrt(c)
        denom = 1 + b ** (mpmath.mpf(L) / 2)
        if c * L > 0.5:
            return 2 * lead * root, lead * root / denom
        spike = b ** (mpmath.mpf(1) / 2 - L) / mpmath.sqrt(c)
        return (2 * lead - spike) * root, (lead / denom - spike / 2) * root
    mag = 0 if other == 0 else mpmath.exp(
        -L * b * mpmath.log(b) - L * c * mpmath.log(c) + L * c * mpmath.log(other)
    )
    return -mag, -mag / 2


def gap_cells(scenario, x, peak_rate, background_rate, dead_time, trials):
    """The exact cells of the gap row at sweep value x, by column, with the
    fit's value y under "y": every column but fitted_rate that the scenario
    fills.  x is L at large-L, the background at low-lambda and A
    otherwise; the other settings are the preset's."""
    with mpmath.workdps(DIGITS):
        if scenario == "large-L":
            trials = int(x)
        elif scenario == "low-lambda":
            background_rate = x
        else:
            peak_rate = x
        p0, q0, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
        beta, beta1, beta2 = _beta_triple(peak_rate, background_rate, dead_time, trials)
        gap = _gap(beta, beta1, beta2)
        tau, L = mpmath.mpf(dead_time), trials
        cells = {"gap_numeric": gap, "y": gap}
        if scenario == "large-L":
            cells["gap_lower_formula"] = (
                mpmath.log1p(beta) - (mpmath.log1p(beta1) + mpmath.log1p(beta2)) / 2
            )
            cells["gap_upper_formula"] = 2 * beta - beta1 - beta2
            cells["predicted_rate"] = -mpmath.log(mpmath.sqrt(p0 * p1) + mpmath.sqrt(q0 * q1))
        elif scenario == "zero-lambda":
            lead = q1 ** (mpmath.mpf(L) / 2)
            cells["gap_lower_formula"], cells["gap_upper_formula"] = lead, 2 * lead
            cells["predicted_rate"] = L * tau / 2
        elif scenario == "low-A":
            A = mpmath.mpf(x)
            coeff = 3 * L * q0 * tau**2 / (16 * p0)
            cells["gap_lower_formula"] = cells["gap_upper_formula"] = coeff * A**2
            cells["offset_numeric"], cells["offset_formula"] = gap / A**2, coeff
            cells["predicted_rate"] = 2
        else:
            if scenario == "large-A":
                b, (eps_u, eps_l) = p0, _gap_offsets(p0, q0, q1, L)
                cells["predicted_rate"] = min(mpmath.mpf(1) / 2, q0 * L) * tau
            else:
                b, (eps_u, eps_l) = q1, _gap_offsets(q1, p1, p0, L)
                p_peak = -mpmath.expm1(-mpmath.mpf(peak_rate) * tau)
                cells["predicted_rate"] = min(mpmath.mpf(1) / 2, p_peak * L)
            half, full = b ** (mpmath.mpf(L) / 2), b**L
            const_u = 2 * half - full
            offset = 2 * beta - beta1 - beta2 - const_u
            cells["gap_lower_formula"] = mpmath.log1p(half) - mpmath.log1p(full) / 2 + eps_l
            cells["gap_upper_formula"] = const_u + eps_u
            cells["offset_numeric"], cells["offset_formula"] = offset, eps_u
            cells["y"] = abs(offset)
        return {column: float(value) for column, value in cells.items()}


def fitted_rate(points, power_law):
    """The convergence constant of a gap sweep: the least-squares slope of
    ln y against ln x (a power law) or x (an exponential decay, whose rate
    is minus the slope), for exact points (x, y)."""
    with mpmath.workdps(DIGITS):
        xs = [mpmath.log(x) if power_law else mpmath.mpf(x) for x, _ in points]
        ys = [mpmath.log(y) for _, y in points]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((u - mean_x) * (v - mean_y) for u, v in zip(xs, ys)) / sum(
            (u - mean_x) ** 2 for u in xs
        )
        return float(slope if power_law else -slope)
