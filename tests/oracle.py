"""High-precision mpmath versions of the capacity, duty-imax, gap, mi-sweep
and simulate sweeps' cells.

Each function takes the same double inputs as the library and evaluates
its quantity exactly in those inputs, to ``DIGITS`` significant digits
(``SWEEP_DIGITS`` for the mutual informations and the expansion, more
where a ratio of rates needs them), and returns a float.  The
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


# The mi-sweep, approximation and simulate cells lose at most a few digits
# to cancellation, so 50 digits leave more than 40.
SWEEP_DIGITS = 50

# the mi-sweep columns that vary with the duty cycle
MI_SWEEP_DUTY_COLUMNS = (
    "exact_mi", "lower", "lower_sub", "upper", "approx", "poisson_benchmark",
)


def _binomial_law(p, q, trials):
    """P(Bin(L, p) = k) for k = 0..L, q = 1 - p given."""
    return [math.comb(trials, k) * p**k * q ** (trials - k) for k in range(trials + 1)]


def _poisson_law(mean):
    """P(Poisson(mean) = k) from k = 0 until past the mean the terms fall
    below 10^(-2 digits), far below the precision of any sum of them."""
    mean = mpmath.mpf(mean)
    term, law, k = mpmath.exp(-mean), [], 0
    while k <= mean or term > mpmath.mpf(10) ** (-2 * mpmath.mp.dps):
        law.append(term)
        k += 1
        term = term * mean / k
    return law


def _mixture_mi(mu, law0, law1):
    """I(X; Y) for P(X = 1) = mu and the output laws law0, law1, padded
    with zeros to one length: sum of (1-mu) a ln(a/m) + mu b ln(b/m) over
    the bins, m = (1-mu) a + mu b, with 0 ln 0 = 0."""
    size = max(len(law0), len(law1))
    law0, law1 = (list(law) + [0] * (size - len(law)) for law in (law0, law1))
    total = mpmath.mpf(0)
    for a, b in zip(law0, law1):
        m = (1 - mu) * a + mu * b
        for weight, v in ((1 - mu, a), (mu, b)):
            if weight > 0 and v > 0:
                total += weight * v * mpmath.log(v / m)
    return total


def _tuned_lower(mu, p0, q0, p1, q1, trials):
    """max over alpha of F_u(mu, S(alpha)^L, S'(alpha)^L), with S(alpha) =
    p1^alpha p0^(1-alpha) + q1^alpha q0^(1-alpha) = e^(-C_alpha(P1||P0)/L)
    and S'(alpha) = S(1 - alpha): F_u is 0 at alpha = 0 and 1, and the
    root of its alpha-derivative, written out, is bracketed by a scan of
    the points i/16."""
    lp, lq = mpmath.log(p1 / p0), mpmath.log(q1 / q0)

    def pair(alpha):
        """(S(alpha), S'(alpha)) and their alpha-derivatives."""
        a = p1**alpha * p0 ** (1 - alpha), q1**alpha * q0 ** (1 - alpha)
        b = p0**alpha * p1 ** (1 - alpha), q0**alpha * q1 ** (1 - alpha)
        return sum(a), sum(b), a[0] * lp + a[1] * lq, -(b[0] * lp + b[1] * lq)

    def slope(alpha):
        s, t, ds, dt = pair(alpha)
        b1, b2 = s**trials, t**trials
        db1, db2 = trials * s ** (trials - 1) * ds, trials * t ** (trials - 1) * dt
        return -(mu * (1 - mu) * db1 / ((1 - mu) * b1 + mu)
                 + (1 - mu) * mu * db2 / (mu * b2 + (1 - mu)))

    points = [mpmath.mpf(i) / 16 for i in range(17)]
    lo = max(i for i, alpha in enumerate(points[:-1]) if slope(alpha) > 0)
    alpha = mpmath.findroot(slope, (points[lo], points[lo + 1]), solver="anderson")
    s, t, _, _ = pair(alpha)
    return _upper_envelope(mu, s**trials, t**trials)


def _upper_bound_max(beta1, beta2):
    """|b1 - b2| (1 - min(b1, b2)) / (1 - b1 b2) - ln((1 - b1 b2) / (2 - b1 - b2))."""
    return abs(beta1 - beta2) * (1 - min(beta1, beta2)) / (1 - beta1 * beta2) - mpmath.log(
        (1 - beta1 * beta2) / (2 - beta1 - beta2)
    )


def _expansion_terms(mu, p0, p1, q1, trials):
    """The medium-SNR expansion and its mu-derivative at 0 < mu < 1: with
    Q = q1^L and Z = mu Q + 1 - mu,
    -Z ln Z + mu L Q ln q1 - mu (1 - Q) ln mu
    + (1 - mu) L p0 [ln Z - ln(mu L p1) - (L - 1) ln q1] - (1 - mu) h_b(L p0)."""
    L, lp0, log_q1 = trials, trials * p0, mpmath.log(q1)
    Q = q1**trials
    Z = mu * Q + (1 - mu)
    h = _entropy(lp0, 1 - lp0)
    log_ratio = mpmath.log(Z) - mpmath.log(mu * L * p1) - (L - 1) * log_q1
    value = (
        -Z * mpmath.log(Z)
        + mu * L * Q * log_q1
        - mu * (1 - Q) * mpmath.log(mu)
        + (1 - mu) * lp0 * log_ratio
        - (1 - mu) * h
    )
    slope = (
        (1 - Q) * (mpmath.log(Z) - mpmath.log(mu))
        + L * Q * log_q1
        - lp0 * log_ratio
        - (1 - mu) * lp0 * ((1 - Q) / Z + 1 / mu)
        + h
    )
    return value, slope


def mi_sweep_cells(mus, peak_rate, background_rate, dead_time, trials):
    """The exact cells of the mi-sweep rows at the duty cycles ``mus``, one
    dict by column per duty cycle: the binomial and the Poisson-benchmark
    MI (means background and peak + background, summed in double as the
    sweep sums them) by direct summation, the tuned lower envelope, F_l
    and F_u at the beta triple, the closed-form upper_sub and the
    expansion.  At mu in {0, 1} every column but upper_sub is 0: the rates
    vanish there, and the expansion, which diverges as mu -> 0, is pinned
    to 0 as the library pins it."""
    with mpmath.workdps(SWEEP_DIGITS):
        p0, q0, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
        beta, beta1, beta2 = _beta_triple(peak_rate, background_rate, dead_time, trials)
        laws = _binomial_law(p0, q0, trials), _binomial_law(p1, q1, trials)
        poisson = _poisson_law(background_rate), _poisson_law(peak_rate + background_rate)
        upper_sub = float(_upper_bound_max(beta1, beta2))
        rows = []
        for mu in mus:
            if mu in (0.0, 1.0):
                rows.append({**dict.fromkeys(MI_SWEEP_DUTY_COLUMNS, 0.0), "upper_sub": upper_sub})
                continue
            mu = mpmath.mpf(mu)
            cells = {
                "exact_mi": _mixture_mi(mu, *laws),
                "lower": _tuned_lower(mu, p0, q0, p1, q1, trials),
                "lower_sub": _upper_envelope(mu, beta, beta),
                "upper": _upper_envelope(mu, beta1, beta2),
                "approx": _expansion_terms(mu, p0, p1, q1, trials)[0],
                "poisson_benchmark": _mixture_mi(mu, *poisson),
            }
            rows.append({**{c: float(v) for c, v in cells.items()}, "upper_sub": upper_sub})
        return rows


def approximation_optimum(peak_rate, background_rate, dead_time, trials, mu_start):
    """(mu_approx, imax_approx): the root of the expansion's mu-derivative,
    found from ``mu_start``, and the expansion there.  Whether the
    expansion applies at the channel is not judged."""
    with mpmath.workdps(SWEEP_DIGITS):
        p0, _, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
        mu = mpmath.findroot(lambda m: _expansion_terms(m, p0, p1, q1, trials)[1], mu_start)
        return float(mu), float(_expansion_terms(mu, p0, p1, q1, trials)[0])


def _mi_slopes(mu, law0, law1):
    """dI/dmu = H0 - H1 - sum (b - a) ln m and d2I/dmu2 = -sum (b - a)^2 / m,
    m = (1 - mu) a + mu b, for laws a, b of one length summing to 1."""
    slope, curvature = mpmath.mpf(0), mpmath.mpf(0)
    for a, b in zip(law0, law1):
        m = (1 - mu) * a + mu * b
        slope += sum(-v * mpmath.log(v) * sign for v, sign in ((a, 1), (b, -1)) if v > 0)
        if m > 0:
            slope -= (b - a) * mpmath.log(m)
            curvature -= (b - a) ** 2 / m
    return slope, curvature


def mi_max_cells(peak_rate, background_rate, dead_time, trials, mu_exact):
    """The exact-MI maximum columns of a duty-imax row with the printed
    ``mu_exact``: the root of dI/dmu, by Newton's method from ``mu_exact``
    (I is concave in mu), and imax_exact as the exact MI at ``mu_exact``,
    by direct summation."""
    with mpmath.workdps(SWEEP_DIGITS):
        p0, q0, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
        laws = _binomial_law(p0, q0, trials), _binomial_law(p1, q1, trials)
        mu = mpmath.mpf(mu_exact)
        for _ in range(50):
            slope, curvature = _mi_slopes(mu, *laws)
            step = slope / curvature
            mu -= step
            if abs(step) < mpmath.mpf(10) ** (10 - SWEEP_DIGITS):
                break
        else:
            raise ArithmeticError(f"Newton's method did not settle from mu = {mu_exact}")
        return {
            "mu_exact": float(mu),
            "imax_exact": float(_mixture_mi(mpmath.mpf(mu_exact), *laws)),
        }


def simulate_closed(peak_rate, background_rate, dead_time, trials, mu):
    """The seed-free cells of a simulate row: p0_closed, p1_closed and the
    exact MI at duty cycle mu."""
    with mpmath.workdps(SWEEP_DIGITS):
        p0, q0, p1, q1, _ = levels(peak_rate, background_rate, dead_time)
        mi = _mixture_mi(
            mpmath.mpf(mu), _binomial_law(p0, q0, trials), _binomial_law(p1, q1, trials)
        )
        return {"p0_closed": float(p0), "p1_closed": float(p1), "mi_exact": float(mi)}
