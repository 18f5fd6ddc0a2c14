"""Scalar numeric kernels, in pure Python.

This is the only implementation of the kernels; the statistics reach it
through ``_backend.kernels``. Callers are expected to have validated
argument domains already (the public wrappers in ``special.py`` do), so
the functions here only guard against conditions that arise
mid-computation.

Algorithms:

* ``betainc`` -- regularized incomplete beta I_x(a, b) via the modified
  Lentz continued fraction, switched through the symmetry
  I_x(a,b) = 1 - I_{1-x}(b,a) at x = (a+1)/(a+b+2) so the fraction is
  always evaluated in its fast-converging region.
* ``student_t_cdf`` -- central Student t through the incomplete-beta
  identity F(x) = 1 - I_{df/(df+x^2)}(df/2, 1/2) / 2 for x >= 0.
* ``normal_cdf`` -- Phi(z) = erfc(-z / sqrt(2)) / 2 on top of libm erfc.
* ``noncentral_t_cdf`` -- series of Poisson-weighted incomplete-beta
  terms summed outward from the dominant index j ~ nc^2/2, which keeps
  the evaluation stable for noncentralities far beyond the point where
  a j=0-anchored sum underflows.
* ``mwu_exact_counts`` -- integer distribution of the Mann-Whitney U
  statistic for tie-free samples via the standard two-way recurrence.
"""

import math

from ..errors import NonConvergenceError

_BETACF_MAX_ITER = 500
_BETACF_EPS = 1e-16
_FPMIN = 1e-300
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_NCT_MAX_TERMS = 20000
_NCT_EPS = 1e-14


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


_LN_2PI = math.log(2.0 * math.pi)


def _stirling_corr(z):
    """lgamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2], for z >= 15."""
    w = 1.0 / (z * z)
    return (
        (((1.0 / 1188.0) * w - 1.0 / 1680.0) * w + 1.0 / 1260.0) * w - 1.0 / 360.0
    ) * w / z + 1.0 / (12.0 * z)


def _ln_beta_front(a, b, x):
    """ln( x^a (1-x)^b / B(a, b) ) without large-argument cancellation.

    The naive lgamma difference loses ~4 digits whenever an argument is
    large; Stirling splits keep the result at full precision both when
    a and b are large and when only one of them is.

    When both are large the power terms are a ln(1 + s/a) + b ln(1 - s/b)
    with s = x (a+b) - a, taken in one of two exact forms. Near the mode
    (|s| < min(a, b) / 2) ``log1p`` of the small ratios avoids
    cancellation. Elsewhere the factorisations 1 + s/a = x (a+b)/a and
    1 - s/b = (1-x)(a+b)/b are used instead: for tiny x, s/a rounds to
    exactly -1, where ``math.log1p`` raises rather than returning -inf.
    """
    if a >= 15.0 and b >= 15.0:
        s = x * b - (1.0 - x) * a  # = x (a+b) - a
        if abs(s) < 0.5 * min(a, b):
            ln_powers = a * math.log1p(s / a) + b * math.log1p(-s / b)
        else:
            ln_powers = a * (math.log(x) + math.log1p(b / a)) + b * (
                math.log1p(-x) + math.log1p(a / b)
            )
        return (
            ln_powers
            + 0.5 * math.log(a * b / (a + b))
            - 0.5 * _LN_2PI
            + _stirling_corr(a + b)
            - _stirling_corr(a)
            - _stirling_corr(b)
        )
    if b >= 15.0:
        # lgamma(a+b) - lgamma(b) expanded via Stirling to avoid the
        # difference of two ~b*ln(b)-sized values
        return (
            (b - 0.5) * math.log1p(a / b)
            + a * math.log(a + b)
            - a
            + _stirling_corr(a + b)
            - _stirling_corr(b)
            - math.lgamma(a)
            + a * math.log(x)
            + b * math.log1p(-x)
        )
    if a >= 15.0:
        return (
            (a - 0.5) * math.log1p(b / a)
            + b * math.log(a + b)
            - b
            + _stirling_corr(a + b)
            - _stirling_corr(a)
            - math.lgamma(b)
            + a * math.log(x)
            + b * math.log1p(-x)
        )
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )


def betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(_ln_beta_front(a, b, x)) * _betacf(a, b, x) / a
    return 1.0 - math.exp(_ln_beta_front(b, a, 1.0 - x)) * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(x, df):
    """CDF of the central Student t distribution with df > 0."""
    w = df / (df + x * x)
    p = 0.5 * betainc(0.5 * df, 0.5, w)
    if x <= 0.0:
        return p
    return 1.0 - p


def normal_cdf(z):
    """Standard normal CDF Phi(z)."""
    return 0.5 * math.erfc(-z * _INV_SQRT2)


def _beta_step(a, b, ln_y, ln_1my):
    """I_y(a, b) - I_y(a + 1, b) = y^a (1-y)^b / (a B(a, b))."""
    return math.exp(
        math.lgamma(a + b)
        - math.lgamma(a + 1.0)
        - math.lgamma(b)
        + a * ln_y
        + b * ln_1my
    )


def _nct_cdf_nonneg(t, df, delta):
    """Noncentral t CDF at t >= 0 for any sign of delta."""
    base = normal_cdf(-delta)
    if t == 0.0:
        return base

    lam = 0.5 * delta * delta
    b = 0.5 * df
    tt = t * t
    if tt == math.inf:
        # t*t overflowed: y is 1 to double precision
        y = 1.0
    else:
        y = tt / (tt + df)
    if y == 0.0:
        # t*t underflowed; every series term carries a factor of y
        return base
    ln_y = math.log(y)
    # 1 - y = df / (t*t + df); once that underflows to 0 (t*t overflowed),
    # log(1 - y) = log(df) - 2 log(t) to double precision.
    one_my = df / (tt + df)
    ln_1my = math.log(one_my) if one_my > 0.0 else math.log(df) - 2.0 * math.log(t)

    # Poisson(lam) weights peak at j0; anchor every recurrence there so
    # large-delta evaluations never touch underflowing j=0 terms.
    j0 = int(lam)

    if lam > 0.0:
        ln_p0 = -lam + j0 * math.log(lam) - math.lgamma(j0 + 1.0)
        ln_q0 = (
            math.log(abs(delta))
            - 0.5 * math.log(2.0)
            - lam
            + j0 * math.log(lam)
            - math.lgamma(j0 + 1.5)
        )
    else:
        ln_p0 = 0.0
        ln_q0 = -math.inf
    p_w = math.exp(ln_p0)
    q_w = math.exp(ln_q0)
    if delta < 0.0:
        q_w = -q_w

    # I_y at the anchor, plus the forward step terms for both ladders.
    ip = betainc(j0 + 0.5, b, y)
    iq = betainc(j0 + 1.0, b, y)
    gp = _beta_step(j0 + 0.5, b, ln_y, ln_1my)
    gq = _beta_step(j0 + 1.0, b, ln_y, ln_1my)

    total = p_w * ip + q_w * iq

    # Upward sweep from the anchor.
    pj, qj, ipj, iqj, gpj, gqj = p_w, q_w, ip, iq, gp, gq
    j = j0
    while True:
        gpj_next = gpj * y * (j + 0.5 + b) / (j + 1.5)
        gqj_next = gqj * y * (j + 1.0 + b) / (j + 2.0)
        ipj = ipj - gpj
        iqj = iqj - gqj
        if ipj < 0.0:
            ipj = 0.0
        if iqj < 0.0:
            iqj = 0.0
        j += 1
        pj *= lam / j
        qj *= lam / (j + 0.5)
        term = pj * ipj + qj * iqj
        total += term
        gpj, gqj = gpj_next, gqj_next
        if j > j0 and abs(term) <= _NCT_EPS * abs(total) + _FPMIN:
            break
        if j - j0 > _NCT_MAX_TERMS:
            raise NonConvergenceError(
                f"noncentral t series did not converge for x={t}, df={df}, nc={delta}"
            )

    # Downward sweep (only exists when the anchor sits above j = 0).
    if j0 > 0:
        pj, qj, ipj, iqj, gpj, gqj = p_w, q_w, ip, iq, gp, gq
        j = j0
        while j > 0:
            gpj = gpj * (j + 0.5) / (y * (j - 0.5 + b))
            gqj = gqj * (j + 1.0) / (y * (j + b))
            ipj = ipj + gpj
            iqj = iqj + gqj
            if ipj > 1.0:
                ipj = 1.0
            if iqj > 1.0:
                iqj = 1.0
            pj *= j / lam
            qj *= (j + 0.5) / lam
            j -= 1
            term = pj * ipj + qj * iqj
            total += term
            if abs(term) <= _NCT_EPS * abs(total) + _FPMIN:
                break

    result = base + 0.5 * total
    if result < 0.0:
        return 0.0
    if result > 1.0:
        return 1.0
    return result


def noncentral_t_cdf(x, df, nc):
    """CDF of the noncentral t distribution with df > 0."""
    if nc == 0.0:
        return student_t_cdf(x, df)
    if x >= 0.0:
        return _nct_cdf_nonneg(x, df, nc)
    return 1.0 - _nct_cdf_nonneg(-x, df, -nc)


def mwu_exact_counts(n1, n2):
    """Null distribution of U for tie-free samples.

    Returns a list ``counts`` of length n1*n2 + 1 where ``counts[u]`` is
    the number of the C(n1+n2, n1) equally likely group assignments with
    U statistic exactly u. Uses the recurrence
    N(u; i, j) = N(u - j; i - 1, j) + N(u; i, j - 1).
    """
    umax = n1 * n2
    # i = 0 rows: a single assignment with U = 0, for every j.
    prev = [[1] + [0] * umax for _ in range(n2 + 1)]
    for _i in range(1, n1 + 1):
        cur = []
        for j in range(n2 + 1):
            if j == 0:
                cur.append([1] + [0] * umax)
                continue
            left = cur[j - 1]
            up = prev[j]
            row = [0] * (umax + 1)
            for u in range(umax + 1):
                n = left[u]
                if u >= j:
                    n += up[u - j]
                row[u] = n
            cur.append(row)
        prev = cur
    return prev[n2]
