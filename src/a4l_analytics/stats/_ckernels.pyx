# cython: language_level=3, boundscheck=False, cdivision=True
"""Scalar numeric kernels, compiled backend.

Twin of ``_pure.py``; keep the two in sync. The float kernels are fully
typed C loops; the exact Mann-Whitney distribution keeps Python integer
arithmetic (the counts are tiny and must never overflow).
"""

from libc.math cimport exp, fabs, lgamma, log, log1p, erfc, sqrt, INFINITY

from a4l_analytics.errors import NonConvergenceError

cdef int _BETACF_MAX_ITER = 500
cdef double _BETACF_EPS = 1e-16
cdef double _FPMIN = 1e-300
cdef double _INV_SQRT2 = 0.7071067811865476
cdef int _NCT_MAX_TERMS = 20000
cdef double _NCT_EPS = 1e-14


cdef double _betacf(double a, double b, double x) except? -1.0:
    cdef double qab = a + b
    cdef double qap = a + 1.0
    cdef double qam = a - 1.0
    cdef double c = 1.0
    cdef double d = 1.0 - qab * x / qap
    cdef double h, aa, delta
    cdef int m, m2
    if fabs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if fabs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if fabs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if fabs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if fabs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if fabs(delta - 1.0) < _BETACF_EPS:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


cdef double _LN_2PI = 1.8378770664093453


cdef inline double _stirling_corr(double z):
    # lgamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2], for z >= 15
    cdef double w = 1.0 / (z * z)
    return (
        (((1.0 / 1188.0) * w - 1.0 / 1680.0) * w + 1.0 / 1260.0) * w - 1.0 / 360.0
    ) * w / z + 1.0 / (12.0 * z)


cdef double _ln_beta_front(double a, double b, double x):
    # ln( x^a (1-x)^b / B(a, b) ) without large-argument cancellation
    cdef double s, ln_powers
    if a >= 15.0 and b >= 15.0:
        s = x * b - (1.0 - x) * a
        if fabs(s) < 0.5 * min(a, b):
            ln_powers = a * log1p(s / a) + b * log1p(-s / b)
        else:
            # far from the mode s/a can round to -1: use the exact
            # 1 + s/a = x (a+b)/a and 1 - s/b = (1-x)(a+b)/b
            ln_powers = a * (log(x) + log1p(b / a)) + b * (log1p(-x) + log1p(a / b))
        return (
            ln_powers
            + 0.5 * log(a * b / (a + b))
            - 0.5 * _LN_2PI
            + _stirling_corr(a + b)
            - _stirling_corr(a)
            - _stirling_corr(b)
        )
    if b >= 15.0:
        # lgamma(a+b) - lgamma(b) via Stirling, avoiding cancellation
        return (
            (b - 0.5) * log1p(a / b)
            + a * log(a + b)
            - a
            + _stirling_corr(a + b)
            - _stirling_corr(b)
            - lgamma(a)
            + a * log(x)
            + b * log1p(-x)
        )
    if a >= 15.0:
        return (
            (a - 0.5) * log1p(b / a)
            + b * log(a + b)
            - b
            + _stirling_corr(a + b)
            - _stirling_corr(a)
            - lgamma(b)
            + a * log(x)
            + b * log1p(-x)
        )
    return lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)


cdef double _betainc(double a, double b, double x) except? -1.0:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return exp(_ln_beta_front(a, b, x)) * _betacf(a, b, x) / a
    return 1.0 - exp(_ln_beta_front(b, a, 1.0 - x)) * _betacf(b, a, 1.0 - x) / b


def betainc(double a, double b, double x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    return _betainc(a, b, x)


cdef double _student_t_cdf(double x, double df) except? -1.0:
    cdef double w = df / (df + x * x)
    cdef double p = 0.5 * _betainc(0.5 * df, 0.5, w)
    if x <= 0.0:
        return p
    return 1.0 - p


def student_t_cdf(double x, double df):
    """CDF of the central Student t distribution with df > 0."""
    return _student_t_cdf(x, df)


cdef inline double _normal_cdf(double z):
    return 0.5 * erfc(-z * _INV_SQRT2)


def normal_cdf(double z):
    """Standard normal CDF Phi(z)."""
    return _normal_cdf(z)


cdef inline double _beta_step(double a, double b, double ln_y, double ln_1my):
    return exp(lgamma(a + b) - lgamma(a + 1.0) - lgamma(b) + a * ln_y + b * ln_1my)


cdef double _nct_cdf_nonneg(double t, double df, double delta) except? -1.0:
    cdef double base = _normal_cdf(-delta)
    cdef double lam, b, tt, y, ln_y, one_my, ln_1my
    cdef double ln_p0, ln_q0, p_w, q_w, ip, iq, gp, gq, total
    cdef double pj, qj, ipj, iqj, gpj, gqj, gpj_next, gqj_next, term, result
    cdef long j0, j

    if t == 0.0:
        return base

    lam = 0.5 * delta * delta
    b = 0.5 * df
    tt = t * t
    if tt == INFINITY:
        # t*t overflowed: y is 1 to double precision
        y = 1.0
    else:
        y = tt / (tt + df)
    if y == 0.0:
        # t*t underflowed; every series term carries a factor of y
        return base
    ln_y = log(y)
    # 1 - y = df / (t*t + df); once that underflows to 0 (t*t overflowed),
    # log(1 - y) = log(df) - 2 log(t) to double precision.
    one_my = df / (tt + df)
    if one_my > 0.0:
        ln_1my = log(one_my)
    else:
        ln_1my = log(df) - 2.0 * log(t)

    j0 = <long>lam

    if lam > 0.0:
        ln_p0 = -lam + j0 * log(lam) - lgamma(j0 + 1.0)
        ln_q0 = (
            log(fabs(delta)) - 0.5 * log(2.0) - lam + j0 * log(lam) - lgamma(j0 + 1.5)
        )
    else:
        ln_p0 = 0.0
        ln_q0 = -INFINITY
    p_w = exp(ln_p0)
    q_w = exp(ln_q0)
    if delta < 0.0:
        q_w = -q_w

    ip = _betainc(j0 + 0.5, b, y)
    iq = _betainc(j0 + 1.0, b, y)
    gp = _beta_step(j0 + 0.5, b, ln_y, ln_1my)
    gq = _beta_step(j0 + 1.0, b, ln_y, ln_1my)

    total = p_w * ip + q_w * iq

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
        if j > j0 and fabs(term) <= _NCT_EPS * fabs(total) + _FPMIN:
            break
        if j - j0 > _NCT_MAX_TERMS:
            raise NonConvergenceError(
                f"noncentral t series did not converge for x={t}, df={df}, nc={delta}"
            )

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
            if fabs(term) <= _NCT_EPS * fabs(total) + _FPMIN:
                break

    result = base + 0.5 * total
    if result < 0.0:
        return 0.0
    if result > 1.0:
        return 1.0
    return result


def noncentral_t_cdf(double x, double df, double nc):
    """CDF of the noncentral t distribution with df > 0."""
    if nc == 0.0:
        return _student_t_cdf(x, df)
    if x >= 0.0:
        return _nct_cdf_nonneg(x, df, nc)
    return 1.0 - _nct_cdf_nonneg(-x, df, -nc)


def mwu_exact_counts(int n1, int n2):
    """Null distribution of U for tie-free samples.

    Returns a list ``counts`` of length n1*n2 + 1 where ``counts[u]`` is
    the number of the C(n1+n2, n1) equally likely group assignments with
    U statistic exactly u.
    """
    cdef int umax = n1 * n2
    cdef int i, j, u
    prev = [[1] + [0] * umax for _ in range(n2 + 1)]
    for i in range(1, n1 + 1):
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
