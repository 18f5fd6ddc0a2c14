"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own numeric paths:
expected values come from series expansions, brute-force enumeration,
quadrature, Monte Carlo simulation, or scipy's independent
implementations; the reference CSV loaders keep the loader's original
cell-by-cell kind inference and row-by-row ``csv.reader`` parse. Frozen
constants in the test modules were produced by these functions.
"""

import csv
import hashlib
import io
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy import special as sp
from scipy import stats as st


def erf_series(x: float) -> float:
    """erf(x) by Maclaurin series; accurate to ~1e-15 for |x| <= 3."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(z: float) -> float:
    """Phi(z) from the erf series; use only for |z| <= 3."""
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def student_t_cdf_quad(x: float, df: float) -> float:
    """Student t CDF by adaptive quadrature of the density."""

    def density(t):
        return math.exp(
            math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - (df + 1.0) / 2.0 * math.log1p(t * t / df)
        )

    if x <= 0.0:
        val, _ = integrate.quad(density, -np.inf, x)
        return val
    val, _ = integrate.quad(density, x, np.inf)
    return 1.0 - val


def student_t_cdf_mc(df: float, xs, n_draws: int, seed: int):
    """Empirical t CDF from n_draws simulated variates."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n_draws) / np.sqrt(
        rng.chisquare(df, n_draws) / df
    )
    draws.sort()
    return np.searchsorted(draws, xs, side="right") / n_draws


def noncentral_t_cdf_mc(df: float, nc: float, xs, n_draws: int, seed: int):
    """Empirical noncentral t CDF from (Z + nc) / sqrt(chi2_df / df)."""
    rng = np.random.default_rng(seed)
    draws = (rng.standard_normal(n_draws) + nc) / np.sqrt(
        rng.chisquare(df, n_draws) / df
    )
    draws.sort()
    return np.searchsorted(draws, xs, side="right") / n_draws


def welch_stats_direct(g1, g2):
    """Direct re-evaluation of the Welch t and df formulas with numpy."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    v1 = g1.var(ddof=1) / len(g1)
    v2 = g2.var(ddof=1) / len(g2)
    t = (g1.mean() - g2.mean()) / math.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (v1**2 / (len(g1) - 1) + v2**2 / (len(g2) - 1))
    return t, df


def welch_power_mc(n1, n2, d, alpha, alternative, n_sim, seed):
    """Rejection rate of the Welch test over simulated experiments.

    Groups are N(d, 1) and N(0, 1), so group1 - group2 has standardized
    effect d. The test decision is recomputed from scratch per
    experiment with scipy's t quantile.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_sim, n1)) + d
    y = rng.standard_normal((n_sim, n2))
    v1 = x.var(axis=1, ddof=1) / n1
    v2 = y.var(axis=1, ddof=1) / n2
    t = (x.mean(axis=1) - y.mean(axis=1)) / np.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (v1**2 / (n1 - 1) + v2**2 / (n2 - 1))
    if alternative == "greater":
        crit = st.t.ppf(1.0 - alpha, df)
        reject = t > crit
    elif alternative == "less":
        crit = st.t.ppf(alpha, df)
        reject = t < crit
    else:
        crit = st.t.ppf(1.0 - alpha / 2.0, df)
        reject = np.abs(t) > crit
    return reject.mean()


def mwu_u1(g1, g2):
    """U for group1 by definition: wins plus half-ties."""
    u = 0.0
    for a in g1:
        for b in g2:
            if a > b:
                u += 1.0
            elif a == b:
                u += 0.5
    return u


def mwu_enumerated_p(g1, g2, alternative):
    """Exact p by enumerating every C(n1+n2, n1) group assignment."""
    pooled = list(g1) + list(g2)
    n1 = len(g1)
    n = len(pooled)
    observed = mwu_u1(g1, g2)
    us = []
    for idx in itertools.combinations(range(n), n1):
        chosen = set(idx)
        a = [pooled[i] for i in idx]
        b = [pooled[i] for i in range(n) if i not in chosen]
        us.append(mwu_u1(a, b))
    total = len(us)
    eps = 1e-9
    if alternative == "less":
        return sum(1 for u in us if u <= observed + eps) / total
    if alternative == "greater":
        return sum(1 for u in us if u >= observed - eps) / total
    n_lo = min(observed, n1 * (n - n1) - observed)
    n_hi = n1 * (n - n1) - n_lo
    p = (
        sum(1 for u in us if u <= n_lo + eps) + sum(1 for u in us if u >= n_hi - eps)
    ) / total
    return min(p, 1.0)


def mwu_permutation_p(g1, g2, alternative, n_perm, seed, batch=100_000):
    """Sampled-permutation p-value with midrank U, for tied data."""
    pooled = np.concatenate([np.asarray(g1, float), np.asarray(g2, float)])
    n1 = len(g1)
    n = len(pooled)
    ranks = st.rankdata(pooled)
    observed = mwu_u1(g1, g2)
    offset = n1 * (n1 + 1) / 2.0

    count_le = 0
    count_ge = 0
    remaining = n_perm
    rng = np.random.default_rng(seed)
    while remaining > 0:
        m = min(batch, remaining)
        keys = rng.random((m, n))
        idx = np.argpartition(keys, n1 - 1, axis=1)[:, :n1]
        u = ranks[idx].sum(axis=1) - offset
        count_le += int((u <= observed + 1e-9).sum())
        count_ge += int((u >= observed - 1e-9).sum())
        remaining -= m

    p_less = count_le / n_perm
    p_greater = count_ge / n_perm
    if alternative == "less":
        return p_less
    if alternative == "greater":
        return p_greater
    return min(1.0, 2.0 * min(p_less, p_greater))


def mwu_exact_tied_p(g1, g2, alternative):
    """Exact p-value of the midrank U, conditional on the ties.

    Every C(n1+n2, n1) assignment of the pooled values to group1 is
    equally likely. Doubled midranks are integers, so the distribution of
    group1's doubled rank sum is a DP over tie groups: taking j of a
    group's t tied values adds j times its doubled midrank, in C(t, j)
    ways (Streitberg & Röhmel 1986). Two-sided p is defined as in
    ``mwu_permutation_p``.
    """
    n1 = len(g1)
    pooled = sorted(list(g1) + list(g2))
    n = len(pooled)
    top = n * (n + 1)  # doubled rank sum of all n values
    # ways[k, s]: subsets of the tie groups seen so far with k values
    # and doubled rank sum s
    ways = np.zeros((n1 + 1, top + 1))
    ways[0, 0] = 1.0
    doubled_rank = {}
    first = 1
    for value, tied in itertools.groupby(pooled):
        t = len(list(tied))
        rank2 = 2 * first + t - 1
        doubled_rank[value] = rank2
        first += t
        grown = np.zeros_like(ways)
        for j in range(min(t, n1) + 1):
            shift = j * rank2
            grown[j:, shift:] += math.comb(t, j) * ways[: n1 + 1 - j, : top + 1 - shift]
        ways = grown
    counts = ways[n1] / math.comb(n, n1)
    observed = sum(doubled_rank[v] for v in g1)
    p_less = float(counts[: observed + 1].sum())
    p_greater = float(counts[observed:].sum())
    if alternative == "less":
        return p_less
    if alternative == "greater":
        return p_greater
    return min(1.0, 2.0 * min(p_less, p_greater))


def betainc_closed_form_2_3(x: float) -> float:
    """I_x(2, 3) from the closed-form polynomial 12 (x^2/2 - 2x^3/3 + x^4/4)."""
    return 12.0 * (x**2 / 2.0 - 2.0 * x**3 / 3.0 + x**4 / 4.0)


def scipy_nct_cdf(x, df, nc):
    return float(st.nct.cdf(x, df, nc))


def scipy_t_cdf(x, df):
    return float(sp.stdtr(df, x))


def scipy_betainc(a, b, x):
    return float(sp.betainc(a, b, x))


_BOOL_TOKENS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
    "yes": True,
    "no": False,
}


def _infer_kind(values):
    values = [v for v in values if v != ""]
    if values and all(_is_finite_number(v) for v in values):
        return "numeric"
    if values and all(v.lower() in _BOOL_TOKENS for v in values):
        return "boolean"
    return "categorical"


def _is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _convert(raw, kind):
    if raw == "":
        return None
    if kind == "numeric":
        return float(raw)
    if kind == "boolean":
        return _BOOL_TOKENS[raw.lower()]
    return raw


def load_csv_columns(path):
    """[(name, kind, cells)] of a well-formed CSV file, one column at a time.

    Each column's kind is inferred cell by cell (numeric when every
    present cell is a finite float, else boolean when every present cell
    is a boolean token, else categorical; "" is missing), and then each
    cell is converted for that kind.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = []
    for i, name in enumerate(header):
        raw = [row[i] for row in rows]
        kind = _infer_kind(raw)
        columns.append((name, kind, tuple(_convert(v, kind) for v in raw)))
    return columns


def load_csv_reference(path):
    """What ``load_csv`` makes of the file at ``path``: ([(name, kind,
    cells)], row_count, sha256), or the message of its DatasetError.

    Every text goes through ``csv.reader`` row by row, with the header
    and row-length checks of the loader and its messages; the rows are
    transposed with ``zip`` and each column typed by the cell-by-cell
    rules above.
    """
    data = Path(path).read_bytes()
    try:
        with io.StringIO(data.decode("utf-8"), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return f"{path}: empty file, expected a header row"
            if header == [] or all(h == "" for h in header):
                return f"{path}: empty header row"
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                return f"{path}: duplicate header names {dupes}"
            if "" in header:
                return f"{path}: empty column name in header"
            rows = []
            for row in reader:
                if len(row) != len(header):
                    return (
                        f"{path}: ragged row at line {reader.line_num}, "
                        f"expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"{path}: unreadable CSV: {exc}"
    raw_columns = list(zip(*rows)) if rows else [()] * len(header)
    columns = []
    for name, raw in zip(header, raw_columns):
        kind = _infer_kind(raw)
        columns.append((name, kind, tuple(_convert(v, kind) for v in raw)))
    return columns, len(rows), hashlib.sha256(data).hexdigest()
