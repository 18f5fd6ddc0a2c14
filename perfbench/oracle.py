"""Correctness oracle for a results tree.

Every expected value is recomputed from the generator's own column
values with numpy, scipy and the standard library, never through the
package's code. Tolerances are the Tier-1 suite's: Welch t and df to
1e-10 (relative above 1), Welch p to 1e-8 (the t-CDF accuracy grid),
post-hoc power to 1e-6 (the noncentral-t grid), Mann-Whitney U to 1e-9
and its tie-corrected, continuity-corrected p to 1e-10 (the scipy
asymptotic comparison), descriptives to 1e-10 relative, and contingency
counts exactly.

numpy and scipy are imported on first use, after the timed region, so
they count neither in the measured times nor in the measured peak RSS.
"""

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import generator

VOLATILE_KEYS = ("run_id", "generated_at")


def result_path(results_root: Path, output: dict, result_file: str) -> Path:
    parts = [output["bucket"]] + [p for p in output["prefix"].split("/") if p]
    return results_root.joinpath(*parts, f"{result_file}.json")


def expected_documents(payload_docs: Iterable[dict]) -> List[Tuple[dict, dict]]:
    """(payload, request) for every result document the payloads promise."""
    return [(doc, req) for doc in payload_docs for req in doc["analyses"]]


def normalized(doc: dict) -> dict:
    """A result document without the fields that differ between runs."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}


class ResultLedger:
    """Checks that equal inputs always give equal result documents.

    A document is a function of its payload and its dataset bytes. The
    ledger remembers the normalized document last seen under each
    (path, dataset sha256) and reports any later document that differs.
    """

    def __init__(self):
        self._seen: Dict[Tuple[str, str], dict] = {}

    def observe(self, results_root: Path, expected: List[Tuple[dict, dict]]) -> List[str]:
        problems = []
        for payload, req in expected:
            path = result_path(results_root, payload["output"], req["result_file"])
            try:
                doc = normalized(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name}: unreadable result document ({exc})")
                continue
            key = (str(path.relative_to(results_root)), doc["dataset"]["sha256"])
            previous = self._seen.setdefault(key, doc)
            if previous != doc:
                problems.append(f"{key[0]}: document changed for unchanged inputs")
        return problems


def _close(got, want, tol, relative_above_one=False) -> bool:
    if got is None or want is None:
        return got is want
    scale = max(1.0, abs(want)) if relative_above_one else 1.0
    return abs(got - want) <= tol * scale


def _groups(columns: Dict[str, list], dependent: str):
    g1, g2 = [], []
    for level, value in zip(columns[generator.GROUP], columns[dependent]):
        if level is None or value is None:
            continue
        (g2 if level else g1).append(value)
    return g1, g2


def _summary_problems(entry: dict, values: List[float]) -> List[str]:
    import numpy as np

    x = np.asarray(values, dtype=float)
    n = len(x)
    mean = float(x.mean()) if n else None
    sd = float(x.std(ddof=1)) if n >= 2 else None
    problems = []
    if entry.get("n") != n:
        problems.append(f"n {entry.get('n')} != {n}")
    for key, want in (("mean", mean), ("sd", sd)):
        got = entry.get(key)
        if want is None or got is None:
            if got is not want:
                problems.append(f"{key} {got} != {want}")
        elif abs(got - want) > 1e-10 * max(1.0, abs(want)):
            problems.append(f"{key} {got!r} != {want!r}")
    return problems


def _p_from_cdf(cdf: float, sf: float, alternative: str) -> float:
    if alternative == "less":
        return cdf
    if alternative == "greater":
        return sf
    return 2.0 * min(cdf, sf)


def _welch_parts(g1, g2):
    import numpy as np

    a = np.asarray(g1, dtype=float)
    b = np.asarray(g2, dtype=float)
    v1 = a.var(ddof=1) / len(a)
    v2 = b.var(ddof=1) / len(b)
    se = math.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (v1**2 / (len(a) - 1) + v2**2 / (len(b) - 1))
    return float(a.mean() - b.mean()) / se, float(df)


def nct_cdf_quadrature(x: float, df: float, nc: float) -> float:
    """P(T <= x) = E[Phi(x sqrt(V/df) - nc)] with V ~ chi2(df), integrated
    over V's central mass."""
    from scipy import integrate
    from scipy import stats as st

    lo, hi = st.chi2.ppf([1e-16, 1.0 - 1e-16], df)
    value, _ = integrate.quad(
        lambda v: st.norm.cdf(x * math.sqrt(v / df) - nc) * st.chi2.pdf(v, df),
        lo,
        hi,
        epsabs=1e-12,
        limit=200,
    )
    return value


def _nct_cdf(x: float, df: float, nc: float) -> float:
    """Noncentral t CDF from scipy, by quadrature where scipy gives NaN,
    as it does deep in a tail (a probability near 1e-29 at nc = 9,
    df = 900)."""
    from scipy import stats as st

    value = float(st.nct.cdf(x, df, nc))
    return value if math.isfinite(value) else nct_cdf_quadrature(x, df, nc)


def check_entry(statistic: str, req: dict, entry: dict, columns: Dict[str, list], dependent: str) -> List[str]:
    """Problems with one result entry; an empty list means it agrees."""
    from scipy import stats as st

    if "error" in entry:
        return [f"unexpected error entry {entry['error']}"]
    alternative = req["alternative"]
    if statistic == "get_contingency_table":
        named = (entry.get("row_variable"), entry.get("col_variable"))
        if named != (req["independent"], dependent):
            return [f"table of {named}, expected {(req['independent'], dependent)}"]
        rows = [None if v is None else ("true" if v else "false") for v in columns[generator.GROUP]]
        cols = columns[dependent]
        pairs = [(r, c) for r, c in zip(rows, cols) if r is not None and c is not None]
        row_levels = sorted({r for r in rows if r is not None})
        col_levels = sorted({c for c in cols if c is not None})
        counts = [[sum(1 for p in pairs if p == (r, c)) for c in col_levels] for r in row_levels]
        want = {
            "row_levels": row_levels,
            "col_levels": col_levels,
            "counts": counts,
            "row_totals": [sum(r) for r in counts],
            "col_totals": [sum(col) for col in zip(*counts)],
            "grand_total": len(pairs),
        }
        return [f"{k} {entry.get(k)} != {v}" for k, v in want.items() if entry.get(k) != v]

    if entry.get("dependent") != dependent:
        return [f"entry for {entry.get('dependent')!r}, expected {dependent!r}"]
    g1, g2 = _groups(columns, dependent)
    problems: List[str] = []
    if statistic == "get_descriptives":
        for key, values in (("group1", g1), ("group2", g2)):
            problems += [f"{key}: {p}" for p in _summary_problems(entry.get(key, {}), values)]
        return problems

    if statistic == "get_mann_whitney_u":
        ref = st.mannwhitneyu(
            g1,
            g2,
            alternative=alternative.replace("two_sided", "two-sided"),
            method="asymptotic",
            use_continuity=True,
        )
        n1, n2 = len(g1), len(g2)
        want_ties = len(set(g1 + g2)) < n1 + n2
        if (entry.get("n1"), entry.get("n2")) != (n1, n2):
            problems.append(f"n {entry.get('n1')},{entry.get('n2')} != {n1},{n2}")
        if entry.get("method") != "normal_approx":
            problems.append(f"method {entry.get('method')} != normal_approx")
        if entry.get("tie_correction_applied") != want_ties:
            problems.append(f"tie_correction_applied != {want_ties}")
        if not _close(entry.get("u1"), float(ref.statistic), 1e-9):
            problems.append(f"u1 {entry.get('u1')!r} != {float(ref.statistic)!r}")
        if not _close(entry.get("u2"), n1 * n2 - float(ref.statistic), 1e-9):
            problems.append(f"u2 {entry.get('u2')!r} != {n1 * n2 - float(ref.statistic)!r}")
        if not _close(entry.get("p_value"), float(ref.pvalue), 1e-10):
            problems.append(f"p_value {entry.get('p_value')!r} != {float(ref.pvalue)!r}")
        return problems

    t, df = _welch_parts(g1, g2)
    if statistic == "get_welch_ttest":
        for key, values in (("group1", g1), ("group2", g2)):
            problems += [f"{key}: {p}" for p in _summary_problems(entry.get(key, {}), values)]
        p = _p_from_cdf(float(st.t.cdf(t, df)), float(st.t.sf(t, df)), alternative)
        checks = (("t", t, 1e-10, True), ("df", df, 1e-10, True), ("p_value", p, 1e-8, False))
    else:  # get_welch_power
        alpha = req["alpha"]
        if alternative == "greater":
            crit = float(st.t.ppf(1.0 - alpha, df))
            power = 1.0 - _nct_cdf(crit, df, t)
        elif alternative == "less":
            crit = float(st.t.ppf(alpha, df))
            power = _nct_cdf(crit, df, t)
        else:
            crit = float(st.t.ppf(1.0 - 0.5 * alpha, df))
            power = 1.0 - _nct_cdf(crit, df, t) + _nct_cdf(-crit, df, t)
        power = min(max(power, 0.0), 1.0)
        checks = (
            ("noncentrality", t, 1e-10, True),
            ("df", df, 1e-10, True),
            ("critical_value", crit, 1e-6, True),
            ("power", power, 1e-6, False),
        )
    for key, want, tol, rel in checks:
        if not _close(entry.get(key), want, tol, rel):
            problems.append(f"{key} {entry.get(key)!r} != {want!r}")
    return problems


def check_tree(
    results_root: Path,
    expected: List[Tuple[dict, dict]],
    columns: Dict[str, Dict[str, list]],
    sha_of: Dict[str, str],
) -> Tuple[int, List[str]]:
    """Check every expected document under ``results_root``.

    ``columns[name]`` holds the generator's columns for the dataset
    version the tree should reflect, whose sha256 is ``sha_of[name]``.
    Returns the number of checks made and the problems found.
    """
    checked = 0
    problems: List[str] = []
    for payload, req in expected:
        checked += 1
        path = result_path(results_root, payload["output"], req["result_file"])
        where = f"{path.relative_to(results_root)}"
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            problems.append(f"{where}: missing result document")
            continue
        except (OSError, ValueError) as exc:
            problems.append(f"{where}: unreadable ({exc})")
            continue
        name = req["dataset"]
        head = {
            "statistic": req["statistic"],
            "dataset": {"name": name, "sha256": sha_of[name]},
            "independent": req["independent"],
            "alternative": req["alternative"],
            "alpha": req["alpha"],
            "result_file": req["result_file"],
        }
        problems += [f"{where}: {k} {doc.get(k)!r} != {v!r}" for k, v in head.items() if doc.get(k) != v]
        if req["statistic"] != "get_contingency_table" and doc.get("groups") != {
            "false": "group1",
            "true": "group2",
        }:
            problems.append(f"{where}: groups {doc.get('groups')!r}")
        entries = doc.get("results", [])
        if len(entries) != len(req["dependent"]):
            problems.append(f"{where}: {len(entries)} entries for {len(req['dependent'])} dependents")
            continue
        for entry, dependent in zip(entries, req["dependent"]):
            checked += 1
            for problem in check_entry(req["statistic"], req, entry, columns[name], dependent):
                problems.append(f"{where} [{dependent}]: {problem}")
    return checked, problems

