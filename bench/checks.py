"""Output checks, each against a computation made apart from the package or
against a property the method must have.

Every check returns a list of failure messages; an empty list passes.  The
formulas here are coded from the paper's definitions, not imported from the
package, so a fault in the package cannot cancel out.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

import inputs

Z95 = 1.96
LN2 = math.log(2.0)

# Per-H bounds on the true coverage of the 95 % interval over the estimate
# lengths.  The interval is asymptotic, so the H = 0.95 cells cover less (the
# published Table 2 reads 0.749 to 0.884 there), and their series are drawn
# in fixed h_hat bands, which moves their coverage further.
COVERAGE_RANGE = {0.95: (0.5, 0.99)}
COVERAGE_DEFAULT = (0.88, 0.99)
# Two-sided tail left outside the binomial bounds; small enough that a
# correct program fails about once in 10^7 groups.
COVERAGE_TAIL = 1e-7

# Monte Carlo tolerances in standard errors for the campaign and tables checks.
Z_TOL = 6.0
PUBLISHED_REPLICATIONS = 50_000
# The standard error of a sample variance grows with the kurtosis of the
# samples; campaign cells reach about 4.9 (ZC at H = 0.85, n = 8192).
KURTOSIS_BOUND = 6.0
# The campaign interpolates Var(c_n) on a 0.02 H grid, which moves its ZC
# coverage by up to about 0.022 from the published figures (H = 0.95,
# n = 1024, over eight seeds).
COARSE_PROXY_COVERAGE = 0.03


def change_rate(h: float) -> float:
    """c(H) = P(increments change sign) = 1/2 - arcsin(rho_1)/pi, rho_1 = 2^(2H-1) - 1."""
    rho1 = 2.0 ** (2.0 * h - 1.0) - 1.0
    return 0.5 - math.asin(rho1) / math.pi


def g_prime(c: float) -> float:
    return -(math.pi / (2.0 * LN2)) * math.tan(math.pi * c / 2.0)


def g_second(c: float) -> float:
    return -(math.pi**2 / (4.0 * LN2)) / math.cos(math.pi * c / 2.0) ** 2


def lag1_hurst(x: np.ndarray) -> float:
    """HEAF: H = (1 + log2(1 + max(-1/2, r1))) / 2, r1 the lag-1 autocorrelation."""
    d = np.diff(np.asarray(x, dtype=float))
    centered = d - d.sum() / d.size
    r1 = np.dot(centered[1:], centered[:-1]) / np.dot(centered, centered)
    return 0.5 * (1.0 + math.log2(1.0 + max(-0.5, float(r1))))


def check_zc(report: dict, x: np.ndarray) -> list:
    """One ZC report against the series it came from."""
    fails = []
    changes, windows = inputs.sign_changes(x)
    if report["statistic"] != changes / windows:
        fails.append(f"ZC statistic {report['statistic']!r} != {changes}/{windows}")
    expected = inputs.hurst_from_rate(changes / windows)
    if not abs(report["h_hat"] - expected) <= 1e-12:
        fails.append(f"ZC h_hat {report['h_hat']!r} != g(c) = {expected!r}")
    lo, hi, h_hat = report["ci_low"], report["ci_high"], report["h_hat"]
    if not 0.0 <= lo <= h_hat <= hi <= 1.0:
        fails.append(f"ZC interval [{lo}, {hi}] does not hold {h_hat} inside [0, 1]")
    # No changes at all give h_hat = 1 and a zero-width interval.
    if not (report["s_n"] > 0.0 or (h_hat == 1.0 and report["s_n"] == 0.0 and lo == 1.0)):
        fails.append(f"ZC s_n {report['s_n']!r} is not positive")
    return fails


def check_heaf(report: dict, x: np.ndarray) -> list:
    expected = lag1_hurst(x)
    if not abs(report["h_hat"] - expected) <= 1e-12:
        return [f"HEAF h_hat {report['h_hat']!r} != lag-1 transform {expected!r}"]
    return []


def coverage_bounds(h: float, trials: int) -> tuple:
    """Least and greatest covered count a correct estimator can plausibly give."""
    p_lo, p_hi = COVERAGE_RANGE.get(h, COVERAGE_DEFAULT)
    low = int(binom.ppf(COVERAGE_TAIL / 2.0, trials, p_lo))
    high = int(binom.isf(COVERAGE_TAIL / 2.0, trials, p_hi))
    return low, high


def check_coverage(covered: dict) -> list:
    """covered maps true H to (intervals covering H, intervals)."""
    fails = []
    for h, (hits, trials) in sorted(covered.items()):
        low, high = coverage_bounds(h, trials)
        if not low <= hits <= high:
            fails.append(f"coverage at H={h}: {hits}/{trials} outside [{low}, {high}]")
    return fails


def _mc_tolerance(step: float, se: float, replications: int) -> float:
    """Z_TOL standard errors of the difference, plus half the printed step.

    The published figures carry their own rounding and the error of their
    50 000 replications.
    """
    se_published = se * math.sqrt(replications / PUBLISHED_REPLICATIONS)
    return Z_TOL * math.hypot(se, se_published) + 0.5 * step


def _step_of(value: float) -> float:
    """One unit in the last of three significant digits."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 2)


def check_campaign(cells: dict, replications: int, table2: dict, table3: dict) -> list:
    """cells maps (h, n, "ZC"|"HEAF") to dicts with mean, variance, coverage,
    replications and failures."""
    fails = []
    for (h, n, est), cell in sorted(cells.items()):
        tag = f"{est} H={h} n={n}"
        if cell["failures"] != 0:
            fails.append(f"{tag}: {cell['failures']} failures")
        if cell["replications"] != replications:
            fails.append(f"{tag}: {cell['replications']} replications, asked {replications}")
        ref = table2[(h, n)] if est == "ZC" else table3[(h, n)]
        var = ref["var"]
        se_mean = math.sqrt(var / replications)
        tol = _mc_tolerance(0.001, se_mean, replications)
        if not abs(cell["mean"] - ref["mean"]) <= tol:
            fails.append(f"{tag}: mean {cell['mean']:.5f} vs published {ref['mean']} (tol {tol:.5f})")
        se_var = var * math.sqrt((KURTOSIS_BOUND - 1.0) / replications)
        tol = _mc_tolerance(_step_of(var), se_var, replications)
        if not abs(cell["variance"] - var) <= tol:
            fails.append(f"{tag}: variance {cell['variance']:.3g} vs published {var} (tol {tol:.3g})")
        if est == "ZC":
            p = ref["coverage"]
            se_cov = math.sqrt(p * (1.0 - p) / replications)
            tol = _mc_tolerance(0.001, se_cov, replications) + COARSE_PROXY_COVERAGE
            if not abs(cell["coverage"] - p) <= tol:
                fails.append(f"{tag}: coverage {cell['coverage']:.4f} vs published {p} (tol {tol:.4f})")
    return fails


def check_table1(rows: list, h_grid, k_eps_01, k_eps_001) -> list:
    """rows: CSV dicts of `zchurst table1` (strings)."""
    expected = {}
    for h, k1, k2 in zip(h_grid, k_eps_01, k_eps_001):
        expected[(h, 0.01)] = k1
        expected[(h, 0.001)] = k2
    got = {(float(r["h"]), float(r["eps"])): r for r in rows}
    fails = []
    if set(got) != set(expected):
        fails.append(f"table1 rows {sorted(got)} != {sorted(expected)}")
    for key, k in sorted(expected.items()):
        row = got.get(key)
        if row is not None and (row["k"] != str(k) or row["capped"] != "false"):
            fails.append(f"table1 H={key[0]} eps={key[1]}: k={row['k']!r}, published {k}")
    return fails


def figure1_var_c(row: dict) -> float:
    """Var(c_n) recovered from a figure1 row's bias column: bias = g''(c) var / 2."""
    c = change_rate(float(row["h"]))
    return 2.0 * float(row["asymptotic_bias"]) / g_second(c)


def check_figure1(rows: list, lengths, rows_per_n: int) -> list:
    """Every row's interval against 1.96 |g'(c(H))| sqrt(var_c), var_c from its bias."""
    fails = []
    per_n = {}
    for row in rows:
        n, h = int(row["n"]), float(row["h"])
        per_n[n] = per_n.get(n, 0) + 1
        lo, hi = float(row["ci_low"]), float(row["ci_high"])
        if h == 1.0:
            zeros = (float(row["asymptotic_bias"]), float(row["asymptotic_variance"]))
            if (lo, hi) != (1.0, 1.0) or zeros != (0.0, 0.0):
                fails.append(f"figure1 n={n} H=1: {row}")
            continue
        c = change_rate(h)
        var_c = figure1_var_c(row)
        if not var_c > 0.0:
            fails.append(f"figure1 n={n} H={h}: var_c {var_c!r} is not positive")
            continue
        s_n = g_prime(c) ** 2 * var_c
        if not math.isclose(float(row["asymptotic_variance"]), s_n, rel_tol=1e-9):
            fails.append(f"figure1 n={n} H={h}: variance {row['asymptotic_variance']} != {s_n!r}")
        half = Z95 * abs(g_prime(c)) * math.sqrt(var_c)
        want = (max(h - half, 0.0), min(h + half, 1.0))
        if not (abs(lo - want[0]) <= 1e-12 and abs(hi - want[1]) <= 1e-12):
            fails.append(f"figure1 n={n} H={h}: interval ({lo}, {hi}) != {want}")
    if per_n != dict.fromkeys(lengths, rows_per_n):
        fails.append(f"figure1 row counts per n: {per_n}, expected {rows_per_n} each")
    return fails


def mc_var_c(h: float, increments: int, paths: int, rng: np.random.Generator, chunk=10_000):
    """Monte Carlo Var(c_n) over `increments - 1` windows and its standard error."""
    cs = []
    for start in range(0, paths, chunk):
        y = inputs.fgn_cholesky(h, increments, min(chunk, paths - start), rng)
        up = y > 0.0
        cs.append(np.count_nonzero(up[:, :-1] != up[:, 1:], axis=1) / (increments - 1))
    c = np.concatenate(cs)
    dev2 = (c - c.mean()) ** 2
    return float(dev2.sum() / (c.size - 1)), float(dev2.std(ddof=1) / math.sqrt(c.size))


def check_figure1_mc(rows: list, n: int, hursts, paths: int, rng) -> list:
    """n Var_H(c_n) of the figure1 rows at length n against Monte Carlo."""
    fails = []
    for h in hursts:
        row = next(
            (r for r in rows if int(r["n"]) == n and abs(float(r["h"]) - h) < 1e-9), None
        )
        if row is None:
            fails.append(f"figure1 has no row at n={n}, H={h}")
            continue
        var_c = figure1_var_c(row)
        mc, se = mc_var_c(float(row["h"]), n, paths, rng)
        z = (mc - var_c) / se
        if not abs(z) <= Z_TOL:
            fails.append(
                f"figure1 n={n} H={h}: (n-1) Var {(n - 1) * var_c:.5f} vs Monte Carlo "
                f"{(n - 1) * mc:.5f} (z={z:.2f})"
            )
    return fails
