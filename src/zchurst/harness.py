"""Reproducible Monte Carlo campaigns and the batch report generators.

Determinism contract: a campaign's numbers are a pure function of its spec.
Every replication's seed is derived by mixing (base_seed, H index, length
index, replication index), so results do not depend on scheduling, worker
count, or completion order; per-cell aggregation concatenates the cell's
blocks in replication order, and numpy reduces the result with pairwise
summation.

The expensive part of one replication would be Var_H(c_n) at the estimated
H (quadrature per call); campaigns instead precompute n * Var on an H grid
once per length and interpolate linearly, and pass that table to
zc_estimate as its var_c.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import io
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NumericalError
from .estimators import (
    H_FLOOR,
    asymptotic_expectation,
    asymptotic_variance,
    heaf_estimate,
    zc_estimate,
    zc_interval,
)
from .fbm import as_hurst, synthesize
from .variance import k_threshold, var_c_approx, var_c_asymptotic, window_count

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ZC = "ZC"
HEAF = "HEAF"

# CSV floats carry 17 significant digits: enough to round-trip a double.
_FLOAT_FMT = ".17g"


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Mix a base seed with any number of indices into one 64-bit seed.

    Each index is folded through a full avalanche round, so neighboring
    replication indices land on unrelated generator keys.
    """
    x = int(base_seed) & _MASK64
    for idx in indices:
        x = _mix64((x + _GOLDEN * (int(idx) + 1)) & _MASK64)
    return x


def _check_grid_step(grid_step: float) -> None:
    if not 0.0 < grid_step <= 0.1:  # also NaN
        raise DomainError(f"grid_step must be in (0, 0.1], got {grid_step}")


@dataclass(frozen=True)
class VarianceProxy:
    """n * Var_H(c_n) tabulated on an H grid, linearly interpolated.

    The grid pins H_FLOOR and 1.0 as endpoints (the variance vanishes
    continuously at H = 1), so any estimate in [0, 1] interpolates.
    """

    n: int
    h_grid: np.ndarray = field(repr=False)
    f_grid: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, n: int, grid_step: float = 0.001) -> "VarianceProxy":
        _check_grid_step(grid_step)
        steps = round(1.0 / grid_step)
        interior = np.linspace(0.0, 1.0, steps + 1)[1:-1]
        h_grid = np.concatenate(([H_FLOOR], interior, [1.0]))
        f_grid = n * var_c_approx(h_grid, n)
        h_grid.setflags(write=False)
        f_grid.setflags(write=False)
        return cls(n=n, h_grid=h_grid, f_grid=f_grid)

    def var_c(self, h: float, n: int) -> float:
        if n != self.n:
            raise DomainError(f"proxy was built for n={self.n}, asked for n={n}")
        return float(np.interp(h, self.h_grid, self.f_grid)) / self.n


@dataclass(frozen=True)
class CampaignSpec:
    """Grid, replication count, seed, workers and proxy grid for one campaign."""

    hurst_grid: tuple
    lengths: tuple
    replications: int
    base_seed: int
    estimators: tuple = (ZC, HEAF)
    workers: int = 1
    proxy_grid_step: float = 0.001

    def __post_init__(self):
        if not self.hurst_grid or not self.lengths:
            raise DomainError("hurst_grid and lengths must be non-empty")
        # v % 1 is nonzero for a fraction, and NaN for NaN and +-inf
        if self.replications < 1 or self.replications % 1 != 0:
            raise DomainError(f"need a whole number >= 1 of replications, got {self.replications}")
        if self.workers < 1 or self.workers % 1 != 0:
            raise DomainError(f"need a whole number >= 1 of workers, got {self.workers}")
        unknown = set(self.estimators) - {ZC, HEAF}
        if unknown:
            raise DomainError(f"unknown estimators: {sorted(unknown)}")
        _check_grid_step(self.proxy_grid_step)  # also where ZC, and so the proxy, does not run
        object.__setattr__(self, "hurst_grid", tuple(as_hurst(h) for h in self.hurst_grid))
        if any(n < 3 or n % 1 != 0 for n in self.lengths):
            raise DomainError(
                f"every length must be a whole number >= 3 (window count >= 1), got {self.lengths}"
            )
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))
        # cells are keyed by value: a repeat would overwrite an earlier cell
        for name, grid in (("hurst_grid", self.hurst_grid), ("lengths", self.lengths)):
            if len(set(grid)) < len(grid):
                raise DomainError(f"{name} repeats a value: {grid}")


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (H, n, estimator) cell.

    wall_time is the summed wall time of the cell's replication blocks, each
    timed where it ran, so it counts work and not waiting on other cells.
    The cell's ZC and HEAF stats share it, as they share the blocks.
    samples holds the completed replications' estimates in replication order.
    """

    mean: float
    variance: float
    coverage: float | None
    replications: int
    failures: int
    wall_time: float
    samples: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CampaignResult:
    spec: CampaignSpec
    cells: dict

    def cell(self, h: float, n: int, estimator: str) -> CellStats:
        return self.cells[(as_hurst(h), int(n), estimator)]


@dataclass(frozen=True)
class _Block:
    """Replications [start, stop) of the cell (hurst_grid[h_index], lengths[n_index]).

    proxy is the cell's VarianceProxy when ZC runs, None otherwise.
    """

    base_seed: int
    h_index: int
    n_index: int
    h: float
    n: int
    start: int
    stop: int
    proxy: VarianceProxy | None
    heaf: bool


def _run_block(block: _Block):
    """Per-replication arrays indexed from block.start, plus the block's wall time."""
    t0 = time.perf_counter()
    count = block.stop - block.start
    zc_h = np.full(count, np.nan)
    covered = np.zeros(count, dtype=bool)
    heaf_h = np.full(count, np.nan)
    failed = np.zeros(count, dtype=bool)
    var_c = block.proxy.var_c if block.proxy is not None else None
    for i in range(count):
        seed = derive_seed(block.base_seed, block.h_index, block.n_index, block.start + i)
        try:
            path = synthesize(block.h, block.n, seed)
        except NumericalError:
            failed[i] = True
            continue
        if var_c is not None:
            report = zc_estimate(path.levels, var_c=var_c)
            zc_h[i] = report.h_hat
            covered[i] = report.ci_low <= block.h <= report.ci_high
        if block.heaf:
            heaf_h[i] = heaf_estimate(path.levels).h_hat
    return zc_h, covered, heaf_h, failed, time.perf_counter() - t0


def _aggregate(values: np.ndarray, covered, failed, elapsed) -> CellStats:
    ok = values[~failed]
    coverage = None
    if covered is not None:
        coverage = float(np.count_nonzero(covered[~failed]) / max(ok.size, 1))
    return CellStats(
        mean=float(ok.mean()) if ok.size else math.nan,
        variance=float(ok.var(ddof=1)) if ok.size > 1 else math.nan,
        coverage=coverage,
        replications=int(ok.size),
        failures=int(np.count_nonzero(failed)),
        wall_time=elapsed,
        samples=ok,
    )


def build_proxies(spec: CampaignSpec) -> dict:
    """One VarianceProxy per length (ZC campaigns only need these)."""
    proxies = {}
    if ZC in spec.estimators:
        for n in sorted(spec.lengths):
            proxies[n] = VarianceProxy.build(n - 1, spec.proxy_grid_step)
    return proxies


@contextlib.contextmanager
def _task_map(workers: int):
    """The builtin map in-process at one worker, else one process pool's map."""
    if workers == 1:
        yield map
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            yield pool.map


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run every (H, n) cell; bit-identical output for any worker count."""
    want_zc = ZC in spec.estimators
    want_heaf = HEAF in spec.estimators
    proxies = build_proxies(spec)
    reps = spec.replications
    step = max(1, math.ceil(reps / (spec.workers * 4)))
    blocks = [
        _Block(
            spec.base_seed,
            h_index,
            n_index,
            h,
            n,
            start,
            min(start + step, reps),
            proxies.get(n),
            want_heaf,
        )
        for n_index, n in enumerate(spec.lengths)
        for h_index, h in enumerate(spec.hurst_grid)
        for start in range(0, reps, step)
    ]
    cells = {}
    with _task_map(spec.workers) as run:
        done = zip(blocks, run(_run_block, blocks))
        # A cell's blocks are adjacent and in replication order.
        for (n_index, h_index), group in itertools.groupby(
            done, key=lambda pair: (pair[0].n_index, pair[0].h_index)
        ):
            *columns, walls = zip(*(result for _, result in group))
            zc_h, covered, heaf_h, failed = map(np.concatenate, columns)
            h, n = spec.hurst_grid[h_index], spec.lengths[n_index]
            elapsed = sum(walls)
            if want_zc:
                cells[(h, n, ZC)] = _aggregate(zc_h, covered, failed, elapsed)
            if want_heaf:
                cells[(h, n, HEAF)] = _aggregate(heaf_h, None, failed, elapsed)
    return CampaignResult(spec=spec, cells=cells)


DEFAULT_TABLE1_GRID = tuple(round(0.05 + 0.1 * i, 2) for i in range(10))
DEFAULT_TABLE1_EPS = (0.01, 0.001)
TABLE23_GRID = (0.55, 0.65, 0.75, 0.85, 0.95)
TABLE23_LENGTHS = (128, 1024, 8192)
DEFAULT_REPLICATIONS = 5000


def table1(eps_list=DEFAULT_TABLE1_EPS, hurst_grid=DEFAULT_TABLE1_GRID, k_max: int = 100_000):
    """Threshold lags k at which the order-3 Taylor form reaches accuracy eps.

    Returns one row dict per (h, eps); a capped search is annotated rather
    than raised so the table stays rectangular.  Each eps column is one
    k_threshold search over the whole grid.
    """
    columns = [k_threshold(np.asarray(hurst_grid), 3, eps, k_max).tolist() for eps in eps_list]
    rows = []
    for h, ks in zip(hurst_grid, zip(*columns)):
        for eps, k in zip(eps_list, ks):
            capped = k > k_max
            rows.append({"h": h, "eps": eps, "k": None if capped else k, "capped": capped})
    return rows


def figure1_data(n_list=TABLE23_LENGTHS, grid_step: float = 0.001):
    """Interval bounds and asymptotic bias/variance on an H grid, per n.

    The interval columns answer "given the estimate x, what interval would
    be reported"; the bias/variance columns are the large-n moments at
    true H = x.  Long format for external plotting.
    """
    rows = []
    for n in n_list:
        windows = int(n) - 1
        proxy = VarianceProxy.build(windows, grid_step)
        for h, f_val in zip(proxy.h_grid, proxy.f_grid):
            h = float(h)
            s_n, bias, ci_low, ci_high = zc_interval(h, f_val / windows)
            rows.append(
                {
                    "n": int(n),
                    "h": h,
                    "ci_low": ci_low,
                    "ci_high": ci_high,
                    "asymptotic_bias": bias,
                    "asymptotic_variance": s_n,
                }
            )
    return rows


def figure3_data(spec: CampaignSpec):
    """Standardized ZC estimate samples plus a KS normality diagnostic.

    Runs the spec's campaign with the ZC estimator only and returns
    (samples_rows, summary_rows), one summary row per (n, H) cell.
    """
    from scipy.stats import kstest
    if spec.replications < 1000:
        raise DomainError(
            f"need at least 1000 replications for a stable histogram, got {spec.replications}"
        )
    result = run_campaign(replace(spec, estimators=(ZC,)))
    samples_rows = []
    summary_rows = []
    for (h, n, _), cell in result.cells.items():
        sd = math.sqrt(cell.variance)
        if not (math.isfinite(sd) and sd > 0.0):
            raise DomainError(
                f"H={h}, n={n}: the estimates have sd {sd}, so they cannot be standardized"
            )
        standardized = (cell.samples - cell.mean) / sd
        ks = kstest(standardized, "norm")
        summary_rows.append(
            {
                "h": h,
                "n": n,
                "replications": cell.replications,
                "mean": cell.mean,
                "sd": sd,
                "coverage": cell.coverage,
                "ks_statistic": float(ks.statistic),
                "ks_pvalue": float(ks.pvalue),
            }
        )
        samples_rows.extend(
            {"h": h, "n": n, "replication": i, "standardized": float(v)}
            for i, v in enumerate(standardized)
        )
    return samples_rows, summary_rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def write_csv(rows, columns, out) -> None:
    """Rows of dicts to CSV with a header; floats at 17 significant digits.

    Output bytes are deterministic: fixed column order, "\\n" terminators,
    no timestamps.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])


def csv_text(rows, columns) -> str:
    buf = io.StringIO()
    write_csv(rows, columns, buf)
    return buf.getvalue()


TABLE1_COLUMNS = ("h", "eps", "k", "capped")
TABLE2_COLUMNS = (
    "h",
    "n",
    "replications",
    "failures",
    "mean",
    "variance",
    "asymptotic_expectation",
    "asymptotic_variance",
    "coverage",
)
TABLE3_COLUMNS = ("h", "n", "replications", "failures", "mean", "variance")
FIGURE1_COLUMNS = ("n", "h", "ci_low", "ci_high", "asymptotic_bias", "asymptotic_variance")
FIGURE3_SAMPLE_COLUMNS = ("h", "n", "replication", "standardized")
FIGURE3_SUMMARY_COLUMNS = (
    "h",
    "n",
    "replications",
    "mean",
    "sd",
    "coverage",
    "ks_statistic",
    "ks_pvalue",
)
VARIANCE_TABLE_COLUMNS = ("h", "n", "var_c", "f_n", "var_c_asymptotic")


def _cell_rows(result: CampaignResult, estimator: str):
    """The per-cell columns shared by Tables 2 and 3, with each row's cell."""
    for h in result.spec.hurst_grid:
        for n in result.spec.lengths:
            cell = result.cell(h, n, estimator)
            row = {
                "h": h,
                "n": n,
                "replications": cell.replications,
                "failures": cell.failures,
                "mean": cell.mean,
                "variance": cell.variance,
            }
            yield row, cell


def table2_rows(result: CampaignResult):
    """Simulated ZC moments next to the deterministic asymptotic columns."""
    rows = []
    for row, cell in _cell_rows(result, ZC):
        # The asymptotic columns are evaluated at the nominal length n,
        # matching how the reference table labels them.
        row["asymptotic_expectation"] = asymptotic_expectation(row["h"], row["n"])
        row["asymptotic_variance"] = asymptotic_variance(row["h"], row["n"])
        row["coverage"] = cell.coverage
        rows.append(row)
    return rows


def table3_rows(result: CampaignResult):
    return [row for row, _ in _cell_rows(result, HEAF)]


def variance_table_rows(h_list, n_list):
    """Var_H(c_n), f_n, and (where defined: H >= 3/4, n >= 2) the
    asymptotic law."""
    rows = []
    for h in h_list:
        hh = as_hurst(h)
        for n in n_list:
            n = window_count(n)
            var_c = var_c_approx(hh, n)
            rows.append(
                {
                    "h": hh,
                    "n": n,
                    "var_c": var_c,
                    "f_n": n * var_c,
                    "var_c_asymptotic": (
                        var_c_asymptotic(hh, n) if hh >= 0.75 and n >= 2 else None
                    ),
                }
            )
    return rows
