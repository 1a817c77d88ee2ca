"""Each output check passes on the package's real output and fails once that
output is corrupted; the input generator and the tracer are checked too.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import copy
import csv
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402
from zchurst import harness, variance  # noqa: E402


@pytest.fixture(scope="module")
def published():
    return workload.published()


def test_circulant_paths_have_the_fgn_covariance():
    rng = np.random.default_rng(0)
    paths = np.array([inputs.fgn_circulant(0.8, 64, rng) for _ in range(20_000)])
    sample = np.array([np.mean(paths[:, :-k or None] * paths[:, k:]) for k in range(5)])
    assert np.allclose(sample, inputs.fgn_autocov(0.8, np.arange(5)), atol=0.03)


def test_banded_cells_fill_their_quotas():
    rng = np.random.default_rng(1)
    series = inputs.draw_cell(inputs.BANDED_HURST, 256, rng)
    h_hat = [inputs.hurst_from_rate(np.divide(*inputs.sign_changes(x))) for x in series]
    for low, high, quota in inputs.HURST_BANDS:
        assert sum(low <= h < high for h in h_hat) == quota
    assert all(
        np.divide(*inputs.sign_changes(x)) >= inputs.MIN_CHANGE_RATE for x in series
    )


@pytest.fixture(scope="module")
def series_reports(tmp_path_factory):
    """A short series and the package's ZC and HEAF reports on it."""
    x = inputs.levels(inputs.fgn_circulant(0.7, 512, np.random.default_rng(2)))
    path = str(tmp_path_factory.mktemp("series") / "x.txt")
    inputs.write_series(path, x)
    reports = {}
    for method in ("zc", "heaf"):
        code, out, _ = workload.run_cli(["estimate", path, "--json", "--method", method])
        assert code == 0
        reports[method] = json.loads(out)
    return inputs.read_series(path), reports


def corrupted(report, **changes):
    bad = copy.deepcopy(report)
    bad.update(changes)
    return bad


def test_zc_check(series_reports):
    x, reports = series_reports
    zc = reports["zc"]
    assert checks.check_zc(zc, x) == []
    assert checks.check_zc(corrupted(zc, statistic=zc["statistic"] + 1 / 510), x)
    assert checks.check_zc(corrupted(zc, h_hat=zc["h_hat"] + 1e-9), x)
    assert checks.check_zc(corrupted(zc, ci_low=zc["h_hat"] + 1e-6), x)
    assert checks.check_zc(corrupted(zc, ci_high=1.2), x)
    assert checks.check_zc(corrupted(zc, s_n=0.0), x)


def test_heaf_check(series_reports):
    x, reports = series_reports
    heaf = reports["heaf"]
    assert checks.check_heaf(heaf, x) == []
    assert checks.check_heaf(corrupted(heaf, h_hat=heaf["h_hat"] + 1e-9), x)


def test_coverage_check():
    assert checks.check_coverage({0.55: (57, 60), 0.95: (50, 60)}) == []
    assert checks.check_coverage({0.55: (30, 60)})
    assert checks.check_coverage({0.95: (3, 60)})
    assert checks.check_coverage({0.55: (60, 60)}) == []  # 0.99 may cover all 60


def published_cells(table2, table3, replications):
    cells = {}
    for (h, n), ref in table2.items():
        cells[(h, n, "ZC")] = {
            "mean": ref["mean"],
            "variance": ref["var"],
            "coverage": ref["coverage"],
            "replications": replications,
            "failures": 0,
        }
    for (h, n), ref in table3.items():
        cells[(h, n, "HEAF")] = {
            "mean": ref["mean"],
            "variance": ref["var"],
            "coverage": None,
            "replications": replications,
            "failures": 0,
        }
    return cells


@pytest.mark.parametrize(
    "key, field, value",
    [
        ((0.55, 1024, "ZC"), "mean", 0.56),
        ((0.95, 128, "HEAF"), "mean", 0.9),
        ((0.75, 8192, "ZC"), "variance", 2 * 0.000121),
        ((0.65, 128, "HEAF"), "variance", 0.5 * 0.00322),
        ((0.95, 8192, "ZC"), "coverage", 0.75),
        ((0.55, 128, "ZC"), "failures", 1),
        ((0.55, 128, "HEAF"), "replications", 1999),
    ],
)
def test_campaign_check(published, key, field, value):
    cells = published_cells(published.TABLE2, published.TABLE3, 2000)
    assert checks.check_campaign(cells, 2000, published.TABLE2, published.TABLE3) == []
    cells[key][field] = value
    assert checks.check_campaign(cells, 2000, published.TABLE2, published.TABLE3)


def test_table1_check(published):
    rows = [
        {"h": repr(h), "eps": repr(eps), "k": str(k), "capped": "false"}
        for h, k1, k2 in zip(published.TABLE1_H_GRID, published.TABLE1_K_EPS_01, published.TABLE1_K_EPS_001)
        for eps, k in ((0.01, k1), (0.001, k2))
    ]
    args = (published.TABLE1_H_GRID, published.TABLE1_K_EPS_01, published.TABLE1_K_EPS_001)
    assert checks.check_table1(rows, *args) == []
    rows[-1] = dict(rows[-1], k="10039")
    assert checks.check_table1(rows, *args)
    assert checks.check_table1(rows[:-1], *args)


@pytest.fixture(scope="module")
def figure1_rows():
    """Coarse figure1 rows at n = 128, read back from the CSV the CLI writes."""
    rows = harness.figure1_data(n_list=(128,), grid_step=0.05)
    text = harness.csv_text(rows, harness.FIGURE1_COLUMNS)
    return list(csv.DictReader(io.StringIO(text)))


def test_figure1_check(figure1_rows):
    assert checks.check_figure1(figure1_rows, (128,), 21) == []
    rows = copy.deepcopy(figure1_rows)
    rows[7]["ci_low"] = repr(float(rows[7]["ci_low"]) - 1e-9)
    assert checks.check_figure1(rows, (128,), 21)
    rows = copy.deepcopy(figure1_rows)
    rows[7]["asymptotic_bias"] = repr(1.01 * float(rows[7]["asymptotic_bias"]))
    assert checks.check_figure1(rows, (128,), 21)
    assert checks.check_figure1(figure1_rows[:-1], (128,), 21)


def test_figure1_monte_carlo_check(figure1_rows):
    hursts = (0.55, 0.95)
    rng = np.random.default_rng(3)
    assert checks.check_figure1_mc(figure1_rows, 128, hursts, 40_000, rng) == []
    rows = copy.deepcopy(figure1_rows)
    for row in rows:
        row["asymptotic_bias"] = repr(1.1 * float(row["asymptotic_bias"]))
    assert checks.check_figure1_mc(rows, 128, hursts, 40_000, rng)


def test_tracer_counts_spans_and_restores():
    original = variance.gamma_exact
    original_build = harness.VarianceProxy.__dict__["build"]
    spans = tracer.Tracer()
    with spans.installed():
        assert variance.gamma_exact is not original
        variance.var_c_approx(0.7123, 40)
    assert variance.gamma_exact is original
    assert harness.VarianceProxy.__dict__["build"] is original_build
    summary = spans.summary()
    layers = tracer.layer_metrics(summary, 0)
    misses = {(e["parent"], e["child"]): e for e in summary["edges"]}[
        ("variance.gamma_exact", "orthant.orthant4_excess")
    ]["parents_with_child"]
    assert summary["spans"]["orthant.orthant4_excess"]["calls"] == 2 * misses
    assert 0.0 < layers["variance.gamma_exact.miss_ratio"] < 1.0
    assert layers["variance.k_threshold.calls"] == 1
    assert layers["variance.k_threshold.lags_per_call"] == misses
    for name in ("variance.k_threshold", "variance.gamma_exact"):
        span = summary["spans"][name]
        assert 0.0 <= span["self_s"] <= span["busy_s"]
