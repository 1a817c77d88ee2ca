"""Campaign harness tests: seed derivation, the variance proxy, campaign
determinism, report row shapes, and CSV formatting."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from zchurst import DomainError, harness, var_c_approx
from zchurst.harness import (
    FIGURE1_COLUMNS,
    HEAF,
    TABLE2_COLUMNS,
    TABLE3_COLUMNS,
    ZC,
    CampaignSpec,
    VarianceProxy,
    build_proxies,
    csv_text,
    derive_seed,
    figure1_data,
    figure3_data,
    run_campaign,
    table1,
    table2_rows,
    table3_rows,
    variance_table_rows,
)

from benchmarks import TABLE2


def test_derive_seed_mixing():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1, 2) != derive_seed(8, 1, 2)
    # adjacent replication indices must land on unrelated keys
    seeds = {derive_seed(123, 0, 0, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert all(0 <= s < 2**64 for s in seeds)


def test_variance_proxy_grid_and_interpolation():
    proxy = VarianceProxy.build(127, grid_step=0.01)
    assert proxy.h_grid[0] == 1e-4
    assert proxy.h_grid[-1] == 1.0
    assert proxy.f_grid[-1] == 0.0
    # exact at grid points
    for idx in (1, 40, 80):
        h = float(proxy.h_grid[idx])
        assert proxy.var_c(h, 127) == pytest.approx(
            var_c_approx(h, 127), rel=1e-12
        )
    # close between grid points
    for h in (0.3456, 0.6123, 0.8789):
        assert proxy.var_c(h, 127) == pytest.approx(
            var_c_approx(h, 127), rel=5e-3
        )
    with pytest.raises(DomainError):
        proxy.var_c(0.5, 128)
    for bad_step in (0.0, -0.01, 0.2):
        with pytest.raises(DomainError):
            VarianceProxy.build(127, grid_step=bad_step)


def test_build_proxies_one_per_length():
    spec = CampaignSpec(
        hurst_grid=(0.6,),
        lengths=(128, 64),
        replications=1,
        base_seed=1,
    )
    proxies = build_proxies(spec)
    assert sorted(proxies) == [64, 128]
    # proxies tabulate the window count, one less than the path length
    assert proxies[64].n == 63
    assert proxies[128].n == 127
    heaf_only = CampaignSpec(
        hurst_grid=(0.6,),
        lengths=(64,),
        replications=1,
        base_seed=1,
        estimators=(HEAF,),
    )
    assert build_proxies(heaf_only) == {}


def test_campaign_spec_validation():
    good = dict(hurst_grid=(0.5,), lengths=(64,), replications=2, base_seed=0)
    CampaignSpec(**good)
    for bad in (
        dict(good, hurst_grid=()),
        dict(good, lengths=()),
        dict(good, replications=0),
        dict(good, workers=0),
        dict(good, estimators=("ZC", "DFA")),
        dict(good, lengths=(2,)),
        dict(good, hurst_grid=(0.0,)),
        # cells are keyed by (H, n): a repeat would overwrite earlier cells
        dict(good, hurst_grid=(0.55, 0.7, 0.55)),
        dict(good, lengths=(64, 64)),
        dict(good, lengths=(64, 64.0)),
        # a count is refused unless it is whole; 64.0 above is a whole length
        dict(good, lengths=(64.9,)),
        dict(good, replications=2.5),
        dict(good, workers=1.5),
        dict(good, hurst_grid=(0.55, 0.7, 0.55), lengths=(64, 64), estimators=("HEAF",)),
        # the proxy grid step is checked even where no proxy is built
        *(
            dict(good, proxy_grid_step=step, estimators=("HEAF",))
            for step in (-1, 0, 0.5, math.nan)
        ),
    ):
        with pytest.raises(DomainError):
            CampaignSpec(**bad)


def test_campaign_determinism_and_worker_independence():
    # the second spec spans two lengths and a replication count that does not
    # split evenly into blocks, so blocks of several cells are placed at once
    for grid in (
        dict(hurst_grid=(0.45, 0.7), lengths=(48,), replications=30),
        dict(hurst_grid=(0.45, 0.7), lengths=(48, 33), replications=31),
    ):
        spec = CampaignSpec(base_seed=99, proxy_grid_step=0.1, **grid)
        first = run_campaign(spec)
        others = [run_campaign(spec)] + [
            run_campaign(CampaignSpec(base_seed=99, proxy_grid_step=0.1, workers=w, **grid))
            for w in (2, 3)
        ]
        for result in others:
            assert csv_text(table2_rows(result), TABLE2_COLUMNS) == csv_text(
                table2_rows(first), TABLE2_COLUMNS
            )
            assert csv_text(table3_rows(result), TABLE3_COLUMNS) == csv_text(
                table3_rows(first), TABLE3_COLUMNS
            )
            for key, cell in first.cells.items():
                assert np.array_equal(result.cells[key].samples, cell.samples)


def test_campaign_cells_and_samples():
    spec = CampaignSpec(
        hurst_grid=(0.6,),
        lengths=(32,),
        replications=25,
        base_seed=4,
        proxy_grid_step=0.1,
    )
    result = run_campaign(spec)
    zc = result.cell(0.6, 32, ZC)
    heaf = result.cell(0.6, 32, HEAF)
    assert zc.replications == 25 and zc.failures == 0
    assert zc.samples.shape == (25,)
    assert abs(zc.mean - zc.samples.mean()) <= 1e-15
    assert zc.wall_time > 0.0
    assert 0.0 <= zc.coverage <= 1.0
    assert heaf.coverage is None
    for rows, columns in (
        (table2_rows(result), TABLE2_COLUMNS),
        (table3_rows(result), TABLE3_COLUMNS),
    ):
        assert len(rows) == 1
        assert set(rows[0]) == set(columns)


def test_campaign_moments_track_reference(benchmark_campaign):
    spec, result = benchmark_campaign
    for h in spec.hurst_grid:
        for n in spec.lengths:
            ref = TABLE2[(h, n)]
            cell = result.cell(h, n, ZC)
            assert cell.failures == 0
            assert cell.replications == spec.replications
            assert abs(cell.mean - ref["mean"]) <= 0.01


def test_normality_study_summary(normality_study):
    samples_rows, summary_rows = normality_study
    by_h = {row["h"]: row for row in summary_rows}
    assert set(by_h) == {0.55, 0.95}
    row = by_h[0.55]
    assert row["n"] == 8192
    assert row["replications"] == 5000
    # the half-level cell is the textbook case: nominal coverage holds
    assert abs(row["coverage"] - 0.95) <= 0.01
    for h in (0.55, 0.95):
        z = np.array(
            [r["standardized"] for r in samples_rows if r["h"] == h]
        )
        assert z.shape == (5000,)
        assert abs(z.mean()) <= 1e-12
        assert abs(z.std(ddof=1) - 1.0) <= 1e-12


def test_figure3_rejects_thin_studies():
    with pytest.raises(DomainError):
        figure3_data(CampaignSpec(hurst_grid=(0.5,), lengths=(64,), replications=999, base_seed=1))


def test_figure3_rejects_degenerate_cell():
    # at H = 1 every path is a straight line, so every estimate is 1 and the
    # cell's sd is 0: refused before any division
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=r"H=1\.0, n=128"):
            figure3_data(
                CampaignSpec(
                    hurst_grid=(1.0,),
                    lengths=(128,),
                    replications=1000,
                    base_seed=5,
                    proxy_grid_step=0.1,
                )
            )


def test_figure1_rows():
    rows = figure1_data(n_list=(128, 1024), grid_step=0.1)
    # 9 interior grid points plus the two pinned endpoints, per length
    assert len(rows) == 2 * 11
    assert set(rows[0]) == set(FIGURE1_COLUMNS)
    for row in rows:
        assert 0.0 <= row["ci_low"] <= row["ci_high"] <= 1.0
        if row["h"] == 1.0:
            assert row["ci_low"] == row["ci_high"] == 1.0
            assert row["asymptotic_bias"] == 0.0
            assert row["asymptotic_variance"] == 0.0
        else:
            assert row["asymptotic_bias"] < 0.0
            assert row["asymptotic_variance"] > 0.0
    short = {r["h"]: r for r in rows if r["n"] == 128}
    long = {r["h"]: r for r in rows if r["n"] == 1024}
    for h in short:
        if h < 1.0:
            width_s = short[h]["ci_high"] - short[h]["ci_low"]
            width_l = long[h]["ci_high"] - long[h]["ci_low"]
            assert width_l < width_s


def test_table1_cap_annotation():
    rows = table1(eps_list=(0.01,), hurst_grid=(0.65, 0.95), k_max=100)
    by_h = {row["h"]: row for row in rows}
    assert by_h[0.65] == {"h": 0.65, "eps": 0.01, "k": 7, "capped": False}
    assert by_h[0.95]["k"] is None
    assert by_h[0.95]["capped"] is True


def test_proxy_and_table1_search_their_grid_once(monkeypatch):
    calls = []

    def counted(name, real):
        def call(h, *args):
            calls.append((name, np.size(h)))
            return real(h, *args)

        return call

    monkeypatch.setattr(harness, "var_c_approx", counted("var_c_approx", harness.var_c_approx))
    monkeypatch.setattr(harness, "k_threshold", counted("k_threshold", harness.k_threshold))
    proxy = VarianceProxy.build(63, grid_step=0.05)
    assert calls == [("var_c_approx", 21)]
    assert proxy.f_grid.tobytes() == np.array([63 * var_c_approx(h, 63) for h in proxy.h_grid]).tobytes()
    calls.clear()
    rows = table1(eps_list=(0.01, 0.001), hurst_grid=(0.65, 0.95, 0.3), k_max=100)
    assert calls == [("k_threshold", 3), ("k_threshold", 3)]
    assert [(row["h"], row["eps"], row["k"]) for row in rows] == [
        (0.65, 0.01, 7),
        (0.65, 0.001, 21),
        (0.95, 0.01, None),
        (0.95, 0.001, None),
        (0.3, 0.01, 13),
        (0.3, 0.001, 41),
    ]


def test_variance_table_rows_shape():
    rows = variance_table_rows((0.6, 0.8), (64, 256))
    assert len(rows) == 4
    for row in rows:
        assert row["f_n"] == row["n"] * row["var_c"]
        if row["h"] < 0.75:
            assert row["var_c_asymptotic"] is None
        else:
            assert row["var_c_asymptotic"] > 0.0


def test_csv_formatting():
    rows = [
        {"a": 1.0 / 3.0, "b": None, "c": True, "d": 7, "e": "x"},
        {"a": 2.0, "b": 0.1, "c": False, "d": -1, "e": "y"},
    ]
    text = csv_text(rows, ("a", "b", "c", "d", "e"))
    lines = text.split("\n")
    assert lines[0] == "a,b,c,d,e"
    assert lines[-1] == ""
    first = lines[1].split(",")
    # 17 significant digits round-trip exactly
    assert float(first[0]) == 1.0 / 3.0
    assert first[1] == ""
    assert first[2] == "true"
    assert lines[2].split(",")[2] == "false"
    assert first[3] == "7"
    assert math.isclose(float(lines[2].split(",")[1]), 0.1, rel_tol=0.0, abs_tol=0.0)


def test_replication_throughput_smoke():
    # one synthesized path (one real inverse FFT of a half spectrum) plus
    # both estimators; the generous bound only catches order-of-magnitude
    # regressions
    import time

    from zchurst import heaf_estimate, synthesize, zc_estimate

    times = []
    for i in range(20):
        t0 = time.perf_counter()
        path = synthesize(0.7, 8192, seed=i)
        zc_estimate(path.levels, var_c=lambda h, n: 0.001 / n)
        heaf_estimate(path.levels)
        times.append(time.perf_counter() - t0)
    assert sorted(times)[len(times) // 2] < 0.05


def test_proxy_builds_keep_their_memory():
    # The orthant passes write into buffers kept across calls, so their
    # temporaries are not handed back to the OS and faulted in again on
    # every pass. In a fresh interpreter the two builds take about 170
    # minor page faults; with a fresh allocation per pass, about 13 000.
    pytest.importorskip("resource")
    script = (
        "import resource\n"
        "from zchurst.harness import VarianceProxy\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "VarianceProxy.build(127, 0.01)\n"
        "VarianceProxy.build(1023, 0.01)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = os.path.dirname(os.path.dirname(harness.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert int(proc.stdout) < 2_000
