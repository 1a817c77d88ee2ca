"""End-to-end CLI tests: subcommand output, exit codes, config layering,
and determinism of the file artifacts."""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

import zchurst
from zchurst import cli, harness, orthant, synthesize, variance, zc_estimate
from zchurst.cli import Settings, build_parser, main, parse_config, resolve_settings
from zchurst.errors import InputError
from zchurst.harness import FIGURE3_SUMMARY_COLUMNS, VARIANCE_TABLE_COLUMNS

from benchmarks import TABLE1_H_GRID, TABLE1_K_EPS_01, TABLE1_K_EPS_001


def _write_series(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


@pytest.fixture
def series_file(tmp_path):
    path = synthesize(0.6, 300, seed=11)
    f = tmp_path / "series.txt"
    _write_series(f, path.levels)
    return f, path.levels


def test_estimate_text_output(series_file, capsys):
    f, values = series_file
    assert main(["estimate", str(f)]) == 0
    out = capsys.readouterr().out
    got = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    expected = zc_estimate(values)
    assert got["method"] == "ZC"
    assert float(got["h_hat"]) == expected.h_hat
    assert float(got["ci_low"]) == expected.ci_low
    assert int(got["n"]) == expected.n


def test_estimate_json_matches_library(series_file, capsys):
    f, values = series_file
    assert main(["estimate", str(f), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == dataclasses.asdict(zc_estimate(values))


def test_estimate_heaf_degenerate_json(tmp_path, capsys):
    f = tmp_path / "flat.txt"
    _write_series(f, [3.0] * 40)
    assert main(["estimate", str(f), "--method", "heaf", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["method"] == "HEAF"
    assert parsed["degenerate"] is True
    assert parsed["h_hat"] == 1.0
    assert parsed["ci_low"] is None


def test_series_reader_skips_blank_lines_and_reads_crlf(tmp_path, capsys):
    values = synthesize(0.6, 40, seed=5).levels
    expected = dataclasses.asdict(zc_estimate(values))
    text = "\n".join(repr(float(v)) for v in values) + "\n"
    padded = tmp_path / "padded.txt"
    padded.write_text("\n \t\n" + text.replace("\n", "\n\n  ", 5) + "\n\n")
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    for f in (padded, crlf):
        assert main(["estimate", str(f), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("method", ["zc", "heaf"])
@pytest.mark.parametrize(
    "text, err",
    [
        # only "\n" ends a line: a form feed inside one is not a separator
        ("1.0\x0c2.0\n3.0\n0.5\n", "{f}:1: not a number: '1.0\\x0c2.0'"),
        # line numbers count the blank lines
        ("\n\nabc\n1.0\n2.0\n", "{f}:3: not a number: 'abc'"),
        ("1.0\r\n\r\n 2.0 x \r\n", "{f}:3: not a number: '2.0 x'"),
        (" \n\t\n  \n", "{f}: no data"),
        # non-finite values too, by line; "1e999" parses to inf
        ("1.0\n2.0\nnan\n0.5\n1.5\n", "{f}:3: not finite: 'nan'"),
        ("\n\n1.0\n2.0\nnan\n", "{f}:5: not finite: 'nan'"),
        ("1.0\n\n inf\n-inf\n", "{f}:3: not finite: 'inf'"),
        ("1.0\n2.0\n\n-inf\n", "{f}:4: not finite: '-inf'"),
        ("1.0\n1e999\n", "{f}:2: not finite: '1e999'"),
    ],
)
def test_series_reader_refusals(tmp_path, capsys, method, text, err):
    f = tmp_path / "series.txt"
    f.write_bytes(text.encode())
    assert main(["estimate", str(f), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + err.format(f=f) + "\n"


def test_parser_is_built_once_and_keeps_no_settings(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("figure1_grid_step=0.05\n")
    # the flag's step, then the config file's alone, then the default:
    # 11, 21 and 1001 rows per length, so a leaked flag or key would show
    assert main(["figure1", "--config", str(cfg), "--figure1-grid-step", "0.1"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3 * 11
    assert main(["figure1", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3 * 21
    assert resolve_settings(build_parser().parse_args(["figure1"])) == Settings()


def test_cold_process_matches_in_process(series_file, capsys):
    f, _ = series_file
    argv = ["estimate", str(f), "--json"]
    assert main(argv) == 0
    warm = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(zchurst.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "zchurst.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == warm


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nabc\n")
    assert main(["estimate", str(bad)]) == 2

    # a non-finite sample is refused by both estimators, not estimated
    gap = tmp_path / "gap.txt"
    gap.write_text("1.0\n2.0\nnan\n0.5\n1.5\n")
    for method in ("zc", "heaf"):
        assert main(["estimate", str(gap), "--method", method]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # a misspelt key, and the quadrature and Taylor settings, which are fixed
    cfg = tmp_path / "bad.cfg"
    capsys.readouterr()
    removed = ("quad_nodes", "quad_abs_tol", "taylor_order", "taylor_eps", "n_tilde_cap")
    for key in ("proxy_grid_stap",) + removed:
        cfg.write_text(f"{key}=1\n")
        assert main(["variance-table", "--h", "0.6", "--n", "4", "--config", str(cfg)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    assert main(["variance-table", "--h", "0.5,x", "--n", "16"]) == 2
    capsys.readouterr()
    # an empty grid is refused, not printed as a header with no rows
    for h, n in (("", "128"), ("0.7", ","), (" , ", "16"), ("0.7", "")):
        assert main(["variance-table", "--h", h, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: empty")
    # out-of-domain H is an input problem, not a crash
    assert main(["variance-table", "--h", "1.2", "--n", "16"]) == 2
    # a repeated grid value would overwrite a campaign cell
    assert main(["figure3", "--h", "0.55 0.55", "--replications", "5"]) == 2
    assert "repeats" in capsys.readouterr().err


def test_exit_code_3_on_numerical_failure(monkeypatch, capsys):
    # at H=0.999 the lag-2 Sigma is nearly singular (smallest eigenvalue about
    # 2e-3), so the path integrand is sharply peaked: starting from 4 nodes,
    # the last doubling allowed (64 -> 128) still moves the excess by about
    # 7e-9, orders of magnitude above the tolerance and above rounding
    tight = orthant.QuadratureConfig(nodes=4, abs_tol=1e-12)
    real = variance.orthant4_excess
    monkeypatch.setattr(variance, "orthant4_excess", lambda rows: real(rows, tight))
    variance._gamma_memo.cache_clear()
    code = main(["variance-table", "--h", "0.999", "--n", "64"])
    variance._gamma_memo.cache_clear()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    # the message reports the disagreement that was actually seen
    moved = float(re.search(r"moved orthant4 by (\S+) >", err).group(1))
    assert moved > tight.abs_tol


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# steps\n"
        "figure1_grid_step = 0.02  # inline comment\n"
        "\n"
        "proxy_grid_step=0.05\n"
    )
    assert parse_config(str(cfg)) == {
        "figure1_grid_step": 0.02,
        "proxy_grid_step": 0.05,
    }
    cfg.write_text("just a line\n")
    with pytest.raises(InputError):
        parse_config(str(cfg))
    cfg.write_text("proxy_grid_step=abc\n")
    with pytest.raises(InputError):
        parse_config(str(cfg))


def test_settings_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("proxy_grid_step=0.05\nfigure1_grid_step=0.02\n")
    args = build_parser().parse_args(
        ["figure1", "--config", str(cfg), "--proxy-grid-step", "0.1"]
    )
    # flag beats config beats default; 0.1 is neither the config's value nor
    # the default, so the assertion fails if either layer wins
    assert resolve_settings(args) == Settings(proxy_grid_step=0.1, figure1_grid_step=0.02)
    args = build_parser().parse_args(["figure1", "--proxy-grid-step", "0.1"])
    assert resolve_settings(args) == Settings(proxy_grid_step=0.1)


DOCS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs")


def test_configuration_doc_lists_the_settings(tmp_path):
    with open(os.path.join(DOCS, "configuration.md"), encoding="utf-8") as fh:
        text = fh.read()
    keys = text.split("\n## Keys\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", keys, flags=re.M) == list(cli._SETTING_TYPES)
    example = tmp_path / "example.cfg"
    example.write_text(re.search(r"^```\n(.*?)^```$", text, flags=re.M | re.S).group(1))
    assert parse_config(str(example))


def test_variance_table_stdout(capsys):
    assert main(["variance-table", "--h", "0.6 0.8", "--n", "32,64"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == ",".join(VARIANCE_TABLE_COLUMNS)
    assert lines[-1] == ""
    rows = list(csv.DictReader(lines[:-1]))
    assert len(rows) == 4
    by_key = {(float(row["h"]), int(row["n"])): row for row in rows}
    # the asymptotic law only exists from three quarters up
    assert by_key[(0.6, 32)]["var_c_asymptotic"] == ""
    assert float(by_key[(0.8, 64)]["var_c_asymptotic"]) > 0.0


def test_variance_table_n_1_under_the_asymptotic_law(capsys):
    # var_c is defined at n = 1, the large-n law is not: its cell stays
    # empty and the rest of the table is still printed
    assert main(["variance-table", "--h", "0.7,0.8", "--n", "1,128"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.split("\n")[:-1]))
    by_key = {(float(row["h"]), int(row["n"])): row for row in rows}
    assert len(by_key) == 4
    assert by_key[(0.8, 1)]["var_c_asymptotic"] == ""
    assert float(by_key[(0.8, 1)]["var_c"]) > 0.0
    assert float(by_key[(0.8, 128)]["var_c_asymptotic"]) > 0.0


def test_figure1_stdout(capsys):
    assert main(["figure1", "--figure1-grid-step", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # header plus 11 grid points for each of the three default lengths
    assert len(lines) == 1 + 3 * 11


def test_figure3_stdout_and_files(tmp_path, capsys):
    argv = [
        "figure3",
        "--h",
        "0.5",
        "--n",
        "128",
        "--replications",
        "1000",
        "--seed",
        "3",
        "--proxy-grid-step",
        "0.1",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(FIGURE3_SUMMARY_COLUMNS)
    assert len(lines) == 2
    out_dir = tmp_path / "fig3"
    assert main(argv + ["--out", str(out_dir)]) == 0
    summary = (out_dir / "figure3_summary.csv").read_text()
    samples = (out_dir / "figure3_samples.csv").read_text()
    assert summary.split("\n")[1] == lines[1]
    assert len(samples.strip().split("\n")) == 1 + 1000


class _SpecSeen(Exception):
    pass


def test_campaign_commands_pass_settings_to_the_spec(monkeypatch):
    seen = []

    def capture(spec):
        seen.append(spec)
        raise _SpecSeen

    # figure3 reaches the campaign through the harness, reproduce directly
    monkeypatch.setattr(harness, "run_campaign", capture)
    monkeypatch.setattr(cli, "run_campaign", capture)
    flags = ["--proxy-grid-step", "0.05"]
    for argv in (
        ["figure3", "--n", "128", "--replications", "1000"],
        ["reproduce", "--table", "2", "--replications", "10"],
    ):
        with pytest.raises(_SpecSeen):
            main(argv + flags)
    assert len(seen) == 2
    for spec in seen:
        assert spec.proxy_grid_step == 0.05


def test_reproduce_table1_file(tmp_path, capsys):
    out_dir = tmp_path / "t1"
    assert main(["reproduce", "--table", "1", "--out", str(out_dir)]) == 0
    with open(out_dir / "table1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    got = {(float(r["h"]), float(r["eps"])): int(r["k"]) for r in rows}
    for h, k01, k001 in zip(TABLE1_H_GRID, TABLE1_K_EPS_01, TABLE1_K_EPS_001):
        assert got[(h, 0.01)] == k01
        assert got[(h, 0.001)] == k001
    assert all(r["capped"] == "false" for r in rows)
    assert main(["table1"]) == 0
    assert (out_dir / "table1.csv").read_bytes() == capsys.readouterr().out.encode()


def test_reproduce_table3_deterministic_across_workers(tmp_path):
    base = [
        "reproduce",
        "--table",
        "3",
        "--replications",
        "2",
        "--seed",
        "5",
    ]
    d1 = tmp_path / "w1"
    d2 = tmp_path / "w2"
    assert main(base + ["--out", str(d1)]) == 0
    assert main(base + ["--workers", "2", "--out", str(d2)]) == 0
    assert (d1 / "table3.csv").read_bytes() == (d2 / "table3.csv").read_bytes()


# Every public name is reached by a command, a CSV column, the acceptance
# gate or another name here (grouped by module, errors to harness).  A new
# export fails test_public_surface_is_the_kept_set until it is added here.
PUBLIC_SURFACE = set(
    """
    ZchurstError InputError NumericalError BadLength CapReached DegenerateCorrelation
    DomainError EmbeddingNotPSD NotPositiveDefinite QuadratureNotConverged UnsupportedOrder
    SamplePath as_hurst rho synthesize
    Pattern PatternClass PatternCounts alpha beta change_indicator_count count_patterns
    p_bar p_hat pattern_class pattern_of_values
    DEFAULT_QUADRATURE OrthantSpec4 QuadratureConfig orthant2 orthant4 orthant4_excess
    orthant4_mc
    change_prob gamma0 gamma1 gamma_exact gamma_taylor
    k_threshold var_c_approx var_c_asymptotic var_c_exact
    EstimateReport asymptotic_expectation asymptotic_variance g g_prime g_second
    heaf_estimate heaf_transform zc_estimate
    CampaignResult CampaignSpec CellStats VarianceProxy csv_text derive_seed figure1_data
    figure3_data run_campaign table1 table2_rows table3_rows variance_table_rows write_csv
    """.split()
)


def test_public_surface_is_the_kept_set():
    exported = {
        name
        for name, value in vars(zchurst).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_SURFACE


def test_console_script_installed(series_file):
    f, _ = series_file
    exe = shutil.which("zchurst")
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "estimate", str(f), "--json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "ZC"
