"""Batch command line interface.

Subcommands write CSV (header row, floats at 17 significant digits) so the
artifacts diff cleanly across runs.  Settings resolve in three layers:
built-in defaults, then an optional key=value config file, then explicit
command line flags.

Exit codes: 0 success, 2 bad input (unparseable data, unknown config key,
domain violations), 3 numerical failure (non-PSD embedding, quadrature not
converged, search cap hit).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import typing

import numpy as np

from .errors import InputError, NumericalError
from .estimators import heaf_estimate, zc_estimate
from .harness import (
    DEFAULT_REPLICATIONS,
    FIGURE1_COLUMNS,
    FIGURE3_SAMPLE_COLUMNS,
    FIGURE3_SUMMARY_COLUMNS,
    HEAF,
    TABLE1_COLUMNS,
    TABLE23_GRID,
    TABLE23_LENGTHS,
    TABLE2_COLUMNS,
    TABLE3_COLUMNS,
    VARIANCE_TABLE_COLUMNS,
    ZC,
    CampaignSpec,
    figure1_data,
    figure3_data,
    run_campaign,
    table1,
    table2_rows,
    table3_rows,
    variance_table_rows,
    write_csv,
)

DEFAULT_SEED = 20240801


@dataclasses.dataclass
class Settings:
    """The H-grid steps shared across subcommands."""

    proxy_grid_step: float = 0.001
    figure1_grid_step: float = 0.001


# Each setting's value type, for the config file and its --flag.
_SETTING_TYPES = typing.get_type_hints(Settings)


def parse_config(path: str) -> dict:
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _SETTING_TYPES:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _SETTING_TYPES[key](text)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: bad value {text!r} for {key}"
                ) from None
    return values


def resolve_settings(args) -> Settings:
    """Defaults, then the config file, then flags.  Every command calls this,
    also one that reads no setting, so a bad config file always exits 2."""
    settings = Settings()
    if getattr(args, "config", None):
        for key, value in parse_config(args.config).items():
            setattr(settings, key, value)
    for key in _SETTING_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(settings, key, flag)
    return settings


def _read_series(path: str) -> np.ndarray:
    r"""One float per line, blank lines skipped, as a float64 array.

    Lines end at "\n" only (text mode folds "\r\n" and "\r" into it), so a
    form feed or other Unicode line break inside a line is not a separator.
    A line that does not parse, or parses to NaN or +-inf, is refused by its
    1-based line number, blank lines counted.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        values = np.array([float(line) for line in map(str.strip, lines) if line])
    except ValueError:
        for lineno, line in _numbered(lines):
            try:
                float(line)
            except ValueError:
                raise InputError(f"{path}:{lineno}: not a number: {line!r}") from None
        raise
    if not values.size:
        raise InputError(f"{path}: no data")
    if not np.isfinite(values).all():
        lineno, line = next((i, v) for i, v in _numbered(lines) if not math.isfinite(float(v)))
        raise InputError(f"{path}:{lineno}: not finite: {line!r}")
    return values


def _numbered(lines):
    """(1-based line number, stripped line) of each non-blank line."""
    return ((i, line) for i, line in enumerate(map(str.strip, lines), start=1) if line)


def _report_lines(report):
    for key, value in dataclasses.asdict(report).items():
        yield f"{key}: {value}"


def cmd_estimate(args, out) -> int:
    values = _read_series(args.file)
    resolve_settings(args)
    if args.method == "zc":
        report = zc_estimate(values)
    else:
        report = heaf_estimate(values)
    if args.json:
        out.write(json.dumps(dataclasses.asdict(report), indent=2))
        out.write("\n")
    else:
        for line in _report_lines(report):
            out.write(line + "\n")
    return 0


def _parse_list(text: str, kind, what: str):
    try:
        values = tuple(kind(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"bad {what} list: {text!r}") from None
    if not values:
        raise InputError(f"empty {what} list: {text!r}")
    return values


def _emit(rows, columns, args, out, filename):
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, columns, fh)
    else:
        write_csv(rows, columns, out)


def cmd_variance_table(args, out) -> int:
    resolve_settings(args)
    rows = variance_table_rows(_parse_list(args.h, float, "H"), _parse_list(args.n, int, "n"))
    _emit(rows, VARIANCE_TABLE_COLUMNS, args, out, "variance_table.csv")
    return 0


def cmd_table1(args, out) -> int:
    resolve_settings(args)
    rows = table1()
    _emit(rows, TABLE1_COLUMNS, args, out, "table1.csv")
    return 0


def cmd_figure1(args, out) -> int:
    settings = resolve_settings(args)
    rows = figure1_data(grid_step=settings.figure1_grid_step)
    _emit(rows, FIGURE1_COLUMNS, args, out, "figure1.csv")
    return 0


def _campaign_spec(args, hurst_grid, lengths, estimator) -> CampaignSpec:
    return CampaignSpec(
        hurst_grid=hurst_grid,
        lengths=lengths,
        replications=args.replications,
        base_seed=args.seed,
        estimators=(estimator,),
        workers=args.workers,
        proxy_grid_step=resolve_settings(args).proxy_grid_step,
    )


def cmd_figure3(args, out) -> int:
    spec = _campaign_spec(args, _parse_list(args.h, float, "H"), (args.n,), ZC)
    samples, summary = figure3_data(spec)
    _emit(summary, FIGURE3_SUMMARY_COLUMNS, args, out, "figure3_summary.csv")
    if args.out:
        _emit(samples, FIGURE3_SAMPLE_COLUMNS, args, out, "figure3_samples.csv")
    return 0


def cmd_reproduce(args, out) -> int:
    if args.table == 1:
        return cmd_table1(args, out)
    estimator = ZC if args.table == 2 else HEAF
    result = run_campaign(_campaign_spec(args, TABLE23_GRID, TABLE23_LENGTHS, estimator))
    if args.table == 2:
        _emit(table2_rows(result), TABLE2_COLUMNS, args, out, "table2.csv")
    else:
        _emit(table3_rows(result), TABLE3_COLUMNS, args, out, "table3.csv")
    return 0


def _add_settings_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    for key, kind in _SETTING_TYPES.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The zchurst parser, built once per process.

    parse_args leaves the parser as it was and returns a fresh Namespace,
    so every call of main shares this one.
    """
    parser = argparse.ArgumentParser(
        prog="zchurst",
        description="Hurst estimation from ordinal change frequencies, plus batch table generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate H from a series (one value per line)")
    p.add_argument("file")
    p.add_argument("--method", choices=("zc", "heaf"), default="zc")
    p.add_argument("--json", action="store_true")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("variance-table", help="Var_H(c_n) on an (H, n) grid")
    p.add_argument("--h", required=True, help="H values, comma or space separated")
    p.add_argument("--n", required=True, help="window counts, comma or space separated")
    p.add_argument("--out", help="directory for variance_table.csv (default stdout)")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_variance_table)

    p = sub.add_parser("table1", help="Taylor accuracy threshold lags")
    p.add_argument("--out", help="directory for table1.csv (default stdout)")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure1", help="interval bounds and asymptotic moments on an H grid")
    p.add_argument("--out", help="directory for figure1.csv (default stdout)")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("figure3", help="standardized estimate samples and KS diagnostics")
    p.add_argument("--h", default="0.55 0.75 0.95", help="H values")
    p.add_argument("--n", type=int, default=8192)
    p.add_argument("--replications", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--out",
        help="directory for figure3_summary.csv and figure3_samples.csv (default: summary to stdout)",
    )
    _add_settings_flags(p)
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("reproduce", help="rerun a numbered table end to end")
    p.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--replications", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output directory (default stdout)")
    p.add_argument("--workers", type=int, default=1)
    _add_settings_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
