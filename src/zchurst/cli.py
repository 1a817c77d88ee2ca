"""Batch command line interface.

Subcommands write CSV (header row, floats at 17 significant digits) so the
artifacts diff cleanly across runs.  Each subcommand takes only the flags it
reads: `figure1` its grid step, `figure3` and `reproduce` the proxy's step,
each defaulting to `Settings`.

Exit codes: 0 success, 2 bad input (unparseable data, a flag the subcommand
does not take, domain violations), 3 numerical failure (non-PSD embedding,
quadrature not converged, search cap hit).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

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
    """The default H-grid steps of the flags that take them."""

    proxy_grid_step: float = 0.001
    figure1_grid_step: float = 0.001


def _read_series(path: str) -> np.ndarray:
    r"""One float per line, blank lines skipped, as a float64 array.

    The file is UTF-8; a leading byte-order mark is skipped.  Lines end at
    "\n" only (text mode folds "\r\n" and "\r" into it), so a form feed or
    other Unicode line break inside a line is not a separator.  Each line is
    read by Python's float().  A line that does not parse, or parses to NaN
    or +-inf, is refused by its 1-based line number, blank lines counted.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().removesuffix("\n").split("\n")
    try:
        # numpy reads each string with float(), so a blank line raises too
        values = np.array(lines, dtype=float)
    except ValueError:
        values = _read_lines(path, lines)
    if not values.size:
        raise InputError(f"{path}: no data")
    if not np.isfinite(values).all():
        lineno, line = next((i, v) for i, v in _numbered(lines) if not math.isfinite(float(v)))
        raise InputError(f"{path}:{lineno}: not finite: {line!r}")
    return values


def _read_lines(path: str, lines) -> np.ndarray:
    """The non-blank lines as floats; the first that does not parse is refused."""
    values = []
    for lineno, line in _numbered(lines):
        try:
            values.append(float(line))
        except ValueError:
            raise InputError(f"{path}:{lineno}: not a number: {line!r}") from None
    return np.array(values)


def _numbered(lines):
    """(1-based line number, stripped line) of each non-blank line."""
    return ((i, line) for i, line in enumerate(map(str.strip, lines), start=1) if line)


def cmd_estimate(args, out) -> int:
    values = _read_series(args.file)
    if args.method == "zc":
        report = zc_estimate(values)
    else:
        report = heaf_estimate(values)
    # the fields are scalars, so asdict's deep copy would buy nothing
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    if args.json:
        out.write(json.dumps(fields, indent=2))
        out.write("\n")
    else:
        for key, value in fields.items():
            out.write(f"{key}: {value}\n")
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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, columns, fh)
    else:
        write_csv(rows, columns, out)


def cmd_variance_table(args, out) -> int:
    rows = variance_table_rows(_parse_list(args.h, float, "H"), _parse_list(args.n, int, "n"))
    _emit(rows, VARIANCE_TABLE_COLUMNS, args, out, "variance_table.csv")
    return 0


def cmd_table1(args, out) -> int:
    rows = table1()
    _emit(rows, TABLE1_COLUMNS, args, out, "table1.csv")
    return 0


def cmd_figure1(args, out) -> int:
    rows = figure1_data(grid_step=args.figure1_grid_step)
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
        proxy_grid_step=args.proxy_grid_step,
    )


def cmd_figure3(args, out) -> int:
    spec = _campaign_spec(args, _parse_list(args.h, float, "H"), (args.n,), ZC)
    samples, summary = figure3_data(spec)
    _emit(summary, FIGURE3_SUMMARY_COLUMNS, args, out, "figure3_summary.csv")
    if args.out:
        _emit(samples, FIGURE3_SAMPLE_COLUMNS, args, out, "figure3_samples.csv")
    return 0


def cmd_reproduce(args, out) -> int:
    estimator = ZC if args.table == 2 else HEAF
    result = run_campaign(_campaign_spec(args, TABLE23_GRID, TABLE23_LENGTHS, estimator))
    if args.table == 2:
        _emit(table2_rows(result), TABLE2_COLUMNS, args, out, "table2.csv")
    else:
        _emit(table3_rows(result), TABLE3_COLUMNS, args, out, "table3.csv")
    return 0


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
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("variance-table", help="Var_H(c_n) on an (H, n) grid")
    p.add_argument("--h", required=True, help="H values, comma or space separated")
    p.add_argument("--n", required=True, help="window counts, comma or space separated")
    p.add_argument("--out", help="directory for variance_table.csv (default stdout)")
    p.set_defaults(func=cmd_variance_table)

    p = sub.add_parser("table1", help="Taylor accuracy threshold lags")
    p.add_argument("--out", help="directory for table1.csv (default stdout)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure1", help="interval bounds and asymptotic moments on an H grid")
    p.add_argument("--out", help="directory for figure1.csv (default stdout)")
    p.add_argument("--figure1-grid-step", type=float, default=Settings.figure1_grid_step)
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
    p.add_argument("--proxy-grid-step", type=float, default=Settings.proxy_grid_step)
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("reproduce", help="rerun Table 2 or 3 end to end")
    p.add_argument("--table", type=int, choices=(2, 3), required=True)
    p.add_argument("--replications", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output directory (default stdout)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--proxy-grid-step", type=float, default=Settings.proxy_grid_step)
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
