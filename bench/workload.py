"""One round of one workload, in a fresh interpreter.

    python3 bench/workload.py --workload campaign --seed 1 --round 0 --mode plain

A fresh interpreter per round means the package's module caches
(`_GAMMA_CACHE`, `_THRESHOLD_CACHE`, `_embedding_scales`) start empty, as
they do for every CLI call.  The round imports the package, records when it
was ready (set-up ends there), runs the timed phase, then checks every
output.  The estimate round reads series that bench/run.py wrote before
starting it (--inputs).  It prints one JSON object as its last line.

Modes: `setup` imports and exits, `plain` runs the round untraced, `traced`
runs it with spans around the package's public functions.
"""

import time

from zchurst import cli, harness

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

# campaign: the Table 2/3 grid, both estimators.
CAMPAIGN_REPLICATIONS = 2000
CAMPAIGN_PROXY_STEP = 0.02

# tables: the two commands and the rows each must write.
TABLE_COMMANDS = (["table1"], ["figure1"])
TABLE1_ROWS = len(harness.DEFAULT_TABLE1_GRID) * len(harness.DEFAULT_TABLE1_EPS)
FIGURE1_ROWS_PER_N = round(1 / cli.Settings().figure1_grid_step) + 1
TABLE_ROWS = TABLE1_ROWS + len(harness.TABLE23_LENGTHS) * FIGURE1_ROWS_PER_N
MC_LENGTH = 128
MC_HURST = (0.25, 0.55, 0.75, 0.95)
MC_PATHS = 40_000

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def published():
    """The published figures in tests/benchmarks.py, loaded by path."""
    import importlib.util

    path = os.path.join(REPO_ROOT, "tests", "benchmarks.py")
    spec = importlib.util.spec_from_file_location("published_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Meter:
    """Wall and CPU time of the timed phase, the process and its reaped workers."""

    def __enter__(self):
        self._cpu0 = self._cpu()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = self._cpu() - self._cpu0
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.peak_rss_mb = peak_kb / 1024.0
        return False

    @staticmethod
    def _cpu():
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            total += usage.ru_utime + usage.ru_stime
        return total


def estimate_round(args, timed):
    cases = inputs.read_estimate_inputs(args.inputs)
    ops = [(path, method, h) for path, h in cases for method in ("zc", "heaf")]
    with timed() as meter:
        results = [
            run_cli(["estimate", path, "--json", "--method", method])
            for path, method, _ in ops
        ]
    failed = 0
    fails = []
    covered = {}
    zc_h = []
    for (path, method, h), (code, out, err) in zip(ops, results):
        if h is None:
            # A series with a NaN must be refused as bad input.
            if not (code == 2 and err.startswith("error:")):
                failed += 1
            continue
        if code != 0:
            failed += 1
            print(f"{path} --method {method}: exit {code}: {err.strip()}", file=sys.stderr)
            continue
        report = json.loads(out)
        x = inputs.read_series(path)
        if method == "zc":
            fails += checks.check_zc(report, x)
            hits, trials = covered.get(h, (0, 0))
            inside = report["ci_low"] <= h <= report["ci_high"]
            covered[h] = (hits + inside, trials + 1)
            zc_h.append(report["h_hat"])
        else:
            fails += checks.check_heaf(report, x)
    fails += checks.check_coverage(covered)
    info = {"zc_estimates": len(zc_h), "zc_distinct_h_hat": len(set(zc_h))}
    return meter, len(ops), failed, fails, info


def campaign_spec(args):
    base_seed = int(np.random.SeedSequence([args.seed, args.round]).generate_state(1)[0])
    return harness.CampaignSpec(
        hurst_grid=harness.TABLE23_GRID,
        lengths=harness.TABLE23_LENGTHS,
        replications=CAMPAIGN_REPLICATIONS,
        base_seed=base_seed,
        estimators=(harness.ZC, harness.HEAF),
        workers=args.workers,
        proxy_grid_step=CAMPAIGN_PROXY_STEP,
    )


def campaign_round(args, timed):
    spec = campaign_spec(args)
    with timed() as meter:
        result = harness.run_campaign(spec)
    attempted = len(spec.hurst_grid) * len(spec.lengths) * spec.replications
    failed = sum(c.failures for (_, _, est), c in result.cells.items() if est == harness.ZC)
    cells = {
        key: {
            "mean": c.mean,
            "variance": c.variance,
            "coverage": c.coverage,
            "replications": c.replications,
            "failures": c.failures,
        }
        for key, c in result.cells.items()
    }
    ref = published()
    fails = checks.check_campaign(cells, spec.replications, ref.TABLE2, ref.TABLE3)
    return meter, attempted, failed, fails, {"replications": attempted}


def tables_round(args, timed):
    with timed() as meter:
        results = [run_cli(argv) for argv in TABLE_COMMANDS]
    tables = {}
    fails = []
    for argv, (code, out, err) in zip(TABLE_COMMANDS, results):
        if code != 0:
            print(f"zchurst {' '.join(argv)}: exit {code}: {err.strip()}", file=sys.stderr)
            continue
        tables[argv[0]] = list(csv.DictReader(io.StringIO(out)))
    written = sum(len(rows) for rows in tables.values())
    ref = published()
    if "table1" in tables:
        fails += checks.check_table1(
            tables["table1"], ref.TABLE1_H_GRID, ref.TABLE1_K_EPS_01, ref.TABLE1_K_EPS_001
        )
    if "figure1" in tables:
        rows = tables["figure1"]
        fails += checks.check_figure1(rows, harness.TABLE23_LENGTHS, FIGURE1_ROWS_PER_N)
        rng = np.random.default_rng([args.seed, args.round, MC_LENGTH])
        fails += checks.check_figure1_mc(rows, MC_LENGTH, MC_HURST, MC_PATHS, rng)
    return meter, TABLE_ROWS, max(TABLE_ROWS - written, 0), fails, {"rows": written}


ROUNDS = {"estimate": estimate_round, "campaign": campaign_round, "tables": tables_round}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), default="plain")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--inputs", help="directory of the round's series (estimate)")
    args = parser.parse_args(argv)
    result = {"ready": READY}
    if args.mode != "setup":
        spans = tracer.Tracer() if args.mode == "traced" else None

        @contextlib.contextmanager
        def timed():
            """The timed phase: metered, and traced in traced mode."""
            with spans.installed() if spans else contextlib.nullcontext(), Meter() as meter:
                yield meter

        meter, attempted, failed, fails, info = ROUNDS[args.workload](args, timed)
        for message in fails:
            print(f"check failed: {message}", file=sys.stderr)
        result.update(
            attempted=attempted,
            failed=failed,
            correct=not fails,
            timed_s=meter.wall_s,
            cpu_s=meter.cpu_s,
            peak_rss_mb=meter.peak_rss_mb,
            info=info,
        )
        if spans:
            summary = spans.summary()
            result["layers"] = tracer.layer_metrics(summary, info.get("replications", 0))
            result["trace"] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
