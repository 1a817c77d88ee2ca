"""Spans around calls into the package's public functions.

Each function is wrapped where the calling module looks it up (for example
`variance.gamma_exact`, which `k_threshold` reads from its own module, and
`cli.zc_estimate`, which `cmd_estimate` reads from `cli`), so the package
itself is not edited.  Spans are aggregated as they close: per name the call
count, the busy time (inclusive) and the self time (inclusive minus the time
covered by child spans), and per (parent, child) pair the call count.
"""

from __future__ import annotations

import collections
import contextlib
import time

from zchurst import cli, estimators, harness, variance

# (span name, [(module that looks the name up, attribute)]).
# orthant, patterns and fbm functions are wrapped in the modules that call them.
TARGETS = (
    ("cli.main", [(cli, "main")]),
    ("estimators.zc_estimate", [(cli, "zc_estimate"), (harness, "zc_estimate")]),
    ("estimators.heaf_estimate", [(cli, "heaf_estimate"), (harness, "heaf_estimate")]),
    ("patterns.change_indicator_count", [(estimators, "change_indicator_count")]),
    ("variance.var_c_approx", [(estimators, "var_c_approx"), (harness, "var_c_approx")]),
    ("variance.k_threshold", [(variance, "k_threshold"), (harness, "k_threshold")]),
    ("variance.gamma_exact", [(variance, "gamma_exact")]),
    ("orthant.orthant4_excess", [(variance, "orthant4_excess")]),
    ("fbm.synthesize", [(harness, "synthesize")]),
    ("harness.run_campaign", [(harness, "run_campaign")]),
    ("harness.table1", [(cli, "table1")]),
    ("harness.figure1_data", [(cli, "figure1_data")]),
    ("harness.write_csv", [(cli, "write_csv")]),
)

# The classmethod is replaced on the class, which is where figure1_data and
# build_proxies look it up.
PROXY_BUILD = "harness.VarianceProxy.build"

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.busy = collections.Counter()
        self.self_time = collections.Counter()
        self.edges = collections.Counter()
        # Calls of a parent name that opened at least one child of a name.
        self.parents_with_child = collections.Counter()
        self._stack = []

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, set()]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                for child in frame[2]:
                    self.parents_with_child[(name, child)] += 1
                if parent is not None:
                    parent[1] += elapsed
                    parent[2].add(name)
                    self.edges[(parent[0], name)] += 1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, sites in TARGETS:
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            proxy_cls = harness.VarianceProxy
            original_build = proxy_cls.__dict__["build"]
            build = self.wrap(PROXY_BUILD, original_build.__func__)
            proxy_cls.build = classmethod(build)
            saved.append((proxy_cls, "build", original_build))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Plain-data view for the trace file."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "busy_s": self.busy[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [
                {
                    "parent": p,
                    "child": c,
                    "calls": n,
                    "parents_with_child": self.parents_with_child[(p, c)],
                }
                for (p, c), n in sorted(self.edges.items())
            ],
        }


def layer_metrics(summary: dict, replications: int) -> dict:
    """The per-layer metrics of one traced round, from its summary."""
    spans = summary["spans"]
    edges = {(e["parent"], e["child"]): e for e in summary["edges"]}

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    gamma_calls = get("variance.gamma_exact", "calls")
    gamma_misses = edges.get(("variance.gamma_exact", "orthant.orthant4_excess"), {})
    scanned = edges.get(("variance.k_threshold", "variance.gamma_exact"), {})
    # Every proxy build of a campaign runs inside run_campaign.
    campaign_s = get("harness.run_campaign", "busy_s")
    proxy_s = get(PROXY_BUILD, "busy_s") if campaign_s else 0.0
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "fbm.synthesize.calls": get("fbm.synthesize", "calls"),
        "fbm.synthesize.busy_s": get("fbm.synthesize", "busy_s"),
        "fbm.synthesize.us_per_call": 1e6
        * ratio(get("fbm.synthesize", "busy_s"), get("fbm.synthesize", "calls")),
        "patterns.change_indicator_count.busy_s": get(
            "patterns.change_indicator_count", "busy_s"
        ),
        "estimators.zc_estimate.self_s": get("estimators.zc_estimate", "self_s"),
        "estimators.heaf_estimate.busy_s": get("estimators.heaf_estimate", "busy_s"),
        "variance.var_c_approx.calls": get("variance.var_c_approx", "calls"),
        "variance.var_c_approx.self_s": get("variance.var_c_approx", "self_s"),
        "variance.k_threshold.calls": get("variance.k_threshold", "calls"),
        "variance.k_threshold.self_s": get("variance.k_threshold", "self_s"),
        "variance.k_threshold.lags_per_call": ratio(
            scanned.get("calls", 0), get("variance.k_threshold", "calls")
        ),
        "variance.gamma_exact.calls": gamma_calls,
        "variance.gamma_exact.self_s": get("variance.gamma_exact", "self_s"),
        "variance.gamma_exact.miss_ratio": ratio(
            gamma_misses.get("parents_with_child", 0), gamma_calls
        ),
        "orthant.orthant4_excess.calls": get("orthant.orthant4_excess", "calls"),
        "orthant.orthant4_excess.busy_s": get("orthant.orthant4_excess", "busy_s"),
        "orthant.orthant4_excess.us_per_call": 1e6
        * ratio(
            get("orthant.orthant4_excess", "busy_s"),
            get("orthant.orthant4_excess", "calls"),
        ),
        "harness.VarianceProxy.build.calls": get(PROXY_BUILD, "calls"),
        "harness.VarianceProxy.build.self_s": get(PROXY_BUILD, "self_s"),
        "harness.run_campaign.self_s": get("harness.run_campaign", "self_s"),
        "harness.replication_us": 1e6 * ratio(campaign_s - proxy_s, replications),
        "harness.proxy_share": ratio(proxy_s, campaign_s),
        "harness.write_csv.busy_s": get("harness.write_csv", "busy_s"),
    }
