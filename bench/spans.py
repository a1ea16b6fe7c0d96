"""Run-time spans around harqpower's public module attributes, and the
per-layer metrics computed from them.

Tracer.install() replaces selected module attributes with timing wrappers
and Tracer.uninstall() puts the originals back; no file under src/ changes.
The program looks these names up through their modules at call time (for
instance training calls `batch_lagrangian` and `ad.backward` as module
globals), so the wrappers see every call.  Spans are kept in memory as
(id, name, start, end, parent, thread, info) and written out once by dump().

`correlation_factor` runs 150 times per training step, so its calls are
summed per parent span instead of kept one by one.
"""
from __future__ import annotations

import collections
import itertools
import json
import statistics
import threading
import time

from workloads import MC_ROWS

# (module, attribute, span name).  Span names use the layer that owns the
# work, whichever module the call goes through.
WRAPPED = (
    ("cli", "main", "cli.command"),
    ("cli", "train", "training.train"),
    ("cli", "estimate_outage", "montecarlo.direct"),
    ("cli", "estimate_outage_conditional", "montecarlo.conditional"),
    ("cli", "grid_search", "oracle.grid_search"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_manifest", "cli.write_manifest"),
    ("cli", "save_checkpoint", "gcn.save_checkpoint"),
    ("training", "batch_lagrangian", "training.batch_lagrangian"),
    ("training", "batch_adjacency", "graph.batch_adjacency"),
    ("training", "correlation_factor", "analytics.correlation_factor"),
    ("training", "adam_update", "training.adam_update"),
    ("training", "evaluate", "analytics.evaluate"),
    ("training", "forward", "gcn.forward"),
    ("training", "session_adjacency", "graph.session_adjacency"),
    ("autodiff", "backward", "autodiff.backward"),
    ("montecarlo", "estimate_profile", "montecarlo.estimate_profile"),
    ("montecarlo", "outage_event", "montecarlo.outage_event"),
)
SUMMED = frozenset({"analytics.correlation_factor"})

# Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER = (
    ("training.steps", "count"),
    ("training.step_ms_p50", "ms"),
    ("training.step_ms_p99", "ms"),
    ("training.lagrangian_ms_per_step", "ms"),
    ("training.adam_ms_per_step", "ms"),
    ("graph.batch_adjacency_ms_per_step", "ms"),
    ("graph.session_adjacency_calls", "count"),
    ("analytics.correlation_factor_calls_per_step", "count"),
    ("analytics.correlation_factor_ms_per_step", "ms"),
    ("analytics.evaluate_calls", "count"),
    ("autodiff.tape_nodes_per_step", "count"),
    ("autodiff.backward_ms_per_step", "ms"),
    ("gcn.forward_calls", "count"),
    ("gcn.checkpoint_write_ms", "ms"),
    ("montecarlo.sample_passes", "count"),
    ("montecarlo.direct_trials_per_s_1t", "trials/s"),
    ("montecarlo.direct_trials_per_s_2t", "trials/s"),
    ("montecarlo.conditional_trials_per_s_1t", "trials/s"),
    ("montecarlo.conditional_trials_per_s_2t", "trials/s"),
    ("montecarlo.thread_scaling", "ratio"),
    ("montecarlo.outage_event_ms", "ms"),
    ("oracle.grid_points", "count"),
    ("oracle.grid_search_ms", "ms"),
    ("oracle.array_bytes_computed", "bytes"),
    ("cli.commands", "count"),
    ("cli.write_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def tape_size(root) -> int:
    """Distinct nodes reachable from an autodiff root through .parents."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


def _info(name, args, kwargs, out):
    """Per-call facts the metrics need, taken from arguments and results."""
    if name in ("montecarlo.direct", "montecarlo.conditional"):
        return {"trials": kwargs["trials"], "workers": kwargs.get("workers", 1)}
    if name == "oracle.grid_search":
        channel, grid = args[0], args[3]
        return {"points": grid.points_per_axis ** channel.num_rounds,
                "rounds": channel.num_rounds}
    if name == "training.batch_lagrangian":
        return {"tape_nodes": tape_size(out[0])}
    return None


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        # (name, parent) -> [calls, seconds] for SUMMED names
        self.sums = collections.defaultdict(lambda: [0, 0.0])
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        if name in SUMMED:
            def summed(*args, **kwargs):
                stack = self._stack()
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                acc = self.sums[(name, stack[-1] if stack else None)]
                acc[0] += 1
                acc[1] += time.perf_counter() - start
                return out
            return summed

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(),
                               _info(name, args, kwargs, out)))
            return out
        return traced

    def install(self) -> None:
        for mod_name, attr, name in WRAPPED:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for (name, parent), (calls, secs) in self.sums.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "seconds": secs}) + "\n")


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, rounds: int, traced_walls, untraced_walls):
    """Per-layer metrics over `rounds` traced rounds; see bench/README.md."""
    by_name = collections.defaultdict(list)
    children = collections.defaultdict(float)
    for span in tracer.spans:
        by_name[span[1]].append(span)
        if span[4] is not None:
            children[span[4]] += span[3] - span[2]
    for (_, parent), (_, secs) in tracer.sums.items():
        children[parent] += secs

    def total_s(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    steps = count("training.adam_update")
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)

    # interval between successive Adam updates within one training run
    intervals = []
    runs = collections.defaultdict(list)
    for s in by_name["training.adam_update"]:
        runs[s[4]].append(s[3])
    for ends in runs.values():
        intervals += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]

    lagr = by_name["training.batch_lagrangian"]
    cf_calls = sum(c for c, _ in tracer.sums.values())
    cf_secs = sum(t for _, t in tracer.sums.values())

    def mc_rate(kinds, threads):
        spans = [s for k in kinds for s in by_name[f"montecarlo.{k}"]
                 if s[6]["workers"] == threads]
        secs = sum(s[3] - s[2] for s in spans)
        return sum(s[6]["trials"] for s in spans) / secs if secs else 0.0

    direct_cmds = count("montecarlo.direct") / MC_ROWS
    rate1 = mc_rate(("direct", "conditional"), 1)
    rate2 = mc_rate(("direct", "conditional"), 2)
    oracle = by_name["oracle.grid_search"]
    points = oracle[0][6]["points"] if oracle else 0
    rounds_k = oracle[0][6]["rounds"] if oracle else 0
    # mean rounds, as for the untraced run's wall_s
    traced = statistics.fmean(traced_walls)
    untraced = statistics.fmean(untraced_walls)

    return {
        "training.steps": steps / rounds,
        "training.step_ms_p50": _percentile(intervals, 50),
        "training.step_ms_p99": _percentile(intervals, 99),
        "training.lagrangian_ms_per_step": per_step(1e3 * sum(
            s[3] - s[2] - children[s[0]] for s in lagr)),
        "training.adam_ms_per_step": per_step(1e3 * total_s("training.adam_update")),
        "graph.batch_adjacency_ms_per_step":
            per_step(1e3 * total_s("graph.batch_adjacency")),
        "graph.session_adjacency_calls": count("graph.session_adjacency") / rounds,
        "analytics.correlation_factor_calls_per_step": per_step(cf_calls),
        "analytics.correlation_factor_ms_per_step": per_step(1e3 * cf_secs),
        "analytics.evaluate_calls": count("analytics.evaluate") / rounds,
        "autodiff.tape_nodes_per_step":
            per_step(sum(s[6]["tape_nodes"] for s in lagr)),
        "autodiff.backward_ms_per_step": per_step(1e3 * total_s("autodiff.backward")),
        "gcn.forward_calls": count("gcn.forward") / rounds,
        "gcn.checkpoint_write_ms": 1e3 * total_s("gcn.save_checkpoint") / rounds,
        "montecarlo.sample_passes": (count("montecarlo.estimate_profile")
                                     / direct_cmds if direct_cmds else 0.0),
        "montecarlo.direct_trials_per_s_1t": mc_rate(("direct",), 1),
        "montecarlo.direct_trials_per_s_2t": mc_rate(("direct",), 2),
        "montecarlo.conditional_trials_per_s_1t": mc_rate(("conditional",), 1),
        "montecarlo.conditional_trials_per_s_2t": mc_rate(("conditional",), 2),
        "montecarlo.thread_scaling": rate2 / (2.0 * rate1) if rate1 else 0.0,
        "montecarlo.outage_event_ms":
            1e3 * total_s("montecarlo.outage_event") / rounds,
        "oracle.grid_points": points,
        "oracle.grid_search_ms": (1e3 * total_s("oracle.grid_search") / len(oracle)
                                  if oracle else 0.0),
        # computed, not measured: the (N, K) float64 mesh, power matrix and
        # outage profile the search materialises
        "oracle.array_bytes_computed": 3 * points * rounds_k * 8,
        "cli.commands": count("cli.command") / rounds,
        "cli.write_ms": 1e3 * (total_s("cli.write_csv") + total_s("cli.write_manifest")
                               + total_s("gcn.save_checkpoint")) / rounds,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }
