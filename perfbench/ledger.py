"""The per-layer ledger of a traced run.

Times come from the spans of :mod:`spans`: a layer's time is the self time
of its spans (duration minus child spans), as a mean per op.  Counts come
from public APIs only: ``cache_info()``, ``last_decision``, ``route_mix()``,
``ResourceBudget.usage()``, ``ArtifactStore.stats()``, lineage clause
counts and the compiled OBDDs' size and width.  They are read after each op
ends, outside its timing.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from typing import Any

from spans import END, NAME, OP, START, self_times

# Layer time metrics: metric name -> span name (mean self seconds per op).
LAYER_TIMES = {
    "data.io.load_s": "data.io.load",
    "data.tid.build_s": "data.tid.build",
    "data.instance.fingerprint_s": "data.instance.fingerprint",
    "queries.parser.parse_s": "queries.parser.parse",
    "data.gaifman.graph_s": "data.gaifman.graph",
    "structure.tree_decomposition_s": "structure.tree_decomposition",
    "structure.path_decomposition_s": "structure.path_decomposition",
    "provenance.variable_orders.fact_order_s": "provenance.variable_orders.fact_order",
    "provenance.lineage.lineage_s": "provenance.lineage.lineage",
    "provenance.compile_obdd.build_s": "provenance.compile_obdd.build",
    "booleans.obdd.sweep_s": "booleans.obdd.sweep",
    "booleans.columnar.flatten_s": "booleans.columnar.flatten",
    "booleans.columnar.rehydrate_s": "booleans.columnar.rehydrate",
    "booleans.columnar.sweep_s": "booleans.columnar.sweep",
    "probability.lifted.plan_s": "probability.lifted.plan",
    "probability.lifted.execute_s": "probability.lifted.execute",
    "engine.session.init_s": "engine.session.init",
    "engine.session.probability_s": "engine.session.probability",
    "engine.router.choose_route_s": "engine.router.choose_route",
    "store.open_s": "store.open",
    "store.get_s": "store.get",
    "output.render_s": "output.render",
}

# Log-log growth of a layer's per-op time over the workload's input sizes.
SLOPES = {
    "structure.path_decomposition_slope": "structure.path_decomposition",
    "provenance.variable_orders.fact_order_slope": "provenance.variable_orders.fact_order",
    "data.io.load_slope": "data.io.load",
    "probability.lifted.execute_slope": "probability.lifted.execute",
}

ROUTES = ("safe_plan", "obdd", "columnar", "dnnf", "automaton")
CACHES = ("structure", "lineage", "obdd", "columnar", "dnnf", "lifted_plan", "probability", "store")

# Per-op means of counters; unit per metric.
COUNTS = {
    "provenance.lineage.clauses": "count",
    "booleans.obdd.nodes_allocated": "count",
    "probability.lifted.rows": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.quarantines": "count",
    "store.bytes_read": "bytes",
}


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) over log(x); 0.0 with under two points."""
    usable = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in usable}) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in usable)
    mean_y = statistics.fmean(y for _, y in usable)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in usable)
    denominator = sum((x - mean_x) ** 2 for x, _ in usable)
    return numerator / denominator


class Ledger:
    """Collects the per-op counters of a traced run and computes its metrics."""

    def __init__(self, tracer: Any, workload: Any) -> None:
        self.tracer = tracer
        self.workload = workload
        self.op_facts: dict[Any, int] = {}
        self.counts: Counter[str] = Counter()
        self.routes: Counter[str] = Counter()
        self.cache: dict[str, list[int]] = {name: [0, 0] for name in CACHES}
        self.ratios: list[float] = []
        self.treewidth = 0
        self.pathwidth = 0
        self.obdd_sizes: list[int] = []
        self.obdd_widths: list[int] = []
        self.bytes_loaded = 0
        self.setup_put_s = 0.0
        self.setup_bytes_written = 0
        self.entry_bytes: dict[str, int] = {}

    def trace_setup(self) -> None:
        """Trace one more set-up of a store-writing workload (the store writes)."""
        if not self.workload.writes_store:
            return
        op = self.tracer.begin_op("setup")
        self.workload.setup()
        self.tracer.end_op(op)
        self.tracer.results.clear()
        own = self_times(self.tracer.spans)
        self.setup_put_s = sum(
            own[i]
            for i, span in enumerate(self.tracer.spans)
            if span[OP] == "setup" and span[NAME] == "store.put"
        )
        self.setup_bytes_written = self.workload.stored_bytes()
        self.entry_bytes = self.workload.entry_bytes()

    def collect(self, index: int, spec: Any, outcome: Any, budget: Any) -> str:
        """Read one op's counters; return an invariant violation, or ""."""
        self.op_facts[index] = spec.source.fact_count
        builds = 0
        for name, args, result in self.tracer.results:
            if name == "data.io.load":
                self.bytes_loaded += spec.source.bytes
            elif name == "structure.tree_decomposition" and hasattr(result, "bags"):
                self.treewidth = max(self.treewidth, result.width)
            elif name == "structure.path_decomposition":
                self.pathwidth = max(self.pathwidth, result.width)
            elif name == "provenance.lineage.lineage":
                self.counts["provenance.lineage.clauses"] += result.clause_count
            elif name == "provenance.compile_obdd.build":
                builds += 1
                self.obdd_sizes.append(result.size)
                self.obdd_widths.append(result.width)
            elif name == "store.get":
                # get_object returns (found, value), get_columnar the artifact or None.
                found = result[0] if isinstance(result, tuple) else result is not None
                if found:
                    # args is (store, key); the ops write nothing, so the
                    # entry is the file the set-up left under that key.
                    self.counts["store.bytes_read"] += self.entry_bytes[args[1]]
        self.tracer.results.clear()
        usage = budget.usage()
        self.counts["booleans.obdd.nodes_allocated"] += usage["nodes"]
        self.counts["probability.lifted.rows"] += usage["rows"]
        if outcome is None:
            return ""
        # A fresh engine per op: its counters are this op's.
        engine = outcome.engine
        for name, stats in engine.cache_info().items():
            self.cache[name][0] += stats.hits
            self.cache[name][1] += stats.total
        self.routes.update(engine.route_mix())
        decision = engine.last_decision
        if decision is not None:
            estimates = dict(decision.estimates)
            for attempt in decision.attempts:
                if attempt.succeeded and estimates.get(attempt.route):
                    self.ratios.append(attempt.seconds / estimates[attempt.route])
        if engine.store is not None:
            counters = engine.store.stats().counters
            self.counts["store.hits"] += counters.hits
            self.counts["store.misses"] += counters.misses
            self.counts["store.quarantines"] += counters.quarantines
        if self.workload.writes_store and builds:
            return f"{builds} OBDD build(s) on a populated store"
        return ""

    def metrics(self, traced: list[Any]) -> dict[str, Any]:
        """The per-layer metrics, from the traced op records and their spans."""
        spans = self.tracer.spans
        own = self_times(spans)
        ops = len(traced)
        by_layer: dict[str, float] = defaultdict(float)
        by_size: dict[tuple[str, int], float] = defaultdict(float)
        ops_per_size: Counter[int] = Counter()
        op_wall = op_self = 0.0
        for i, span in enumerate(spans):
            if span[OP] == "setup":
                continue
            if span[NAME] == "op":
                op_wall += span[END] - span[START]
                op_self += own[i]
                ops_per_size[self.op_facts[span[OP]]] += 1
                continue
            by_layer[span[NAME]] += own[i]
            by_size[span[NAME], self.op_facts[span[OP]]] += own[i]

        result: dict[str, Any] = {}
        for metric_name, span_name in LAYER_TIMES.items():
            result[metric_name] = metric(by_layer[span_name] / ops, "s")
        load_total = sum(
            span[END] - span[START]
            for span in spans
            if span[NAME] == "data.io.load" and span[OP] != "setup"
        )
        mb_per_s = self.bytes_loaded / 1e6 / load_total if load_total else 0.0
        result["data.io.mb_per_s"] = metric(mb_per_s, "MB/s")
        for metric_name, span_name in SLOPES.items():
            points = [
                (facts, by_size[span_name, facts] / count)
                for facts, count in ops_per_size.items()
            ]
            result[metric_name] = metric(loglog_slope(points), "log/log")
        result["structure.treewidth"] = metric(self.treewidth, "width")
        result["structure.pathwidth"] = metric(self.pathwidth, "width")
        for name, unit in COUNTS.items():
            result[name] = metric(self.counts[name] / ops, unit)
        result["booleans.obdd.size"] = metric(
            statistics.fmean(self.obdd_sizes) if self.obdd_sizes else 0.0, "nodes"
        )
        result["booleans.obdd.width"] = metric(max(self.obdd_widths, default=0), "width")
        for route in ROUTES:
            result[f"engine.session.route.{route}"] = metric(self.routes[route], "count")
        ratios = self.ratios or [0.0]
        result["engine.session.predict_ratio_p50"] = metric(statistics.median(ratios), "ratio")
        result["engine.session.predict_ratio_max"] = metric(max(ratios), "ratio")
        for name in CACHES:
            hits, total = self.cache[name]
            result[f"engine.session.cache.{name}.hit_rate"] = metric(
                hits / total if total else 0.0, "ratio"
            )
        result["store.put_s"] = metric(self.setup_put_s, "s")
        result["store.bytes_written"] = metric(self.setup_bytes_written, "bytes")
        answered = [record for record in traced if not record.error]
        failures = sum(1 for record in answered if not record.rendered)
        result["output.render_failures"] = metric(failures, "count")
        result["output.render_fail_rate"] = metric(
            failures / len(answered) if answered else 0.0, "ratio"
        )
        result["trace.unexplained_frac"] = metric(op_self / op_wall, "ratio")
        return result
