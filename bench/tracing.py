"""Spans around matchforce's layer boundaries, recorded from outside ``src``.

:func:`install` replaces each traced public function at every module binding
that holds it, so calls made inside the package (``summarize_matchings``
calling ``maximal_matching_masks``, ``sweep_reports`` calling
``verify_bounds``) are recorded as well as calls from the CLI. Spans stay in
memory; :func:`layer_metrics` turns one pass's spans into the per-layer
metrics, and :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

PROBE = "probe.phi_greedy"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    probe: bool
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=0.0,
            parent=parent.id if parent else None,
            op=self.op,
            probe=name == PROBE or (parent is not None and parent.probe),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module: object, attr: str, name: str, record=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``record(span, args, kwargs, result)`` runs after the span closes, to
        keep counts the public API returns.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [asdict(s) for s in self.spans], **extra}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Calls are single-threaded and strictly nested, so children never overlap
    and their durations add up.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# (defining module, function) -> span name. Every binding of the function in
# any loaded matchforce module is wrapped.
TARGETS = {
    ("cli", "main"): "cli.main",
    ("graph", "parse_edge_list"): "graph.parse_edge_list",
    ("corona", "corona_product"): "corona.corona_product",
    ("matchings", "maximal_matching_masks"): "matchings.maximal_matching_masks",
    ("matchings", "summarize_matchings"): "matchings.summarize_matchings",
    ("matchings", "is_randomly_matchable"): "matchings.is_randomly_matchable",
    ("matchings", "enumerate_maximal_matchings"): "matchings.enumerate_maximal_matchings",
    ("forcing", "phi_exact"): "forcing.phi_exact",
    ("forcing", "is_global_forcing_set"): "forcing.is_global_forcing_set",
    ("ilp", "build_model"): "ilp.build_model",
    ("ilp", "export_lp"): "ilp.export_lp",
    ("ilp", "import_solution"): "ilp.import_solution",
    ("bounds", "verify_bounds"): "bounds.verify_bounds",
    ("bounds", "sweep_reports"): "bounds.sweep_reports",
}


def install(tracer: Tracer) -> None:
    """Wrap every binding of every target function in the loaded package."""
    forcing = sys.modules["matchforce.forcing"]
    phi_greedy = forcing.phi_greedy
    default_budget = sys.modules["matchforce.matchings"].DEFAULT_BUDGET

    def record_masks(span, args, kwargs, result):
        g = _arg(args, kwargs, 0, "g")
        span.info["rows"] = len(result)
        span.info["graph"] = hash((g.n, g.edges))

    def record_phi(span, args, kwargs, result):
        span.info.update(
            nodes=result.nodes, size=result.size, lower=result.lower_bound, greedy=result.greedy_size
        )
        # phi_exact runs its greedy seed internally; time the same greedy on
        # the same graph in a probe span so the search can be told apart.
        probe = tracer.open(PROBE)
        try:
            phi_greedy(_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "budget", default_budget))
        finally:
            tracer.close(probe)

    def record_model(span, args, kwargs, result):
        span.info["constraints"] = len(result.constraints)
        span.info["row_pairs"] = sum(len(c.pairs) for c in result.constraints)

    def record_lp(span, args, kwargs, result):
        span.info["bytes"] = len(result)

    records = {
        "matchings.maximal_matching_masks": record_masks,
        "forcing.phi_exact": record_phi,
        "ilp.build_model": record_model,
        "ilp.export_lp": record_lp,
    }
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "matchforce"]
    for (home, attr), name in TARGETS.items():
        original = getattr(sys.modules[f"matchforce.{home}"], attr, None)
        if original is None:
            raise RuntimeError(f"trace target matchforce.{home}.{attr} is missing")
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    tracer.wrap(module, binding, name, records.get(name))


# Layer self-time buckets. forcing.search_s is derived: phi_exact self time
# minus the probe's greedy time.
SELF_TIME_BUCKETS = {
    "cli.main": "cli.self_s",
    "graph.parse_edge_list": "graph.parse_s",
    "corona.corona_product": "corona.build_s",
    "matchings.maximal_matching_masks": "matchings.enum_s",
    "matchings.summarize_matchings": "matchings.enum_s",
    "matchings.is_randomly_matchable": "matchings.enum_s",
    "matchings.enumerate_maximal_matchings": "matchings.objects_s",
    "forcing.is_global_forcing_set": "forcing.verify_s",
    "ilp.build_model": "ilp.build_s",
    "ilp.export_lp": "ilp.export_s",
    "ilp.import_solution": "ilp.import_s",
    "bounds.verify_bounds": "bounds.self_s",
    "bounds.sweep_reports": "bounds.self_s",
    PROBE: "forcing.greedy_s",
}

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "forcing.bb_nodes": "count",
    "forcing.bb_nodes_per_s": "1/s",
    "forcing.search_s": "s",
    "forcing.root_lb_gap": "count",
    "forcing.greedy_s": "s",
    "forcing.phi_calls": "count",
    "forcing.greedy_excess": "count",
    "forcing.verify_s": "s",
    "matchings.enum_s": "s",
    "matchings.enum_calls": "count",
    "matchings.enum_rows": "count",
    "matchings.rows_per_s": "1/s",
    "matchings.enum_reuse": "ratio",
    "matchings.objects_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "ilp.build_s": "s",
    "ilp.export_s": "s",
    "ilp.import_s": "s",
    "ilp.constraints": "count",
    "ilp.row_pairs": "count",
    "ilp.dedup_ratio": "ratio",
    "ilp.lp_bytes": "B",
    "bounds.self_s": "s",
    "bounds.reports": "count",
    "corona.build_s": "s",
    "graph.parse_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass (plus its set-up spans).

    Probe spans and their children count only towards ``forcing.greedy_s``.
    A layer the pass never called reads 0. ``trace.overhead_s`` is filled in
    by the caller, which has the untraced pass.
    """
    selfs = self_times(spans)
    out = {name: 0.0 for name in LAYER_METRICS}
    phi_self = 0.0
    graphs_per_op: dict[str, set[int]] = {}
    for s in spans:
        if s.probe and s.name != PROBE:
            continue
        bucket = SELF_TIME_BUCKETS.get(s.name)
        if bucket is not None:
            out[bucket] += selfs[s.id]
        if s.name == "forcing.phi_exact":
            phi_self += selfs[s.id]
            out["forcing.phi_calls"] += 1
            if "nodes" in s.info:  # absent when the search raised
                out["forcing.bb_nodes"] += s.info["nodes"]
                out["forcing.root_lb_gap"] += s.info["size"] - s.info["lower"]
                out["forcing.greedy_excess"] += s.info["greedy"] - s.info["size"]
        elif s.name == "matchings.maximal_matching_masks" and "rows" in s.info:
            out["matchings.enum_calls"] += 1
            out["matchings.enum_rows"] += s.info["rows"]
            graphs_per_op.setdefault(s.op, set()).add(s.info["graph"])
        elif s.name == "ilp.build_model" and "constraints" in s.info:
            out["ilp.constraints"] += s.info["constraints"]
            out["ilp.row_pairs"] += s.info["row_pairs"]
        elif s.name == "ilp.export_lp" and "bytes" in s.info:
            out["ilp.lp_bytes"] += s.info["bytes"]
        elif s.name == "bounds.verify_bounds":
            out["bounds.reports"] += 1
    out["forcing.search_s"] = phi_self - out["forcing.greedy_s"]
    if out["forcing.search_s"] > 0:
        out["forcing.bb_nodes_per_s"] = out["forcing.bb_nodes"] / out["forcing.search_s"]
    if out["matchings.enum_s"] > 0:
        out["matchings.rows_per_s"] = out["matchings.enum_rows"] / out["matchings.enum_s"]
    if out["matchings.enum_calls"]:
        distinct = sum(len(keys) for keys in graphs_per_op.values())
        out["matchings.enum_reuse"] = distinct / out["matchings.enum_calls"]
    if out["ilp.row_pairs"]:
        out["ilp.dedup_ratio"] = out["ilp.constraints"] / out["ilp.row_pairs"]
    out["cli.stdout_bytes"] = float(stdout_bytes)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
