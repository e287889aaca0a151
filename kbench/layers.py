"""Metric catalogue and the layer boundaries a traced run wraps.

``E2E`` and ``PER_LAYER`` are the metric names, units and directions
that ``BENCHMARK.json`` declares (``selftest.py`` keeps the two in
step). Every workload reports every metric: a layer a workload does
not reach reads 0 there, which is the prediction for that pairing.
"""

from __future__ import annotations

from kbench.spans import Patches, Tracer

#: name -> unit, for the untraced run.
E2E = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "solve_lp_s": "s",
    "solve_hg_s": "s",
    "solve_gc_s": "s",
    "cliques_found": "count",
    "peak_rss_mb": "MiB",
    "flush_p50_ms": "ms",
}

#: Span name -> per-layer metric, for every timed layer boundary.
SPAN_METRICS = {
    "graph.build": "graph.build_s",
    "graph.order": "graph.order_s",
    "graph.orient": "graph.orient_s",
    "graph.orient_csr": "graph.orient_csr_s",
    "graph.score_orient": "graph.score_orient_s",
    "graph.fingerprint": "graph.fingerprint_s",
    "cliques.score": "cliques.score_s",
    "cliques.list": "cliques.list_s",
    "core.findmin": "core.findmin_s",
    "core.hg": "core.hg_s",
    "core.gc": "core.gc_s",
    "core.verify": "core.verify_s",
    "dynamic.initial_solve": "dynamic.initial_solve_s",
    "dynamic.index_build": "dynamic.index_build_s",
    "dynamic.insert": "dynamic.insert_s",
    "dynamic.delete": "dynamic.delete_s",
    "dynamic.discover": "dynamic.discover_s",
    "dynamic.swap": "dynamic.swap_s",
    "dynamic.local_enum": "dynamic.local_enum_s",
    "dynamic.apply_batch": "dynamic.apply_batch_s",
    "serve.decode": "serve.decode_s",
    "serve.encode": "serve.encode_s",
    "serve.queue_wait": "serve.queue_wait_ms",
    "serve.pool_get": "serve.pool_get_s",
    "serve.solve": "serve.solve_s",
    "serve.feed_flush": "serve.feed_flush_s",
}

#: Per-layer exact counts and ratios: name -> better.
COUNTS = {
    "graph.orientations": "lower",
    "graph.csr_builds": "lower",
    "cliques.score_passes": "lower",
    "cliques.clique_listings": "lower",
    "core.findmin_calls": "lower",
    "core.branches_pruned": "higher",
    "core.heap_pops": "lower",
    "core.stale_pops": "lower",
    "core.findone_calls": "lower",
    "core.stale_pop_ratio": "lower",
    "dynamic.pops": "lower",
    "dynamic.swaps": "higher",
    "dynamic.swap_gain": "higher",
    "dynamic.destroyed_cliques": "lower",
    "dynamic.direct_additions": "higher",
    "dynamic.index_size": "lower",
    "dynamic.swap_yield": "higher",
    "serve.pool_hits": "higher",
    "serve.pool_misses": "lower",
    "serve.pool_evictions": "lower",
    "serve.pool_hit_ratio": "higher",
    "serve.preemptions": "lower",
    "serve.shed": "lower",
    "serve.deadline_partials": "lower",
}

#: name -> (unit, better) for the traced run.
PER_LAYER = {
    **{name: ("ms" if name.endswith("_ms") else "s", "lower") for name in SPAN_METRICS.values()},
    "bench.ref_kernel_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    **{name: ("ratio" if name.endswith(("_ratio", "_yield")) else "count", better)
       for name, better in COUNTS.items()},
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(values: dict[str, float]) -> dict:
    """Every per-layer metric with its unit; unreached layers read 0."""
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }


def e2e_metrics(values: dict[str, float]) -> dict:
    missing = sorted(set(E2E) - set(values))
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in E2E.items()}


# ----------------------------------------------------------------------
# Layer boundaries wrapped by traced runs
# ----------------------------------------------------------------------
def install_dynamic(tracer: Tracer, patches: Patches) -> None:
    """Candidate-index discovery, swap cascades and local enumeration.

    ``maintainer`` and ``index`` import ``try_swap`` and the local
    enumerators by name, so the wrappers replace those bindings.
    """
    from repro.dynamic import index, maintainer

    for method in ("discover_through_edge", "discover_through_edges",
                   "discover_owner_candidates", "refresh_nodes"):
        patches.wrap(tracer, index.CandidateIndex, method, "dynamic.discover")
    patches.wrap(tracer, maintainer, "try_swap", "dynamic.swap")
    for fn in ("cliques_through_edge", "cliques_through_node", "iter_cliques_within"):
        patches.wrap(tracer, index, fn, "dynamic.local_enum")


def install_prep(tracer: Tracer, patches: Patches) -> None:
    """Session substrates, for code paths the benchmark does not stage."""
    from repro.core.session import Preprocessing
    from repro.graph.graph import Graph

    patches.wrap(tracer, Graph, "from_edges", "graph.build")
    for method, span in (("rank", "graph.order"), ("oriented", "graph.orient"),
                         ("oriented_csr", "graph.orient_csr"),
                         ("score_oriented", "graph.score_orient"),
                         ("scores", "cliques.score"), ("cliques", "cliques.list")):
        patches.wrap(tracer, Preprocessing, method, span)


def install_serve(tracer: Tracer, patches: Patches) -> None:
    """The serving layer's boundaries, inside the server process."""
    from repro.core.session import Session
    from repro.core.task import SolveTask
    from repro.dynamic.maintainer import DynamicDisjointCliques
    from repro.serve import feeds, pool, protocol, scheduler, server

    patches.wrap(tracer, protocol, "decode_request", "serve.decode")
    patches.wrap(tracer, protocol, "encode", "serve.encode")
    patches.wrap(tracer, pool.SessionPool, "get", "serve.pool_get")
    patches.wrap(tracer, Session, "solve", "serve.solve")
    patches.wrap(tracer, SolveTask, "step", "serve.solve")
    patches.wrap(tracer, feeds.DynamicFeed, "flush", "serve.feed_flush")
    patches.wrap(tracer, DynamicDisjointCliques, "apply_batch", "dynamic.apply_batch")
    patches.wrap(tracer, server, "graph_fingerprint", "graph.fingerprint")
    patches.wrap(tracer, pool, "graph_fingerprint", "graph.fingerprint")

    submit = scheduler.Scheduler.__dict__["submit"]

    def timed_submit(self, fn, **kwargs):
        submitted = tracer.clock()

        def started(remaining):
            tracer.record("serve.queue_wait", submitted, tracer.clock())
            return fn(remaining)

        return submit(self, started, **kwargs)

    patches.set(scheduler.Scheduler, "submit", timed_submit)
