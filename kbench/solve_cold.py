"""``solve-cold``: the paper's one-shot query, cell by cell.

A cell builds the graph from an in-memory edge list, opens a fresh
``Session`` and solves once. A pass runs lp at k = 3, 4, 5 and hg and gc
at k = 4 on two seeded graphs: a ``powerlaw_cluster(n, 8, 0.5)``
"social" graph, where graph build and orientation are about half of an
lp solve, and a clique-rich ``powerlaw_cluster(n, 18, 0.5)`` "dense"
graph, where the score pass and the FindMin walk dominate. ``graph``,
``cliques`` and ``core`` do all the work; ``dynamic`` and ``serve``
none.

The traced run repeats every cell as a staged solve: the method's
``Preprocessing`` accessors are called one by one on a fresh session,
then ``solve``, each inside a span taken here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from kbench import common
from kbench.common import Outcome, RefClock, fail, median, quiesce
from kbench.layers import ratio
from kbench.spans import Tracer

SOCIAL_N = 2500
DENSE_N = 1000
METHOD_CELLS = ((3, "lp"), (4, "lp"), (5, "lp"), (4, "hg"), (4, "gc"))
#: Nominal seconds of one untraced pass (a set-up, ten cells, kernels,
#: collections).
PASS_NOMINAL_S = 1.0
IMPORTS = "import repro, repro.core.session, repro.graph.generators"

#: Preprocessing work counters (``cache_hits`` differs by design when
#: accessors are staged, so it is not compared).
WORK_COUNTERS = ("clique_listings", "score_passes", "count_passes",
                 "orientations", "csr_builds", "core_decompositions")
PREP_COUNTS = {"orientations": "graph.orientations", "csr_builds": "graph.csr_builds",
               "score_passes": "cliques.score_passes", "clique_listings": "cliques.clique_listings"}
CORE_COUNTS = ("findmin_calls", "branches_pruned", "heap_pops", "stale_pops",
               "findone_calls")


def plan_passes(seconds: float) -> int:
    return max(3, round(seconds / PASS_NOMINAL_S))


def make_inputs(seed: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    from repro.graph.generators import powerlaw_cluster

    graphs = []
    for offset, (name, n, m_attach) in enumerate((("social", SOCIAL_N, 8), ("dense", DENSE_N, 18))):
        g = powerlaw_cluster(n, m_attach, 0.5, seed=seed * 7919 + offset)
        graphs.append((name, n, list(g.edges())))
    return graphs


def cells(graphs) -> list[tuple[str, int, list, int, str]]:
    return [(name, n, edges, k, method) for name, n, edges in graphs for k, method in METHOD_CELLS]


def solve_cell(n: int, edges: list, k: int, method: str):
    """One untraced cold solve; returns ``(result, session, build_s, total_s)``."""
    from repro.core.session import Session
    from repro.graph.graph import Graph

    t0 = time.perf_counter()
    graph = Graph.from_edges(edges, n=n)
    t1 = time.perf_counter()
    session = Session(graph)
    result = session.solve(k, method)
    t2 = time.perf_counter()
    return result, session, t1 - t0, t2 - t0


def staged_cell(tracer: Tracer, n: int, edges: list, k: int, method: str, csr: bool):
    """The same cold solve with each accessor in its own span."""
    from repro.core.session import Session
    from repro.graph.graph import Graph

    with tracer.span("graph.build"):
        graph = Graph.from_edges(edges, n=n)
    session = Session(graph)
    prep = session.prep
    # hg orients by its own option (degree order); lp and gc score and
    # list over the degeneracy orientation.
    order = session.method("hg").parse_options({}).order if method == "hg" else "degeneracy"
    with tracer.span("graph.order"):
        prep.rank(order)
    with tracer.span("graph.orient"):
        prep.oriented(order)
    if csr:
        with tracer.span("graph.orient_csr"):
            prep.oriented_csr()
    if method == "lp":
        with tracer.span("cliques.score"):
            prep.scores(k)
        with tracer.span("graph.score_orient"):
            prep.score_oriented(k)
        with tracer.span("core.findmin"):
            result = session.solve(k, "lp")
    elif method == "gc":
        with tracer.span("cliques.list"):
            prep.cliques(k)
        with tracer.span("cliques.score"):
            prep.scores(k)
        with tracer.span("core.gc"):
            result = session.solve(k, "gc")
    else:
        with tracer.span("core.hg"):
            result = session.solve(k, "hg")
    return result, session


def work_counters(session) -> dict:
    return {key: session.prep.stats[key] for key in WORK_COUNTERS}


def measure_setup(root: Path, ref: RefClock, first_cell) -> tuple[float, float]:
    """One set-up: interpreter start plus imports, then a warm-up cell;
    returns ``(reference-speed, raw)`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    quiesce()
    i = ref.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], cwd=root, env=env, check=True)
    imports = time.perf_counter() - t0
    quiesce()
    j = ref.sample()
    _, _, _, warm = solve_cell(*first_cell)
    return ref.scale(i, imports) + ref.scale(j, warm), imports + warm


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.result import is_maximal, verify_solution

    graphs = make_inputs(seed)
    plan = cells(graphs)
    passes = plan_passes(seconds)
    ref = RefClock()
    tracer = Tracer()
    errors: list[str] = []
    failed = attempted = 0

    setup_scaled: list[float] = []
    setup_raw: list[float] = []

    # per pass: per cell (ref index, raw total, raw build)
    timings: list[list[tuple[int, float, float]]] = []
    traced_totals: list[float] = []
    untraced_totals: list[float] = []
    layer_passes: list[dict[str, float]] = []
    first: list[tuple] = []  # per cell: (sorted cliques, result stats, work counters)
    pass_counts: list[dict] = []
    for p in range(passes):
        if not trace:
            # One set-up per pass, so set-up samples spread over the run
            # like the cells' and number as many as the passes.
            scaled, raw = measure_setup(root, ref, (graphs[0][1], graphs[0][2], 4, "lp"))
            setup_scaled.append(scaled)
            setup_raw.append(raw)
        row = []
        layer: dict[str, float] = {}
        counts = {"cliques_found": 0}
        verify_s = 0.0
        staged_scaled = untraced_scaled = 0.0
        lp4: dict[str, list] = {}
        for c, (name, n, edges, k, method) in enumerate(plan):
            attempted += 1
            quiesce()
            i = ref.sample()
            result, session, build, total = solve_cell(n, edges, k, method)
            row.append((i, total, build))
            cliques = result.sorted_cliques()
            ok = True
            counters = work_counters(session)
            stats = {key: result.stats.get(key, 0) for key in CORE_COUNTS}
            if p == 0:
                first.append((cliques, stats, counters))
            if trace or p == 0:
                try:
                    t0 = time.perf_counter()
                    verify_solution(session.graph, k, cliques)
                    verify_s += ref.scale(i, time.perf_counter() - t0)
                    if not is_maximal(session.graph, k, cliques):
                        ok = False
                        fail(errors, f"{name} k={k} {method}: solution not maximal")
                except Exception as exc:  # noqa: BLE001 - any checker error fails the cell
                    ok = False
                    fail(errors, f"{name} k={k} {method}: {exc}")
            if (cliques, stats, counters) != first[c]:
                ok = False
                fail(errors, f"pass {p} {name} k={k} {method}: differs from pass 0")
            if method == "lp" and k == 4:
                lp4[name] = cliques
            if method == "gc" and cliques != lp4.get(name):
                ok = False
                fail(errors, f"pass {p} {name} k={k}: gc != lp (Theorem 4)")
            counts["cliques_found"] += len(cliques)
            for key, value in stats.items():
                counts[f"core.{key}"] = counts.get(f"core.{key}", 0) + value
            for key, metric in PREP_COUNTS.items():
                counts[metric] = counts.get(metric, 0) + counters[key]
            if trace:
                untraced_scaled += ref.scale(i, total)
                quiesce()
                j = ref.sample()
                tracer.clear()
                staged, staged_session = staged_cell(tracer, n, edges, k, method, counters["csr_builds"] > 0)
                for span, (self_time, _) in tracer.totals().items():
                    layer[f"{span}_s"] = layer.get(f"{span}_s", 0.0) + ref.scale(j, self_time)
                    staged_scaled += ref.scale(j, self_time)
                if staged.sorted_cliques() != cliques:
                    ok = False
                    fail(errors, f"{name} k={k} {method}: staged result differs")
                if work_counters(staged_session) != counters:
                    ok = False
                    fail(errors, f"{name} k={k} {method}: staged work {work_counters(staged_session)} "
                                 f"!= one-shot {counters}")
            if not ok:
                failed += 1
        timings.append(row)
        pass_counts.append(counts)
        if counts != pass_counts[0]:
            fail(errors, f"pass {p} counts {counts} != pass 0 {pass_counts[0]}")
        if trace:
            traced_totals.append(staged_scaled)
            untraced_totals.append(untraced_scaled)
            layer["core.verify_s"] = verify_s
            layer_passes.append(layer)
    ref.sample()

    details = {
        "passes": passes,
        "cells_per_pass": len(plan),
        "graphs": {name: {"n": n, "m": len(edges)} for name, n, edges in graphs},
        "ref_kernel": ref.summary(),
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
    }
    counts = dict(pass_counts[0])
    if trace:
        values = {}
        for name in layer_passes[0]:
            values[name] = median([lp.get(name, 0.0) for lp in layer_passes])
        values.update({k: v for k, v in counts.items() if k != "cliques_found"})
        values["core.stale_pop_ratio"] = ratio(counts.get("core.stale_pops", 0), counts.get("core.heap_pops", 0))
        values["bench.ref_kernel_ms"] = ref.summary()["median_ms"]
        values["trace.overhead_pct"] = 100.0 * (median(traced_totals) / median(untraced_totals) - 1.0)
        details["trace_overhead"] = {"traced_pass_s": median(traced_totals), "untraced_pass_s": median(untraced_totals)}
        return Outcome(values, attempted, failed, errors, counts, details)

    def timing_metrics(seconds) -> dict:
        """The timed end-to-end metrics, with ``seconds(ref_index, raw)``
        converting each raw time (to reference speed, or not at all)."""
        per_cell: list[list[float]] = [[] for _ in plan]
        per_method: dict[str, list[float]] = {"lp": [], "hg": [], "gc": []}
        ingest = []
        for row in timings:
            sums = dict.fromkeys(per_method, 0.0)
            for c, (i, total, build) in enumerate(row):
                per_cell[c].append(seconds(i, total))
                sums[plan[c][4]] += seconds(i, total)
            for method, value in sums.items():
                per_method[method].append(value)
            ingest.append(sum(seconds(i, build) for i, _, build in row))
        pooled = [t * 1e3 for cell in per_cell for t in cell]
        return {
            "ops_per_s": len(pooled) / (sum(pooled) / 1e3),
            "op_p50_ms": median([median(cell) * 1e3 for cell in per_cell]),
            "op_tail_ms": common.tail(pooled)[0],
            **{f"solve_{method}_s": median(v) for method, v in per_method.items()},
            "flush_p50_ms": median(ingest) * 1e3,
        }

    peak_rss, rss_details = common.program_peak_rss_mb()
    values = {
        **timing_metrics(ref.scale),
        "setup_s": median(setup_scaled),
        "cliques_found": counts["cliques_found"],
        "peak_rss_mb": peak_rss,
    }
    details.update({
        "samples": {"cells": attempted, "per_cell": passes, "passes": passes, "setups": len(setup_scaled)},
        "tail": {"percentile": common.tail_rank(attempted), "samples": attempted},
        "raw": {**timing_metrics(lambda i, t: t), "setup_s": median(setup_raw)},
        "rss": rss_details,
    })
    return Outcome(values, attempted, failed, errors, counts, details)
