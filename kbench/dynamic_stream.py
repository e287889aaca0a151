"""``dynamic-stream``: the paper's mixed update stream (Section VI-E).

One ``DynamicDisjointCliques`` at k = 4 on ``powerlaw_cluster(n, 24,
0.9)`` takes the seeded mixed stream one edge at a time through
``insert_edge``/``delete_edge``. Rounds alternate between the stream
and its inverse, so every round pair returns to the start graph and the
stream never runs out of valid updates. The ``dynamic`` layer (index,
swaps, local enumeration) does nearly all the timed work; ``core``
appears only in set-up.

A run is a fixed number of *lifecycles*, each on its own seeded graph
and stream: set-up (the initial lp solve, then the maintainer), the
per-edge round pairs, the stream once more through ``apply_batch`` in
fixed-size chunks (the batched write path a feed flush takes), and hg
and gc re-solves of the final graph from scratch (the static cost the
index avoids). How much repair work a stream causes varies by 15-20%
from one seeded instance to the next, so a run pools several instances
instead of repeating one. Set-up is repeated ``SETUPS`` times per
instance (the last set-up's maintainer takes the stream), so set-up and
the initial lp solve have a sample per set-up.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

from kbench import common
from kbench.common import Outcome, RefClock, fail, median, quiesce
from kbench.layers import install_dynamic, ratio
from kbench.spans import Patches, Tracer

N = 2000
M_ATTACH = 24
TRIANGLE_P = 0.9
K = 4
#: Re-insertions and deletions each: 4000 updates a round. An instance's
#: update time varies by ~30% between seeded instances at 1000 and by
#: ~15% at 2000.
STREAM_COUNT = 2000
LIFECYCLES = 8
#: Set-ups per lifecycle: 24 set-up (and initial lp solve) samples a run.
SETUPS = 3
FLUSH_CHUNK = 64
#: Updates between reference-kernel samples within a round. A round takes
#: about half a second; sampling the kernel through it lets the
#: reference window follow the host's speed at the scale of the updates.
REF_EVERY = 500
#: Nominal seconds of one per-edge round pair including its checks.
PAIR_NOMINAL_S = 1.2
#: Nominal seconds of a lifecycle's fixed part (inputs, set-ups, batched
#: round, re-solves, final checks).
LIFECYCLE_FIXED_S = 2.9

#: From-scratch re-solves of the final graph per lifecycle. hg is short,
#: so it is repeated to give its median 24 samples; a gc solve takes
#: 0.6-0.8 s, so its median rests on one sample per lifecycle (8), which
#: keeps the run inside its time budget.
RE_SOLVES = {"hg": 3, "gc": 1}

DYNAMIC_COUNTS = ("pops", "swaps", "swap_gain", "destroyed_cliques", "direct_additions")


def plan_pairs(seconds: float) -> int:
    """Per-edge round pairs per lifecycle for a ``seconds`` budget."""
    per_life = seconds / LIFECYCLES - LIFECYCLE_FIXED_S
    return max(1, round(per_life / PAIR_NOMINAL_S))


def make_inputs(seed: int, lifecycle: int):
    """``(start graph, stream, inverse stream)`` of one lifecycle."""
    from repro.dynamic.workload import mixed_workload
    from repro.graph.generators import powerlaw_cluster

    base = (seed * LIFECYCLES + lifecycle) * 7919
    graph = powerlaw_cluster(N, M_ATTACH, TRIANGLE_P, seed=base + 11)
    start, forward = mixed_workload(graph, STREAM_COUNT, seed=base + 12)
    inverse = [("delete" if op == "insert" else "insert", u, v) for op, u, v in reversed(forward)]
    return start, forward, inverse


def apply_round(dyn, stream, tracer: Tracer | None) -> tuple[list[float], int]:
    """Per-edge updates; returns raw per-update seconds and rejected updates."""
    insert, delete = dyn.insert_edge, dyn.delete_edge
    clock = time.perf_counter
    lat = []
    rejected = 0
    for op, u, v in stream:
        if tracer is None:
            t0 = clock()
            ok = insert(u, v) if op == "insert" else delete(u, v)
            lat.append(clock() - t0)
        else:
            t0 = clock()
            with tracer.span("dynamic.insert" if op == "insert" else "dynamic.delete"):
                ok = insert(u, v) if op == "insert" else delete(u, v)
            lat.append(clock() - t0)
        if not ok:
            rejected += 1
    return lat, rejected


def checked(dyn, errors: list[str], where: str) -> bool:
    try:
        dyn.check_invariants()
    except Exception as exc:  # noqa: BLE001 - any invariant failure fails the round
        fail(errors, f"{where}: {exc}")
        return False
    return True


def lifecycle(start, forward, inverse, pairs: int, ref: RefClock, tracer: Tracer | None,
              errors: list[str], setups: int = SETUPS, re_solves: dict = RE_SOLVES) -> dict:
    """Set-ups plus the rounds on the last one; returns raw per-operation
    samples (with the reference index to scale them by) and counts."""
    from repro.core.result import is_maximal, verify_solution
    from repro.core.session import Session
    from repro.dynamic.maintainer import DynamicDisjointCliques

    # rounds: (reference index, raw per-update seconds) per REF_EVERY updates
    out: dict = {"rounds": [], "flushes": [], "attempted": 0, "failed": 0, "pairs": []}
    if tracer is not None:
        tracer.active = False
    # (reference index, raw seconds) pairs, converted when summarised
    out["solve_lp"], out["index_build"], out["setup"] = [], [], []
    for s in range(setups):
        dyn = session = initial = None  # the previous set-up's, freed off the clock
        quiesce()
        i = ref.sample()
        t0 = time.perf_counter()
        session = Session(start)
        initial = session.solve(K, "lp")
        t1 = time.perf_counter()
        dyn = DynamicDisjointCliques(start, K, initial=initial, validate_initial=False)
        t2 = time.perf_counter()
        out["solve_lp"].append((i, t1 - t0))
        out["index_build"].append((i, t2 - t1))
        out["setup"].append((i, t2 - t0))
        if s and (initial.sorted_cliques(), dyn.index_size) != (out["initial"], index_size):
            out["failed"] += 1
            fail(errors, f"set-up {s}: initial solution or index differs from set-up 0")
        out["initial"] = initial.sorted_cliques()
        index_size = dyn.index_size
    out["initial_digest"] = hashlib.sha256(repr(out["initial"]).encode()).hexdigest()[:16]
    out["core"] = {key: initial.stats.get(key, 0) for key in
                   ("findmin_calls", "branches_pruned", "heap_pops", "stale_pops")}
    out["prep"] = dict(session.prep.stats)

    for p in range(pairs):
        chunks = []  # traced run: (reference index, {span: raw self time}) per REF_EVERY updates
        for r, stream in enumerate((forward, inverse)):
            quiesce()
            rejected = 0
            for c in range(0, len(stream), REF_EVERY):
                i = ref.sample()
                if tracer is not None:
                    tracer.clear()
                    tracer.active = True
                lat, bad = apply_round(dyn, stream[c : c + REF_EVERY], tracer)
                if tracer is not None:
                    tracer.active = False
                    chunks.append((i, {span: t for span, (t, _) in tracer.totals().items()}))
                out["rounds"].append((i, lat))
                out["attempted"] += len(lat)
                rejected += bad
            if rejected:
                out["failed"] += rejected
                fail(errors, f"pair {p} round {r}: {rejected} updates rejected")
            if not checked(dyn, errors, f"pair {p} round {r}"):
                out["failed"] += 1
        if tracer is not None:
            out["pairs"].append(chunks)

    quiesce()
    i = ref.sample()
    for c in range(0, len(forward), FLUSH_CHUNK):
        chunk = forward[c : c + FLUSH_CHUNK]
        t0 = time.perf_counter()
        dyn.apply_batch(chunk)
        elapsed = time.perf_counter() - t0
        out["flushes"].append((i, elapsed))
        out["attempted"] += 1
    if not checked(dyn, errors, "batched round"):
        out["failed"] += 1

    final = dyn.graph.snapshot()
    out["final_size"] = dyn.size
    out["dynamic"] = {key: int(dyn.stats[key]) for key in DYNAMIC_COUNTS}
    out["final_index_size"] = dyn.index_size
    solution = [sorted(c) for c in dyn.solution().cliques]
    try:
        verify_solution(final, K, solution)
        if not is_maximal(final, K, solution):
            out["failed"] += 1
            fail(errors, "final maintained solution is not maximal")
    except Exception as exc:  # noqa: BLE001 - an invalid solution fails the lifecycle
        out["failed"] += 1
        fail(errors, f"final maintained solution invalid: {exc}")

    for method, repeats in re_solves.items():
        out[f"solve_{method}"] = []
        for _ in range(repeats):
            quiesce()
            i = ref.sample()
            t0 = time.perf_counter()
            result = Session(final).solve(K, method)
            out[f"solve_{method}"].append((i, time.perf_counter() - t0))
            out[f"static_{method}_size"] = len(result)
            out["attempted"] += 1
    ref.sample()
    return out


def total(lives: list[dict], key: str) -> int:
    return sum(life[key] for life in lives)


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    pairs = plan_pairs(seconds)
    ref = RefClock()
    errors: list[str] = []
    tracer = Tracer() if trace else None
    patches = Patches()
    lives = []
    twins = []  # traced run: each instance also runs untraced, first
    try:
        for n in range(LIFECYCLES):
            instance = make_inputs(seed, n)
            if trace:
                # The twin only gives the untraced update time and the
                # counts to compare; the traced run reports no re-solves.
                twins.append(lifecycle(*instance, pairs, ref, None, errors, setups=1, re_solves={}))
                install_dynamic(tracer, patches)
                lives.append(lifecycle(*instance, pairs, ref, tracer, errors, re_solves={}))
            else:
                lives.append(lifecycle(*instance, pairs, ref, tracer, errors))
            patches.restore()
    finally:
        patches.restore()

    attempted = total(lives, "attempted")
    failed = total(lives, "failed")
    for n, twin in enumerate(twins):
        for key in ("initial", "dynamic", "final_size", "final_index_size"):
            if twin[key] != lives[n][key]:
                failed += 1
                fail(errors, f"traced lifecycle {n}: {key} differs from its untraced twin")
    counts = {
        "cliques_found": sum(life["final_size"] for life in lives),
        "initial_size": sum(len(life["initial"]) for life in lives),
        **{f"static_{m}_size": sum(life.get(f"static_{m}_size", 0) for life in lives) for m in RE_SOLVES},
        "dynamic.index_size": total(lives, "final_index_size"),
        **{f"dynamic.{key}": sum(life["dynamic"][key] for life in lives) for key in DYNAMIC_COUNTS},
        **{f"core.{key}": sum(life["core"][key] for life in lives) for key in lives[0]["core"]},
        "graph.orientations": sum(life["prep"]["orientations"] for life in lives),
        "graph.csr_builds": sum(life["prep"]["csr_builds"] for life in lives),
        "cliques.score_passes": sum(life["prep"]["score_passes"] for life in lives),
        "cliques.clique_listings": sum(life["prep"]["clique_listings"] for life in lives),
        "updates": sum(len(lat) for life in lives for _, lat in life["rounds"]),
        "solutions": [life["initial_digest"] for life in lives],
    }
    details = {
        "lifecycles": LIFECYCLES,
        "round_pairs_per_lifecycle": pairs,
        "graph": {"n": N, "m_attach": M_ATTACH, "triangle_p": TRIANGLE_P, "k": K},
        "updates_per_round": 2 * STREAM_COUNT,
        "ref_kernel": ref.summary(),
        "setup_raw_s": [t for life in lives for _, t in life["setup"]],
        "setup_scaled_s": [ref.scale(*s) for life in lives for s in life["setup"]],
    }

    if trace:
        values = {}
        # Self times per round pair, each chunk at its own reference speed.
        pair_rows = []
        for chunks in (pair for life in lives for pair in life["pairs"]):
            row: dict[str, float] = {}
            for i, totals in chunks:
                for span, t in totals.items():
                    row[span] = row.get(span, 0.0) + ref.scale(i, t)
            pair_rows.append(row)
        for span in ("dynamic.insert", "dynamic.delete", "dynamic.discover", "dynamic.swap",
                     "dynamic.local_enum"):
            values[f"{span}_s"] = median([row.get(span, 0.0) for row in pair_rows])
        values["dynamic.initial_solve_s"] = median([ref.scale(*s) for life in lives for s in life["solve_lp"]])
        values["dynamic.index_build_s"] = median([ref.scale(*s) for life in lives for s in life["index_build"]])
        values["dynamic.apply_batch_s"] = median([ref.scale(*f) for life in lives for f in life["flushes"]])
        values.update({k: v for k, v in counts.items() if k.startswith(("dynamic.", "core.", "graph.", "cliques."))})
        values["dynamic.swap_yield"] = ratio(counts["dynamic.swap_gain"], counts["dynamic.pops"])
        values["core.stale_pop_ratio"] = ratio(counts["core.stale_pops"], counts["core.heap_pops"])
        values["bench.ref_kernel_ms"] = ref.summary()["median_ms"]
        # Self times along the updates add up to the traced update time;
        # compare it with the untraced twins' update time.
        traced = sum(sum(row.values()) for row in pair_rows)
        base = sum(ref.scale(i, sum(lat)) for twin in twins for i, lat in twin["rounds"])
        values["trace.overhead_pct"] = 100.0 * (traced / base - 1.0)
        details["trace_overhead"] = {"traced_update_s": traced, "untraced_update_s": base,
                                     "round_pairs": len(pair_rows)}
        return Outcome(values, attempted, failed, errors, counts, details)

    def timing_metrics(seconds) -> dict:
        """The timed end-to-end metrics, with ``seconds(ref_index, raw)``
        converting each raw time (to reference speed, or not at all)."""
        per_life = [[seconds(i, t) * 1e3 for i, lat in life["rounds"] for t in lat] for life in lives]
        # A few costly repairs make up an instance's tail, and which few
        # differs between instances: the tail rule is applied per instance
        # and the geometric mean over instances reported (it uses every
        # instance; a median of eight would rest on two).
        tails = [common.tail(ms)[0] for ms in per_life]
        return {
            "setup_s": median([seconds(*s) for life in lives for s in life["setup"]]),
            "ops_per_s": sum(map(len, per_life)) / (sum(map(sum, per_life)) / 1e3),
            "op_p50_ms": median([t for ms in per_life for t in ms]),
            "op_tail_ms": math.exp(sum(map(math.log, tails)) / len(tails)),
            "solve_lp_s": median([seconds(*s) for life in lives for s in life["solve_lp"]]),
            **{f"solve_{m}_s": median([seconds(*s) for life in lives for s in life[f"solve_{m}"]])
               for m in RE_SOLVES},
            "flush_p50_ms": median([seconds(*f) * 1e3 for life in lives for f in life["flushes"]]),
        }

    peak_rss, rss_details = common.program_peak_rss_mb()
    values = {
        **timing_metrics(ref.scale),
        "cliques_found": counts["cliques_found"],
        "peak_rss_mb": peak_rss,
    }
    updates = counts["updates"]
    details.update({
        "samples": {"updates": updates, "flushes": sum(len(life["flushes"]) for life in lives),
                    "setups": SETUPS * len(lives), "re_solves": {m: n * len(lives) for m, n in RE_SOLVES.items()}},
        "tail": {"percentile": common.tail_rank(updates // len(lives)), "samples": updates // len(lives),
                 "instances": len(lives)},
        "raw": timing_metrics(lambda i, t: t),
        "rss": rss_details,
    })
    return Outcome(values, attempted, failed, errors, counts, details)
