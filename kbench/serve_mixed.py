"""``serve-mixed``: one client in a closed loop against ``repro serve``.

The server runs as a subprocess (``python -m repro serve --workers 1``)
with a session pool capped below the number of tenants. Five small
tenant graphs are registered, plus a feed graph on which one feed is
opened. Each tick sends one compute request (lp/hg/gc solve, count or
bounds on a Zipf-distributed tenant) and, pipelined behind it, a
fixed-size ``feed_push``; the client waits for both replies before the
next tick. Every ``FLUSH_EVERY`` ticks, once both are answered, it sends
an explicit ``feed_flush`` and then a ``feed_solution`` read. The feed
policy has no age trigger, so only the size trigger and explicit
flushes apply batches.

The tick schedule is one *cycle* repeated, so request order, pool hits,
misses and evictions, and every flush are fixed by the seed. At most
two server threads are busy: the scheduler worker (compute) and the
transport thread (feed ops, inline). The cycles run over several server
lifecycles, each on its own seeded graphs. Set-up (server start, tenant
registration, feed open) is timed ``SETUPS`` times per lifecycle: the
first starts are shut down again right after set-up, the last one serves
the cycles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path

from kbench import common
from kbench.common import Outcome, RefClock, fail, median, quiesce
from kbench.layers import ratio

#: (n, m_attach) of each tenant; solves take 10-100 ms.
TENANTS = ((900, 8), (600, 8), (500, 14), (1200, 6), (800, 10))
POOL_SESSIONS = 3
ZIPF_S = 1.1
SCHEDULE_SEED = 20251
#: Compute request mix per cycle: (op, k, method) -> ticks per cycle.
MIX = ((("solve", 4, "lp"), 5), (("solve", 3, "lp"), 3), (("solve", 4, "hg"), 3),
       (("solve", 4, "gc"), 3), (("count", 4, None), 1), (("bounds", 4, None), 1))
CYCLE_TICKS = sum(weight for _, weight in MIX)
PUSH_SIZE = 60
FEED_MAX_UPDATES = 130
FLUSH_EVERY = 4
FEED_K = 4
#: The feed's own graph: clustered enough that a flush's repair work
#: varies by ~15% between seeded instances (a sparse tenant-sized graph
#: varies by ~30%).
FEED_GRAPH = (2000, 12, 0.7)
FEED_STREAM_COUNT = 800
LIFECYCLES = 5
#: Set-ups per lifecycle: 20 set-up samples a run.
SETUPS = 4
#: Nominal seconds of one cycle including kernels and checks.
CYCLE_NOMINAL_S = 0.62
#: Nominal seconds of one lifecycle's serving start-up, registration and
#: shutdown (the set-up-only starts come on top).
LIFECYCLE_FIXED_S = 1.2


def plan_cycles(seconds: float) -> int:
    """Cycles per lifecycle for a ``seconds`` budget."""
    per_life = seconds / LIFECYCLES - LIFECYCLE_FIXED_S
    return max(1, round(per_life / CYCLE_NOMINAL_S))


def base_schedule() -> list[tuple[int, str, int, str | None]]:
    """The cycle's requests: tenant counts follow a Zipf law, paired with
    the request mix in an order drawn once from ``SCHEDULE_SEED``.

    The schedule's composition is part of the workload, not of a seed: a
    seed rotates the cycle, which moves where the run starts in it but
    not the per-cycle pool hits and misses or which requests share a tick
    with a size flush, so seeds differ in graph instances rather than in
    how much cold or contended work a cycle holds.
    """
    import numpy as np

    weights = np.array([1.0 / (j + 1) ** ZIPF_S for j in range(len(TENANTS))])
    counts = np.floor(weights / weights.sum() * CYCLE_TICKS).astype(int)
    for j in np.argsort(-weights)[: CYCLE_TICKS - counts.sum()]:
        counts[j] += 1
    tenants = [j for j, count in enumerate(counts) for _ in range(count)]
    requests = [req for req, count in MIX for _ in range(count)]
    rng = np.random.default_rng(SCHEDULE_SEED)
    order = rng.permutation(CYCLE_TICKS)
    pairing = rng.permutation(CYCLE_TICKS)
    return [(tenants[pairing[i]], *requests[i]) for i in order]


def make_inputs(seed: int, lifecycle: int) -> dict:
    """Tenant graphs, feed stream and the rotated schedule of one lifecycle.

    Each lifecycle serves its own seeded tenant and feed graphs, so a run
    pools several instances rather than repeating one.
    """
    from repro.dynamic.workload import mixed_workload
    from repro.graph.generators import powerlaw_cluster

    base_seed = (seed * LIFECYCLES + lifecycle) * 7919
    graphs = [powerlaw_cluster(n, m, 0.5, seed=base_seed + 20 + j) for j, (n, m) in enumerate(TENANTS)]
    # Rotate by whole flush periods, so every request keeps its place
    # relative to the pushes that trigger size flushes beside it.
    shift = seed % (CYCLE_TICKS // FLUSH_EVERY) * FLUSH_EVERY
    base = base_schedule()
    schedule = base[shift:] + base[:shift]
    feed_graph = powerlaw_cluster(*FEED_GRAPH, seed=base_seed + 31)
    start, forward = mixed_workload(feed_graph, FEED_STREAM_COUNT, seed=base_seed + 32)
    inverse = [("delete" if op == "insert" else "insert", u, v) for op, u, v in reversed(forward)]
    return {"graphs": graphs, "schedule": schedule, "feed_start": start,
            "feed_stream": forward + inverse}


def expected_replies(graphs, schedule) -> dict:
    """What a direct ``Session`` gives for every distinct request."""
    from repro.analysis.bounds import optimum_upper_bounds
    from repro.core.session import Session

    out = {}
    for tenant, op, k, method in sorted(set(schedule), key=str):
        session = Session(graphs[tenant])
        if op == "solve":
            out[(tenant, op, k, method)] = [list(c) for c in session.solve(k, method).sorted_cliques()]
        elif op == "count":
            out[(tenant, op, k, method)] = session.prep.clique_count(k)
        else:
            bounds = optimum_upper_bounds(graphs[tenant], k, scores=session.prep.scores(k),
                                          total_cliques=session.prep.clique_count(k))
            out[(tenant, op, k, method)] = bounds.best
    return out


def predicted_pool(schedule, cycles: int) -> dict:
    """LRU replay of every ``SessionPool.get`` the server makes."""
    pool: OrderedDict[int, None] = OrderedDict()
    stats = {"hits": 0, "misses": 0, "evictions": 0}

    def get(tenant: int) -> None:
        if tenant in pool:
            pool.move_to_end(tenant)
            stats["hits"] += 1
            return
        stats["misses"] += 1
        pool[tenant] = None
        while len(pool) > POOL_SESSIONS:
            pool.popitem(last=False)
            stats["evictions"] += 1

    for tenant in range(len(TENANTS) + 1):
        get(tenant)  # register_graph, the feed's graph last
    get(len(TENANTS))  # feed_open
    for _ in range(cycles):
        for tenant, *_ in schedule:
            get(tenant)
    return stats


class ServerProcess:
    """The server subprocess and a line-oriented reader of its replies."""

    def __init__(self, root: Path, spans_out: Path | None) -> None:
        args = ["serve", "--workers", "1", "--pool-sessions", str(POOL_SESSIONS), "--quiet"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(root / "kbench" / "serve_boot.py"), str(spans_out), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        self._next_id = 0
        self.replies: dict[int, tuple[float, dict]] = {}

    def send(self, *messages: dict) -> list[int]:
        ids, lines = [], []
        for message in messages:
            self._next_id += 1
            ids.append(self._next_id)
            lines.append(json.dumps({"id": self._next_id, **message}, separators=(",", ":")))
        self.proc.stdin.write("\n".join(lines) + "\n")
        self.proc.stdin.flush()
        return ids

    def wait(self, *ids: int) -> None:
        """Read until every id in ``ids`` has its final reply (timed on arrival)."""
        while not all(i in self.replies for i in ids):
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server closed its output")
            envelope = json.loads(line)
            if "event" in envelope:
                continue
            self.replies[envelope["id"]] = (time.perf_counter(), envelope)

    def call(self, message: dict) -> dict:
        (i,) = self.send(message)
        self.wait(i)
        return self.replies.pop(i)[1]

    def close(self) -> None:
        """Shut down (or kill) and wait until the process has ended."""
        try:
            if self.proc.poll() is None:
                self.send({"op": "shutdown"})
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def compute_message(tenant: int, op: str, k: int, method: str | None) -> dict:
    message = {"op": op, "graph": f"t{tenant}", "k": k}
    if method is not None:
        message["method"] = method
    return message


def start_server(root: Path, registrations: list[dict], ref: RefClock,
                 spans_out: Path | None) -> tuple[ServerProcess, tuple[int, float]]:
    """Set-up: start the server, register the graphs and open the feed.

    Returns the server and ``(reference index, raw seconds)`` of the set-up.
    """
    quiesce()
    i = ref.sample()
    t0 = time.perf_counter()
    server = ServerProcess(root, spans_out)
    try:
        for message in registrations:
            reply = server.call(message)
            if not reply.get("ok"):
                raise RuntimeError(f"register_graph failed: {reply}")
        reply = server.call({"op": "feed_open", "graph": "feed", "k": FEED_K, "feed": "f0",
                             "policy": {"max_updates": FEED_MAX_UPDATES}})
        if not reply.get("ok"):
            raise RuntimeError(f"feed_open failed: {reply}")
        return server, (i, time.perf_counter() - t0)
    except BaseException:
        server.close()
        raise


def lifecycle(root: Path, inputs: dict, cycles: int, ref: RefClock,
              spans_out: Path | None, errors: list[str], setups: int = SETUPS) -> dict:
    from repro.core.result import is_maximal, verify_solution
    from repro.graph.dynamic import DynamicGraph

    graphs, schedule, stream = inputs["graphs"], inputs["schedule"], inputs["feed_stream"]
    expected = expected_replies(graphs, schedule)
    named = [(f"t{j}", g) for j, g in enumerate(graphs)] + [("feed", inputs["feed_start"])]
    registrations = [{"op": "register_graph", "name": name, "n": g.n,
                      "edges": [[int(u), int(v)] for u, v in g.edges()]} for name, g in named]
    replay = DynamicGraph(inputs["feed_start"].n, inputs["feed_start"].edges())
    out = {"flushes": [], "cycles": [], "attempted": 0, "failed": 0, "sizes": [], "setup": []}

    def bad(message: str) -> None:
        out["failed"] += 1
        fail(errors, message)

    for _ in range(setups - 1):
        server, setup = start_server(root, registrations, ref, None)
        server.close()
        out["setup"].append(setup)
    server, setup = start_server(root, registrations, ref, spans_out)
    out["setup"].append(setup)
    try:
        cursor = 0
        tick = 0
        for c in range(cycles):
            # ticks: (reference index, raw seconds, solve method or op)
            cycle = {"start": time.perf_counter(), "ticks": [], "size": 0}
            for tenant, op, k, method in schedule:
                tick += 1
                updates = [list(stream[(cursor + j) % len(stream)]) for j in range(PUSH_SIZE)]
                cursor += PUSH_SIZE
                compute = compute_message(tenant, op, k, method)
                push = {"op": "feed_push", "feed": "f0", "updates": updates}
                quiesce()
                i = ref.sample()
                t0 = time.perf_counter()
                cid, pid = server.send(compute, push)
                server.wait(cid, pid)
                done, reply = server.replies.pop(cid)
                _, push_reply = server.replies.pop(pid)
                cycle["ticks"].append((i, done - t0, method or op))
                out["attempted"] += 2
                if not reply.get("ok"):
                    bad(f"tick {tick} {op}: {reply.get('error')}")
                else:
                    want = expected[(tenant, op, k, method)]
                    result = reply["result"]
                    got = {"solve": result.get("cliques"), "count": result.get("count"),
                           "bounds": result.get("best")}[op]
                    if got != want:
                        bad(f"tick {tick} {op} t{tenant} k={k} {method}: differs from a direct Session")
                    if op == "solve":
                        cycle["size"] += result["size"]
                if not push_reply.get("ok"):
                    bad(f"tick {tick} feed_push: {push_reply.get('error')}")
                for op_, u, v in updates:
                    if op_ == "insert":
                        replay.insert_edge(u, v)
                    else:
                        replay.delete_edge(u, v)
                if tick % FLUSH_EVERY == 0:
                    quiesce()
                    i = ref.sample()
                    t0 = time.perf_counter()
                    (fid,) = server.send({"op": "feed_flush", "feed": "f0"})
                    server.wait(fid)
                    done, flush_reply = server.replies.pop(fid)
                    out["flushes"].append((i, done - t0))
                    solution = server.call({"op": "feed_solution", "feed": "f0"})
                    out["attempted"] += 2
                    if not flush_reply.get("ok") or not solution.get("ok"):
                        bad(f"tick {tick} flush/solution: {flush_reply.get('error') or solution.get('error')}")
                    else:
                        try:
                            verify_solution(replay, FEED_K, solution["result"]["cliques"])
                        except Exception as exc:  # noqa: BLE001 - an invalid feed solution fails
                            bad(f"tick {tick} feed solution invalid on the replayed graph: {exc}")
                        out["sizes"].append(solution["result"]["size"])
            cycle["end"] = time.perf_counter()
            out["cycles"].append(cycle)

        final = server.call({"op": "feed_solution", "feed": "f0"})
        out["attempted"] += 1
        if not final.get("ok"):
            bad(f"final feed_solution: {final.get('error')}")
        else:
            cliques = final["result"]["cliques"]
            try:
                verify_solution(replay, FEED_K, cliques)
                if not is_maximal(replay, FEED_K, cliques):
                    bad("final feed solution is not maximal on the replayed graph")
            except Exception as exc:  # noqa: BLE001
                bad(f"final feed solution invalid on the replayed graph: {exc}")
        stats = server.call({"op": "stats"})["result"]
        pool, sched = stats["pool"], stats["scheduler"]
        out["stats"] = {
            "serve.pool_hits": pool["hits"], "serve.pool_misses": pool["misses"],
            "serve.pool_evictions": pool["evictions"], "serve.preemptions": sched["preemptions"],
            "serve.shed": sched["shed_overload"] + sched["shed_deadline"],
            "serve.deadline_partials": sched["deadline_partials"],
            "feed.size_flushes": stats["feeds"]["f0"]["size_flushes"],
            "feed.flushes": stats["feeds"]["f0"]["flushes"],
        }
        out["peak_rss_mb"] = common.peak_rss_mb(server.proc.pid)
    finally:
        server.close()
    ref.sample()
    return out


def tick_medians(cycle_rows: list[dict], seconds) -> tuple[list[str], list[float]]:
    """Each tick's request kind and its median latency over the cycles.

    Tick p of every cycle is the same request; its median over the
    cycles is steady where a pooled median would jump between two
    requests' latencies.
    """
    kinds = [kind for _, _, kind in cycle_rows[0]["ticks"]]
    per_tick = [median([seconds(*cycle["ticks"][p][:2]) for cycle in cycle_rows])
                for p in range(len(kinds))]
    return kinds, per_tick


def compute_path(rows, cycles: list[dict], ref: RefClock, ref_index: int) -> list[float]:
    """Per cycle: self time on the scheduler worker (the thread that runs
    ``serve.solve`` during the cycles; ``feed_open`` solves on the
    transport thread during set-up) plus queue waits."""
    first, last = cycles[0]["start"], cycles[-1]["end"]
    workers = {thread for name, start, _, _, thread in rows
               if name == "serve.solve" and first <= start < last}
    out = []
    for cycle in cycles:
        total = sum(self_time for name, start, _, self_time, thread in rows
                    if cycle["start"] <= start < cycle["end"]
                    and (thread in workers or name == "serve.queue_wait"))
        out.append(ref.scale(ref_index, total))
    return out


def span_rows(path: Path) -> list[tuple[str, float, float, float, int]]:
    return [tuple(row) for row in json.loads(path.read_text(encoding="utf-8"))]


def cycle_layers(rows, cycles: list[dict], ref: RefClock, ref_index: int) -> list[dict[str, float]]:
    """Per-cycle sums of server-side self time, attributed by start time."""
    from kbench.layers import SPAN_METRICS

    out = []
    for cycle in cycles:
        sums: dict[str, float] = {}
        for name, start, _, self_time, _ in rows:
            if cycle["start"] <= start < cycle["end"]:
                metric = SPAN_METRICS[name]
                value = self_time * 1e3 if metric.endswith("_ms") else self_time
                sums[metric] = sums.get(metric, 0.0) + value
        out.append({k: ref.scale(ref_index, v) for k, v in sums.items()})
    return out


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    cycles = plan_cycles(seconds)
    ref = RefClock()
    errors: list[str] = []
    lives = []
    twins = []  # traced run: each instance also served untraced, first
    span_dir = Path(tempfile.mkdtemp(prefix=".kbench_spans_", dir=root)) if trace else None
    try:
        for n in range(LIFECYCLES):
            inputs = make_inputs(seed, n)
            if trace:
                # The traced run reports no set-up time: one set-up each.
                twins.append(lifecycle(root, inputs, cycles, ref, None, errors, setups=1))
            spans_out = span_dir / f"life{n}.json" if trace else None
            life = lifecycle(root, inputs, cycles, ref, spans_out, errors, setups=1 if trace else SETUPS)
            if trace:
                rows = span_rows(spans_out)
                index = len(ref.samples) - 1
                life["layers"] = cycle_layers(rows, life["cycles"], ref, index)
                life["fingerprint_s"] = [ref.scale(index, r[3]) for r in rows if r[0] == "graph.fingerprint"]
                life["compute_path_s"] = compute_path(rows, life["cycles"], ref, index)
            lives.append(life)
    finally:
        if span_dir is not None:
            for path in span_dir.iterdir():
                path.unlink()
            span_dir.rmdir()

    attempted = sum(life["attempted"] for life in lives)
    failed = sum(life["failed"] for life in lives)
    predicted = predicted_pool(inputs["schedule"], cycles)  # the schedule is shared
    for n, life in enumerate(lives):
        got = {key: life["stats"][f"serve.pool_{key}"] for key in predicted}
        if got != predicted:
            failed += 1
            fail(errors, f"lifecycle {n}: pool {got} != LRU replay {predicted}")
        if life["stats"] != lives[0]["stats"]:
            failed += 1
            fail(errors, f"lifecycle {n}: server counters differ from lifecycle 0")
        for c, cycle in enumerate(life["cycles"]):
            if cycle["size"] != life["cycles"][0]["size"]:
                failed += 1
                fail(errors, f"lifecycle {n} cycle {c}: served |S| {cycle['size']} differs")
    for key in ("serve.shed", "serve.deadline_partials"):
        if lives[0]["stats"][key]:
            failed += lives[0]["stats"][key]
            fail(errors, f"{key} = {lives[0]['stats'][key]}")
    for n, twin in enumerate(twins):
        if (twin["stats"], twin["sizes"]) != (lives[n]["stats"], lives[n]["sizes"]):
            failed += 1
            fail(errors, f"traced lifecycle {n} differs from its untraced twin")
    counts = {**lives[0]["stats"], "cliques_found": sum(life["cycles"][0]["size"] for life in lives),
              "feed_sizes": [life["sizes"][:8] for life in lives]}
    details = {
        "lifecycles": LIFECYCLES,
        "cycles_per_lifecycle": cycles,
        "ticks_per_cycle": CYCLE_TICKS,
        "tenants": [{"n": n, "m_attach": m} for n, m in TENANTS],
        "ref_kernel": ref.summary(),
        "setup_raw_s": [t for life in lives for _, t in life["setup"]],
        "setup_scaled_s": [ref.scale(*s) for life in lives for s in life["setup"]],
    }
    cycle_rows = [cycle for life in lives for cycle in life["cycles"]]

    if trace:
        values: dict[str, float] = {}
        layer_rows = [row for life in lives for row in life["layers"]]
        for metric in sorted({m for row in layer_rows for m in row}):
            values[metric] = median([row.get(metric, 0.0) for row in layer_rows])
        values["graph.fingerprint_s"] = median([t for life in lives for t in life["fingerprint_s"]])
        stats = lives[0]["stats"]
        values.update({k: v for k, v in stats.items() if k.startswith("serve.")})
        values["serve.pool_hit_ratio"] = ratio(stats["serve.pool_hits"],
                                               stats["serve.pool_hits"] + stats["serve.pool_misses"])
        values["bench.ref_kernel_ms"] = ref.summary()["median_ms"]
        traced = sum(tick_medians(cycle_rows, ref.scale)[1])
        base = sum(tick_medians([c for twin in twins for c in twin["cycles"]], ref.scale)[1])
        values["trace.overhead_pct"] = 100.0 * (traced / base - 1.0)
        # The worker thread's self times plus queue waits, per cycle: the
        # part of the client-side compute latency the server accounts for.
        details["trace_overhead"] = {
            "traced_cycle_compute_s": traced, "untraced_cycle_compute_s": base,
            "server_compute_path_cycle_s": median([t for life in lives for t in life["compute_path_s"]]),
        }
        return Outcome(values, attempted, failed, errors, counts, details)

    def timing_metrics(seconds) -> dict:
        """The timed end-to-end metrics, with ``seconds(ref_index, raw)``
        converting each raw time (to reference speed, or not at all)."""
        compute = [seconds(i, t) * 1e3 for cycle in cycle_rows for i, t, _ in cycle["ticks"]]
        kinds, per_tick = tick_medians(cycle_rows, seconds)
        return {
            "setup_s": median([seconds(*s) for life in lives for s in life["setup"]]),
            "ops_per_s": len(compute) / (sum(compute) / 1e3),
            "op_p50_ms": median(per_tick) * 1e3,
            "op_tail_ms": common.tail(compute)[0],
            **{f"solve_{m}_s": sum(t for t, kind in zip(per_tick, kinds) if kind == m)
               for m in ("lp", "hg", "gc")},
            "flush_p50_ms": median([seconds(*f) * 1e3 for life in lives for f in life["flushes"]]),
        }

    values = {
        **timing_metrics(ref.scale),
        "cliques_found": counts["cliques_found"],
        "peak_rss_mb": median([life["peak_rss_mb"] for life in lives]),
    }
    ticks = sum(len(cycle["ticks"]) for cycle in cycle_rows)
    details.update({
        "samples": {"compute": ticks, "flushes": sum(len(life["flushes"]) for life in lives),
                    "cycles": len(cycle_rows), "setups": sum(len(life["setup"]) for life in lives)},
        "tail": {"percentile": common.tail_rank(ticks), "samples": ticks},
        "raw": timing_metrics(lambda i, t: t),
    })
    return Outcome(values, attempted, failed, errors, counts, details)
