"""Shared-incumbent parallel branch-and-bound (paper tag ``OPT-BB``).

The classic parallel maximum-clique recipe of Rossi & Gleich
(arXiv:1302.6256) applied to the disjoint k-clique search: the
first-level branches of the B&B tree are split into strided subtree
tasks, every worker prunes against a **shared best-so-far incumbent
size** (a ``multiprocessing.Value`` broadcast), and tasks are
distributed dynamically — an executor queue with ~4 tasks per worker,
so early big subtrees do not serialise the run (work stealing of
subtree frames).

Solution identity: the sequential engine returns the lexicographically
smallest maximum-size index sequence — a branch containing the
lex-first optimum is never pruned before the incumbent reaches optimal
size (its bound covers the completion). Workers prune with
``prune_floor = shared_size - 1`` (ties survive), start each task with
an *empty* local incumbent, and report their slice's first optimum;
the parent merges by (max size, then lexicographically smallest
indices). The merged result is therefore **bit-identical** to the
sequential solve for any worker count. Stats are not pinned: pruning
work depends on broadcast timing, so ``nodes_expanded`` varies across
runs (the extra ``subtree_tasks`` / ``incumbent_broadcasts`` counters
record the fan-out shape).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.cliques.counting import node_scores
from repro.cliques.listing import iter_cliques
from repro.core.exact_bb import ExactBBEngine
from repro.core.result import CliqueSetResult
from repro.core.scores import sort_by_clique_key
from repro.parallel import worker
from repro.parallel.context import resolve_context
from repro.parallel.shared_csr import SharedCSR

#: Subtree tasks per worker: enough queue depth that the executor's
#: dynamic dispatch balances uneven subtrees, small enough that
#: per-task reset/IPC overhead stays negligible.
TASKS_PER_WORKER = 4


def parallel_exact_bb(
    graph: Graph | None,
    k: int,
    *,
    workers: int,
    max_cliques: int | None = None,
    scores: np.ndarray | None = None,
    cliques: Sequence[tuple[int, ...]] | None = None,
    start_method: str = "auto",
    tasks_per_worker: int = TASKS_PER_WORKER,
    sync_every: int = 256,
) -> CliqueSetResult:
    """A maximum disjoint k-clique set by process-parallel B&B.

    Parameters mirror :func:`repro.core.exact_bb.exact_optimum_bb`
    (``graph`` may be ``None`` when both ``scores`` and ``cliques`` are
    precomputed, e.g. from a session cache); ``workers`` processes
    search strided subtree slices against a shared incumbent-size
    broadcast, synchronising every ``sync_every`` ticks. The returned
    solution is identical to the sequential solver's for any worker
    count; ``workers=1`` (or trivially small instances) runs the
    sequential engine inline with the same extended stats layout.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if graph is None and (scores is None or cliques is None):
        raise InvalidParameterError(
            "graph may only be omitted when both scores and cliques are "
            "precomputed"
        )
    if scores is None:
        assert graph is not None
        scores = node_scores(graph, k)
    if cliques is None:
        assert graph is not None
        collected: list[tuple[int, ...]] = []
        for clique in iter_cliques(graph, k):
            if max_cliques is not None and len(collected) >= max_cliques:
                raise OutOfMemoryError(
                    f"exact B&B exceeded its clique budget of {max_cliques}"
                )
            collected.append(tuple(sorted(clique)))
        cliques = collected
    elif max_cliques is not None and len(cliques) > max_cliques:
        raise OutOfMemoryError(
            f"exact B&B exceeded its clique budget of {max_cliques}"
        )
    # The same canonical order the engine constructor establishes; the
    # workers' stable re-sort over the shared array reproduces it.
    ordered = sort_by_clique_key(cliques, scores)

    total = len(ordered)
    tasks = min(total, max(1, workers) * max(1, tasks_per_worker))
    if workers == 1 or tasks <= 1:
        engine = ExactBBEngine(None, k, scores=scores, cliques=ordered)
        while not engine.finished:
            engine.tick()
        best = list(engine.best)
        ticks = engine.ticks
        broadcasts = 0
        tasks = 1 if total else 0
    else:
        best, ticks, broadcasts = _fan_out(
            ordered, scores, k, workers, tasks, sync_every, start_method
        )
    return CliqueSetResult(
        [frozenset(ordered[i]) for i in best],
        k=k,
        method="opt-bb",
        stats={
            "cliques_stored": float(total),
            "nodes_expanded": float(ticks),
            "subtree_tasks": float(tasks),
            "incumbent_broadcasts": float(broadcasts),
        },
    )


def _fan_out(
    ordered: list[tuple[int, ...]],
    scores: np.ndarray,
    k: int,
    workers: int,
    tasks: int,
    sync_every: int,
    start_method: str,
) -> tuple[list[int], int, int]:
    """Run the strided subtree tasks; return (best indices, ticks, broadcasts)."""
    ctx = resolve_context(start_method)
    incumbent = ctx.Value("q", 0)
    flat = np.asarray(ordered, dtype=np.int64).reshape(len(ordered), k)
    handle = SharedCSR.create(
        {"cliques": flat, "scores": np.ascontiguousarray(scores, dtype=np.int64)}
    )
    try:
        descriptor = handle.descriptor()
        with ProcessPoolExecutor(
            max_workers=min(workers, tasks),
            mp_context=ctx,
            initializer=worker.init_bb,
            initargs=(descriptor, k, incumbent),
        ) as pool:
            futures = [
                pool.submit(
                    worker.bb_span,
                    {"offset": t, "stride": tasks, "sync_every": sync_every},
                )
                for t in range(tasks)
            ]
            parts = [future.result() for future in futures]
    finally:
        handle.close()
        handle.unlink()
    best: list[int] = []
    ticks = 0
    broadcasts = 0
    for part in parts:
        indices = [int(i) for i in part["indices"]]
        ticks += int(part["ticks"])
        broadcasts += int(part["broadcasts"])
        if len(indices) > len(best) or (
            len(indices) == len(best) and indices < best
        ):
            best = indices
    return best, ticks, broadcasts
