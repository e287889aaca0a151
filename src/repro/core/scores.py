"""Node scores, clique scores and the Theorem 2 degree bounds.

Definition 5: ``s_n(u)`` = number of k-cliques containing ``u``.
Definition 6: ``s_c(C) = sum_{u in C} s_n(u)``.
Theorem 2:   ``(s_c(C) - k) / (k - 1) <= deg_Gc(C) <= s_c(C) - k``.

The clique score is the paper's cheap surrogate for a clique's degree in
the (never materialised) clique graph; ascending-score processing mimics
min-degree greedy MIS there.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, Sequence, TypeVar

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.ordering import OrderSpec
from repro.cliques.counting import node_scores
from repro.graph.graph import Graph

CliqueKey = tuple[int, tuple[int, ...]]
CliqueT = TypeVar("CliqueT", bound=Collection[int])


def clique_score(clique: Iterable[int], scores: Sequence[int]) -> int:
    """``s_c(C)``: total node score over the clique's members."""
    return int(sum(scores[u] for u in clique))


def clique_key(clique: Iterable[int], scores: Sequence[int]) -> CliqueKey:
    """Deterministic total order on cliques: ``(score, sorted nodes)``.

    Theorem 4 requires *some* fixed total clique ordering for Algorithm 2
    and Algorithm 3 to coincide; this is the one used across the package.
    """
    members = tuple(sorted(clique))
    return (clique_score(members, scores), members)


def sort_by_clique_key(
    cliques: Sequence[CliqueT], scores: Sequence[int] | np.ndarray
) -> list[CliqueT]:
    """``cliques`` stably sorted by :func:`clique_key`, in one numpy pass.

    Same order as ``sorted(cliques, key=lambda c: clique_key(c, scores))``
    (the input objects are returned, not copies), without a per-member
    numpy scalar index: the members go into a ``(C, k)`` int64 array,
    each row is sorted, the row scores are summed from ``scores`` and a
    stable ``np.lexsort`` orders by (score, sorted members). Every clique
    must have the same size.
    """
    if not len(cliques):
        return []
    k = len(cliques[0])
    if any(len(c) != k for c in cliques):
        raise InvalidParameterError("cliques must all have the same size")
    members = np.fromiter(
        chain.from_iterable(cliques), dtype=np.int64, count=len(cliques) * k
    ).reshape(len(cliques), k)
    members.sort(axis=1)
    totals = np.asarray(scores, dtype=np.int64)[members].sum(axis=1)
    order = np.lexsort((*members.T[::-1], totals))
    return [cliques[i] for i in order.tolist()]


def degree_bounds(clique: Iterable[int], scores: Sequence[int], k: int) -> tuple[float, int]:
    """Theorem 2's (lower, upper) bounds on the clique-graph degree."""
    s = clique_score(clique, scores)
    return ((s - k) / (k - 1), s - k)


def compute_scores(
    graph: Graph, k: int, order: OrderSpec = "degeneracy"
) -> np.ndarray:
    """Per-node k-clique counts (re-export of :func:`node_scores`)."""
    return node_scores(graph, k, order)
