"""Tests for DAG orientation."""

import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Graph
from repro.graph.dag import OrientedGraph
from repro.graph.generators import powerlaw_cluster


class TestOrientation:
    def test_out_neighbours_have_smaller_rank(self, random_graphs):
        for g in random_graphs:
            dag = OrientedGraph.orient(g, "degeneracy")
            for u in g.nodes():
                for v in dag.out[u]:
                    assert dag.rank[v] < dag.rank[u]

    def test_every_edge_oriented_once(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        total = sum(len(s) for s in dag.out)
        assert total == paper_graph.m

    def test_id_order_matches_paper_example(self, paper_graph):
        # Fig. 4(a): under the id ordering, out-neighbours of v6 (node 5)
        # are v1, v3, v5 (nodes 0, 2, 4).
        dag = OrientedGraph.orient(paper_graph, "id")
        assert dag.out[5] == {0, 2, 4}
        # Only v6, v7, v8, v9 have >= 2 out-neighbours (paper Example 2).
        eligible = {u for u in paper_graph.nodes() if dag.out_degree(u) >= 2}
        assert eligible == {5, 6, 7, 8}

    def test_nodes_ascending(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        assert dag.nodes_ascending() == list(range(9))
        rank = np.array([3, 1, 2, 0, 4, 5, 6, 7, 8])
        dag2 = OrientedGraph(paper_graph, rank)
        assert dag2.nodes_ascending()[:4] == [3, 1, 2, 0]

    def test_root_of(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        assert dag.root_of([0, 2, 5]) == 5

    def test_max_out_degree_empty(self):
        dag = OrientedGraph.orient(Graph(0), "id")
        assert dag.max_out_degree() == 0
        assert dag.n == 0


def _reference_out(graph, rank):
    """The eager comprehension the lazy out-sets replaced."""
    return [
        {v for v in graph.neighbors(u) if rank[v] < rank[u]}
        for u in range(graph.n)
    ]


_ORDERS = ("id", "degree", "degeneracy")


def _read_memo(dag, name, start, results, i):
    """Thread body: wait for the others, then read one lazy memo."""
    start.wait()
    results[i] = dag.out if name == "out" else dag.csr()


@st.composite
def _graphs(draw):
    """Random simple graphs, including n=0, n=1 and isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=120)) if pairs else []
    return Graph(n, edges)


class TestLazyOutSets:
    @settings(max_examples=60, deadline=None)
    @given(graph=_graphs(), order=st.sampled_from(_ORDERS))
    def test_sets_equal_reference_comprehension(self, graph, order):
        dag = OrientedGraph.orient(graph, order)
        expected = _reference_out(graph, dag.rank)
        assert dag.out_sets() == expected
        assert dag.out == expected
        for sets in (dag.out, dag.out_sets()):
            assert all(type(v) is int for s in sets for v in s)

    @pytest.mark.parametrize("order", _ORDERS)
    def test_edge_cases(self, order):
        for graph in (Graph(0), Graph(1), Graph(5, [(0, 1)]), Graph(4)):
            dag = OrientedGraph.orient(graph, order)
            assert dag.out_sets() == _reference_out(graph, dag.rank)
            assert dag.out == _reference_out(graph, dag.rank)
            assert dag.max_out_degree() == max(
                (len(s) for s in dag.out), default=0
            )

    def test_cached_out_keeps_the_reference_iteration_order(self):
        # The "sets" listing yields cliques in set-iteration order, so
        # the cached sets must iterate exactly like the reference ones.
        graph = powerlaw_cluster(300, 5, 0.5, seed=3)
        for order in _ORDERS:
            dag = OrientedGraph.orient(graph, order)
            expected = _reference_out(graph, dag.rank)
            assert [list(s) for s in dag.out] == [list(s) for s in expected]

    def test_nothing_materialised_up_front(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "degeneracy")
        assert not dag.has_out and not dag.has_csr
        dag.out_sets()
        assert not dag.has_out and not dag.has_csr
        assert dag.out_degree(5) == len(_reference_out(paper_graph, dag.rank)[5])
        dag.max_out_degree()
        assert not dag.has_out
        dag.out
        assert dag.has_out

    def test_out_sets_are_fresh_copies(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        first = dag.out_sets()
        first[5].clear()
        assert dag.out_sets()[5] == {0, 2, 4}
        assert dag.out[5] == {0, 2, 4}
        assert dag.out_sets() is not dag.out

    def test_out_degrees_match_sets(self, random_graphs):
        for g in random_graphs:
            dag = OrientedGraph.orient(g, "degree")
            assert [dag.out_degree(u) for u in g.nodes()] == [len(s) for s in dag.out]
            assert dag.max_out_degree() == max(len(s) for s in dag.out)

    def test_nodes_ascending_builtin_ints(self, paper_graph):
        order = OrientedGraph.orient(paper_graph, "degree").nodes_ascending()
        assert all(type(u) is int for u in order)

    def test_out_and_csr_race_without_deadlock(self):
        # ``out`` and ``csr()`` share one non-reentrant lock; a build
        # that nested them would hang here, so joins carry a timeout.
        # More threads than cores and a short switch interval make the
        # interleavings dense; every reader must get the one memo.
        graph = powerlaw_cluster(1500, 5, 0.5, seed=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # The first round reads ``out`` before any CSR exists.
            for names in (["out"] * 2, ["out", "csr"] * 3, ["csr", "out"] * 3):
                dag = OrientedGraph.orient(graph, "degeneracy")
                start = threading.Barrier(len(names))
                results: list[object] = [None] * len(names)
                threads = [
                    threading.Thread(
                        target=_read_memo,
                        args=(dag, name, start, results, i),
                        daemon=True,
                    )
                    for i, name in enumerate(names)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads), "out/csr deadlocked"
                for name, got in zip(names, results):
                    assert got is (dag.out if name == "out" else dag.csr())
                assert dag.out == _reference_out(graph, dag.rank)
        finally:
            sys.setswitchinterval(interval)
