"""Tests for the clique graph (Definition 2) and Theorem 2 bounds."""

import numpy as np
import pytest

from repro.cliques import build_clique_graph, listing, node_scores
from repro.core.scores import (
    clique_key,
    clique_score,
    degree_bounds,
    sort_by_clique_key,
)
from repro.errors import InvalidParameterError
from repro.graph.generators import erdos_renyi_gnp
from tests.conftest import PAPER_TRIANGLES


class TestPaperFig3:
    def test_clique_graph_structure(self, paper_graph):
        cg = build_clique_graph(paper_graph, 3)
        assert cg.num_cliques == 7
        index = {frozenset(c): i for i, c in enumerate(cg.cliques)}
        c1 = index[PAPER_TRIANGLES[0]]  # (v1, v3, v6)
        c2 = index[PAPER_TRIANGLES[1]]  # (v3, v5, v6)
        # Fig. 3 / Example 3: C1 is adjacent to exactly C2 and C3.
        assert cg.graph.has_edge(c1, c2)
        assert cg.degree_of(c1) == 2

    def test_edges_iff_overlap(self, paper_graph):
        cg = build_clique_graph(paper_graph, 3)
        for i, a in enumerate(cg.cliques):
            for j in range(i + 1, cg.num_cliques):
                b = cg.cliques[j]
                overlap = bool(set(a) & set(b))
                assert cg.graph.has_edge(i, j) == overlap

    def test_memory_cap(self, paper_graph):
        with pytest.raises(MemoryError):
            build_clique_graph(paper_graph, 3, max_cliques=3)


class TestTheorem2:
    @pytest.mark.parametrize("k", [3, 4])
    def test_bounds_hold_on_random_graphs(self, random_graphs, k):
        for g in random_graphs:
            cg = build_clique_graph(g, k)
            if not cg.num_cliques:
                continue
            scores = node_scores(g, k)
            for i, clique in enumerate(cg.cliques):
                lo, hi = degree_bounds(clique, scores, k)
                deg = cg.degree_of(i)
                assert lo <= deg <= hi, (clique, lo, deg, hi)

    def test_bounds_paper_example(self, paper_graph):
        scores = node_scores(paper_graph, 3)
        # C3 = (v5, v6, v8): score 9 -> bounds (9-3)/2=3 and 9-3=6; the
        # true degree in Fig. 3 is at least 3 (C2, C4, C5 overlap it).
        lo, hi = degree_bounds([4, 5, 7], scores, 3)
        assert lo == 3.0 and hi == 6

    def test_isolated_clique_bounds(self, triangle_pair):
        scores = node_scores(triangle_pair, 3)
        lo, hi = degree_bounds([0, 1, 2], scores, 3)
        assert lo == 0.0 and hi == 0


class TestCliqueKey:
    def test_key_orders_by_score_then_nodes(self):
        scores = [1, 2, 3, 4]
        low = clique_key([0, 1, 2], scores)
        high = clique_key([1, 2, 3], scores)
        assert low < high
        assert clique_key([0, 1, 2], scores) == (6, (0, 1, 2))

    def test_score_sum(self, paper_graph):
        scores = node_scores(paper_graph, 3)
        for clique in PAPER_TRIANGLES:
            assert clique_score(clique, scores) == sum(scores[u] for u in clique)


class TestSortByCliqueKey:
    @staticmethod
    def reference(cliques, scores):
        return sorted(cliques, key=lambda c: clique_key(c, scores))

    def test_empty(self):
        assert sort_by_clique_key([], np.zeros(3, dtype=np.int64)) == []

    def test_matches_python_sort_on_listings(self):
        g = erdos_renyi_gnp(40, 0.4, seed=3)
        for k in (3, 4):
            scores = node_scores(g, k)
            cliques = [tuple(sorted(c)) for c in listing.list_cliques(g, k)]
            got = sort_by_clique_key(cliques, scores)
            want = self.reference(cliques, scores)
            assert got == want
            assert all(a is b for a, b in zip(got, want))

    def test_unsorted_members_and_ties(self):
        scores = [5, 1, 1, 1, 2, 0]
        cliques = [(4, 2, 1), (3, 2, 1), (0, 5, 1), (2, 1, 3), (5, 3, 4)]
        got = sort_by_clique_key(cliques, scores)
        assert got == self.reference(cliques, scores)
        # (3, 2, 1) and (2, 1, 3) share a key; the stable sort keeps input order.
        assert got.index((3, 2, 1)) < got.index((2, 1, 3))

    def test_duplicates_keep_input_order(self):
        scores = np.array([1, 1, 1, 1], dtype=np.int64)
        first, second = (0, 1, 2), (2, 1, 0)
        cliques = [(1, 2, 3), first, (0, 1, 3), second, first]
        got = sort_by_clique_key(cliques, scores)
        assert got == self.reference(cliques, scores)
        assert [c for c in got if sorted(c) == [0, 1, 2]] == [first, second, first]

    def test_frozensets_accepted(self):
        scores = [3, 1, 2, 1]
        cliques = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 3})]
        assert sort_by_clique_key(cliques, scores) == self.reference(cliques, scores)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            sort_by_clique_key([(0, 1, 2), (0, 1)], [1, 1, 1])
