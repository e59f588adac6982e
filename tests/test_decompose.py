"""Tests for the first-level subproblem decomposition."""

from __future__ import annotations

from hypothesis import given

from repro import BipartiteGraph
from repro.bigraph.ordering import rank_of, vertex_order
from repro.core.decompose import build_subproblem, iter_subproblems
from tests.strategies import bipartite_graphs


class TestBuildSubproblem:
    def test_isolated_vertex_skipped(self):
        g = BipartiteGraph([(0, 0)], n_u=2, n_v=2)
        rank = rank_of(vertex_order(g, "natural"))
        assert build_subproblem(g, 1, rank) is None

    def test_root_right_side_is_closure(self, g0):
        rank = rank_of(vertex_order(g0, "natural"))
        sub = build_subproblem(g0, 0, rank)  # v0, N(v0) = {u0, u1}
        assert sub is not None
        assert sub.space.universe == (0, 1)
        # v1 and v2 also cover {u0, u1}, so the closed right side is full
        assert sub.right == [0, 1, 2]

    def test_containment_pruning(self, g0):
        # In natural order, v1's universe {u0..u3} is covered by nobody,
        # but v2 ({u0,u1,u3}) is... not covered by v1 (N(v1) ⊇ N(v2)!) —
        # v1 covers N(v2), and rank(v1) < rank(v2), so v2 is pruned.
        rank = rank_of(vertex_order(g0, "natural"))
        assert build_subproblem(g0, 2, rank) is None

    def test_candidates_outrank_root(self, g0):
        order = vertex_order(g0, "natural")
        rank = rank_of(order)
        sub = build_subproblem(g0, 1, rank)
        assert sub is not None
        for w, _sig in sub.cands:
            assert rank[w] > rank[1]

    def test_traversed_are_earlier_two_hops(self, g0):
        rank = rank_of(vertex_order(g0, "natural"))
        sub = build_subproblem(g0, 3, rank)
        assert sub is not None
        # v3's 2-hop = {v0? no... v1, v2} share u1/u3; all earlier-ranked.
        assert sub.cands == []
        assert len(sub.traversed) >= 1

    def test_signatures_encode_local_neighbourhoods(self, g0):
        rank = rank_of(vertex_order(g0, "natural"))
        sub = build_subproblem(g0, 1, rank)
        assert sub is not None
        space = sub.space
        for w, sig in sub.cands:
            expected = space.encode(g0.neighbors_v(w))
            assert sig == expected
            assert 0 < sig < space.full_mask


class TestIterSubproblems:
    def test_every_maximal_biclique_has_exactly_one_home(self, g0):
        # The union of subproblem roots' right sides, keyed by the root
        # biclique, covers each maximal biclique root exactly once.
        seen = set()
        for sub in iter_subproblems(g0, "natural"):
            key = (sub.space.universe, tuple(sub.right))
            assert key not in seen
            seen.add(key)
        assert len(seen) >= 1

    @given(bipartite_graphs())
    def test_subproblem_invariants(self, g):
        for strategy in ("natural", "degree"):
            rank = rank_of(vertex_order(g, strategy))
            for sub in iter_subproblems(g, strategy):
                v = sub.root_v
                assert g.degree_v(v) > 0
                assert sub.space.universe == g.neighbors_v(v)
                assert v in sub.right
                # right side = closure: every member covers the universe
                for w in sub.right:
                    assert set(sub.space.universe) <= set(g.neighbors_v(w))
                # v is the minimum-rank member of the closed right side
                assert min(sub.right, key=lambda w: rank[w]) == v
                # candidates: later-ranked, partial cover
                for w, sig in sub.cands:
                    assert rank[w] > rank[v]
                    assert 0 < sig < sub.space.full_mask

    @given(bipartite_graphs(max_u=6, max_v=6))
    def test_root_count_matches_enumeration(self, g):
        # Number of non-pruned subproblems == number of *distinct* closed
        # right sides == number of maximal bicliques whose left side is a
        # full neighbourhood N(v).  Cross-check against brute force.
        from repro import run_mbe

        roots = {
            (sub.space.universe, tuple(sub.right))
            for sub in iter_subproblems(g, "degree")
        }
        truth = run_mbe(g, "bruteforce").biclique_set()
        root_bicliques = {(b.left, b.right) for b in truth
                          if any(b.left == g.neighbors_v(v) for v in b.right)}
        assert roots == root_bicliques
