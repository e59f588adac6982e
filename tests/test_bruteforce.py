"""Tests for the brute-force oracle itself (the other tests trust it)."""

from __future__ import annotations

import pytest

from repro import BipartiteGraph, Biclique, run_mbe
from repro.core.bruteforce import BruteForceMBE


class TestBruteForceKnownAnswers:
    def test_single_edge(self):
        g = BipartiteGraph([(0, 0)])
        assert run_mbe(g, "bruteforce").biclique_set() == {
            Biclique.make([0], [0])
        }

    def test_path_of_length_two(self):
        # u0-v0, u0-v1: one maximal biclique ({u0}, {v0, v1})
        g = BipartiteGraph([(0, 0), (0, 1)])
        assert run_mbe(g, "bruteforce").biclique_set() == {
            Biclique.make([0], [0, 1])
        }

    def test_crossing_pair(self):
        # u0-v0, u1-v0, u0-v1: two maximal bicliques
        g = BipartiteGraph([(0, 0), (1, 0), (0, 1)])
        assert run_mbe(g, "bruteforce").biclique_set() == {
            Biclique.make([0, 1], [0]),
            Biclique.make([0], [0, 1]),
        }

    def test_complete_bipartite(self):
        g = BipartiteGraph([(u, v) for u in range(3) for v in range(3)])
        assert run_mbe(g, "bruteforce").biclique_set() == {
            Biclique.make(range(3), range(3))
        }

    def test_perfect_matching(self):
        # Disjoint edges: each edge is its own maximal biclique.
        g = BipartiteGraph([(i, i) for i in range(4)])
        assert run_mbe(g, "bruteforce").biclique_set() == {
            Biclique.make([i], [i]) for i in range(4)
        }

    def test_crown_graph(self):
        # Complete bipartite minus a perfect matching (K3,3 - M):
        # every maximal biclique pairs one side's vertex with the other
        # side's two non-matched vertices, plus the 2x2 combinations.
        n = 3
        g = BipartiteGraph(
            [(u, v) for u in range(n) for v in range(n) if u != v]
        )
        result = run_mbe(g, "bruteforce").biclique_set()
        expected = set()
        for u in range(n):
            expected.add(Biclique.make([u], [v for v in range(n) if v != u]))
            expected.add(Biclique.make([v for v in range(n) if v != u], [u]))
        assert result == expected

    def test_isolated_vertices_ignored(self):
        g = BipartiteGraph([(0, 0)], n_u=5, n_v=5)
        assert run_mbe(g, "bruteforce").count == 1


class TestBruteForceGuards:
    def test_side_cap_enforced(self):
        g = BipartiteGraph([(0, v) for v in range(30)])
        # orientation puts the size-1 side as V, so force it off
        with pytest.raises(ValueError, match="refuses"):
            BruteForceMBE(orient_smaller_v=False).run(g)

    def test_cap_can_be_raised(self):
        # one vertex past the default cap of 22; the cap reads |V| but only
        # vertices with an edge are enumerated, so one edge keeps it cheap
        g = BipartiteGraph([(0, 0)], n_u=1, n_v=23)
        with pytest.raises(ValueError, match="refuses"):
            BruteForceMBE(orient_smaller_v=False).run(g)
        result = BruteForceMBE(max_side=23, orient_smaller_v=False).run(
            g, collect=False
        )
        assert result.count == 1

    def test_orientation_avoids_cap(self):
        g = BipartiteGraph([(0, v) for v in range(30)])
        result = run_mbe(g, "bruteforce")  # orients to the size-1 side
        assert result.count == 1
