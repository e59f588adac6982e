"""Tests for dataset statistics."""

from __future__ import annotations

import random

from repro import BipartiteGraph, compute_stats, random_bipartite
from repro.bigraph.stats import (
    max_degree_u,
    max_degree_v,
    max_two_hop_u,
    max_two_hop_v,
)


class TestDegreeStats:
    def test_g0_degrees(self, g0):
        assert max_degree_u(g0) == 4  # u1 touches all four v's
        assert max_degree_v(g0) == 4  # v1 touches u0..u3

    def test_g0_two_hop(self, g0):
        assert max_two_hop_u(g0) == 4  # u1 reaches every other u
        assert max_two_hop_v(g0) == 3  # v1 reaches the other three v's

    def test_empty_graph(self):
        g = BipartiteGraph([])
        st = compute_stats(g)
        assert st.n_edges == 0
        assert st.max_degree_u == 0
        assert st.max_two_hop_v == 0
        assert st.density == 0.0

    def test_isolated_vertices_dont_crash(self):
        g = BipartiteGraph([(0, 0)], n_u=3, n_v=3)
        st = compute_stats(g)
        assert st.max_degree_u == 1
        assert st.max_two_hop_u == 0  # nobody shares a neighbour

    def test_two_hop_maxima_match_every_vertex_scan(self):
        # the wedge bound stops the scan early; it must never stop it
        # before the true maximum
        rng = random.Random(3)
        for _ in range(300):
            n_u, n_v, p = rng.randint(1, 15), rng.randint(1, 15), rng.random()
            g = random_bipartite(n_u, n_v, p, seed=rng.randrange(10**6))
            assert max_two_hop_u(g) == max(
                len(g.two_hop_u(u)) for u in range(g.n_u))
            assert max_two_hop_v(g) == max(
                len(g.two_hop_v(v)) for v in range(g.n_v))


class TestComputeStats:
    def test_full_row(self, g0):
        st = compute_stats(g0)
        assert (st.n_u, st.n_v, st.n_edges) == (5, 4, 12)
        assert st.density == 12 / 20

    def test_as_row_keys(self, g0):
        row = compute_stats(g0).as_row()
        assert set(row) == {
            "n_u", "n_v", "n_edges", "max_degree_u", "max_degree_v",
            "max_two_hop_u", "max_two_hop_v", "density",
        }

    def test_stats_frozen(self, g0):
        st = compute_stats(g0)
        try:
            st.n_u = 99
            assert False, "GraphStats should be frozen"
        except AttributeError:
            pass

    def test_symmetry_under_swap(self, g0):
        st = compute_stats(g0)
        sw = compute_stats(g0.swap_sides())
        assert st.max_degree_u == sw.max_degree_v
        assert st.max_two_hop_u == sw.max_two_hop_v
        assert st.density == sw.density

    def test_complete_bipartite(self):
        g = BipartiteGraph([(u, v) for u in range(3) for v in range(4)])
        st = compute_stats(g)
        assert st.max_degree_u == 4
        assert st.max_degree_v == 3
        assert st.max_two_hop_u == 2
        assert st.max_two_hop_v == 3
        assert st.density == 1.0
