"""Tests for MBETM: budgets and progressive enumeration."""

from __future__ import annotations

import random

import pytest

from repro import Biclique, run_mbe
from repro.core.mbetm import DEFAULT_BUDGET, MBETM
from tests.conftest import G0_MAXIMAL, random_bigraph


class TestBudgetedEnumeration:
    def test_exact_under_default_budget(self, g0):
        assert run_mbe(g0, "mbetm").biclique_set() == G0_MAXIMAL

    @pytest.mark.parametrize("budget", [1, 2, 4, 16, 256])
    def test_exact_under_tiny_budgets(self, budget):
        # Correctness must not depend on the budget: overflowed inserts
        # fall back to linear scans, never to wrong answers.
        rng = random.Random(9)
        from repro import run_mbe as run

        for _ in range(40):
            g = random_bigraph(rng)
            truth = run(g, "bruteforce").biclique_set()
            got = run(g, "mbetm", max_nodes=budget, use_trie=True)
            assert got.biclique_set() == truth

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MBETM(max_nodes=0)

    def test_budget_property(self):
        assert MBETM(max_nodes=123).max_nodes == 123
        assert MBETM().max_nodes == DEFAULT_BUDGET

    def test_trie_peak_respects_budget(self):
        from repro import planted_bicliques

        g = planted_bicliques(200, 120, 80, (2, 6), (2, 6), 300, seed=4)
        budget = 64
        result = run_mbe(
            g, "mbetm", max_nodes=budget, use_trie=True, collect=False
        )
        assert 0 < result.stats.trie_peak_nodes <= budget

    def test_small_budget_overflows_more(self):
        from repro import planted_bicliques

        g = planted_bicliques(200, 120, 80, (2, 6), (2, 6), 300, seed=4)
        tight = run_mbe(g, "mbetm", max_nodes=32, use_trie=True, collect=False)
        roomy = run_mbe(
            g, "mbetm", max_nodes=1 << 16, use_trie=True, collect=False
        )
        assert tight.stats.trie_overflow > roomy.stats.trie_overflow
        assert tight.count == roomy.count


class TestProgressive:
    def test_yields_all_bicliques_with_timestamps(self, g0):
        algo = MBETM()
        out = list(algo.iter_bicliques(g0))
        assert {b for _, b in out} == G0_MAXIMAL
        stamps = [t for t, _ in out]
        assert stamps == sorted(stamps)
        assert all(t >= 0 for t in stamps)

    def test_yields_biclique_objects(self, g0):
        algo = MBETM()
        _, first = next(iter(algo.iter_bicliques(g0)))
        assert isinstance(first, Biclique)

    def test_early_stop_is_cheap(self):
        from repro import planted_bicliques

        g = planted_bicliques(300, 200, 120, (2, 6), (2, 6), 400, seed=6)
        gen = MBETM().iter_bicliques(g)
        got = [next(gen) for _ in range(10)]
        assert len(got) == 10
        gen.close()  # generator can be abandoned mid-run

    def test_orientation_swaps_back(self, g0):
        swapped_graph = g0.swap_sides()
        algo = MBETM(orient_smaller_v=True)
        out = {b for _, b in algo.iter_bicliques(swapped_graph)}
        assert out == {b.swap() for b in G0_MAXIMAL}

    def test_matches_batch_run(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_bigraph(rng)
            batch = run_mbe(g, "mbetm").biclique_set()
            progressive = {b for _, b in MBETM().iter_bicliques(g)}
            assert progressive == batch

    def test_progressive_respects_size_constraints(self):
        rng = random.Random(14)
        for _ in range(15):
            g = random_bigraph(rng)
            want = run_mbe(g, "mbetm", min_left=2, min_right=2).biclique_set()
            algo = MBETM(min_left=2, min_right=2)
            got = {b for _, b in algo.iter_bicliques(g)}
            assert got == want
