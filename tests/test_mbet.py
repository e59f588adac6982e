"""Tests specific to MBET (flags, stats, trie behaviour)."""

from __future__ import annotations

import random

import pytest

from repro import random_bipartite, run_mbe
from repro.core import mbet as mbet_module
from repro.core.base import EnumerationStats
from repro.core.mbet import MBET, TRIE_MIN_TRAVERSED, _ListQ, _TrieQ
from tests.conftest import G0_MAXIMAL, nested_chain, random_bigraph


class TestFeatureFlags:
    @pytest.mark.parametrize("flags", [
        {"use_trie": False},
        {"use_merge": False},
        {"use_sort": False},
        {"use_trie": False, "use_merge": False, "use_sort": False},
    ])
    def test_ablations_stay_exact(self, g0, flags):
        assert run_mbe(g0, "mbet", **flags).biclique_set() == G0_MAXIMAL

    @pytest.mark.parametrize("flags", [
        {},
        {"use_trie": False},
        {"use_merge": False},
        {"use_sort": False},
    ])
    def test_ablations_agree_on_random_graphs(self, flags):
        rng = random.Random(42)
        for _ in range(60):
            g = random_bigraph(rng)
            truth = run_mbe(g, "bruteforce").biclique_set()
            assert run_mbe(g, "mbet", **flags).biclique_set() == truth

    @pytest.mark.parametrize("order", ["natural", "degree", "degree_desc",
                                       "unilateral", "two_hop", "random"])
    def test_every_order_is_exact(self, g0, order):
        assert run_mbe(g0, "mbet", order=order).biclique_set() == G0_MAXIMAL


class TestStatsAccounting:
    def test_subtrees_counted(self, g0):
        result = run_mbe(g0, "mbet", order="natural")
        # G0 in natural order has pruned subtrees (v2 contained in v1).
        assert 0 < result.stats.subtrees <= g0.n_v

    def test_merging_reported_on_merged_graph(self):
        # v1 and v2 have identical neighbourhoods {u0, u1}; as candidates
        # in v0's subtree they share a signature and must merge.
        from repro import BipartiteGraph

        g = BipartiteGraph(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        )
        result = run_mbe(g, "mbet", order="natural")
        assert result.stats.merged_candidates >= 1
        assert result.count == 2  # full graph x v0, {u0,u1} x {v0,v1,v2}

    def test_trie_peak_positive_when_used(self, g0):
        result = run_mbe(g0, "mbet", order="natural", use_trie=True)
        assert result.stats.trie_peak_nodes >= 1

    def test_no_trie_stats_when_disabled(self, g0):
        result = run_mbe(g0, "mbet", use_trie=False)
        assert result.stats.trie_peak_nodes == 0
        assert result.stats.trie_pruned == 0

    def test_maximal_equals_count(self, g0):
        result = run_mbe(g0, "mbet")
        assert result.stats.maximal == result.count == 6


class TestTrieQStore:
    def test_insert_query_remove(self):
        store = _TrieQ(max_nodes=None)
        token = store.insert(0b110)
        assert store.has_superset(0b100)
        store.remove(token)
        assert not store.has_superset(0b100)

    def test_overflow_path(self):
        store = _TrieQ(max_nodes=2)
        t1 = store.insert(0b1)  # fits (root + 1 node)
        t2 = store.insert(0b111)  # rejected -> overflow
        assert t1[1] and not t2[1]
        assert store.has_superset(0b101)  # found via overflow scan
        store.remove(t2)
        assert not store.has_superset(0b101)

    def test_overflow_multiplicity(self):
        store = _TrieQ(max_nodes=1)
        t1 = store.insert(0b11)
        t2 = store.insert(0b11)
        store.remove(t1)
        assert store.has_superset(0b11)
        store.remove(t2)
        assert not store.has_superset(0b11)


class TestListQStore:
    def test_lifo_tokens(self):
        store = _ListQ()
        t1 = store.insert(0b1)
        t2 = store.insert(0b10)
        assert store.has_superset(0b10)
        store.remove(t2)
        store.remove(t1)
        assert store.masks == []

    def test_scan_counter(self):
        store = _ListQ()
        store.insert(0b1)
        store.insert(0b10)
        store.has_superset(0b1)
        assert store.checks == 2


class TestDeepChain:
    def test_deep_chain_restores_recursion_limit(self):
        # the recursive search runs 400 levels deep; run() raises the
        # interpreter's limit for the run and puts it back afterwards
        import sys

        limit = sys.getrecursionlimit()
        result = run_mbe(nested_chain(400), "mbet", collect=False,
                         order="natural")
        assert sys.getrecursionlimit() == limit
        assert result.count == 400


class TestMBETConstruction:
    def test_default_flags(self):
        algo = MBET()
        assert algo.use_trie is None  # adaptive: store chosen per subproblem
        assert algo.use_merge and algo.use_sort
        assert algo.trie_max_nodes is None

    def test_name_registered(self):
        assert MBET.name == "mbet"


class _CountingStore:
    """Store proxy that counts |Q| at every query, independently of the
    store's own counters, and what the store folds into ``checks``."""

    def __init__(self, inner):
        self.inner = inner
        self.size = 0
        self.summed_q = 0
        self.checks = 0

    def insert(self, mask):
        self.size += 1
        return self.inner.insert(mask)

    def remove(self, token):
        self.size -= 1
        self.inner.remove(token)

    def has_superset(self, query):
        self.summed_q += self.size
        return self.inner.has_superset(query)

    def fold_into(self, stats):
        before = stats.checks
        self.inner.fold_into(stats)
        self.checks = stats.checks - before


class _CountingMBET(MBET):
    def __init__(self, **options):
        super().__init__(**options)
        self.stores: list[_CountingStore] = []

    def _make_store(self, n_traversed):
        store = _CountingStore(super()._make_store(n_traversed))
        self.stores.append(store)
        return store


def _mixed_graph():
    return random_bipartite(30, 18, 0.3, seed=11)


class TestAdaptiveStore:
    def test_threshold_boundary(self):
        algo = MBET()
        assert isinstance(algo._make_store(TRIE_MIN_TRAVERSED - 1), _ListQ)
        assert isinstance(algo._make_store(TRIE_MIN_TRAVERSED), _TrieQ)

    def test_pinned_stores_ignore_the_threshold(self):
        assert isinstance(MBET(use_trie=True)._make_store(0), _TrieQ)
        assert isinstance(
            MBET(use_trie=False)._make_store(10 * TRIE_MIN_TRAVERSED), _ListQ
        )

    @pytest.mark.parametrize("engine", ["mbet", "mbetm"])
    def test_mixed_stores_stay_exact(self, monkeypatch, engine):
        g = _mixed_graph()
        truth = run_mbe(g, "bruteforce").biclique_set()
        pinned = [
            run_mbe(g, engine, use_trie=flag).biclique_set()
            for flag in (True, False)
        ]
        assert pinned == [truth, truth]
        monkeypatch.setattr(mbet_module, "TRIE_MIN_TRAVERSED", 6)
        assert run_mbe(g, engine).biclique_set() == truth

    def test_low_threshold_mixes_stores_in_one_run(self, monkeypatch):
        monkeypatch.setattr(mbet_module, "TRIE_MIN_TRAVERSED", 6)
        algo = _CountingMBET()
        algo.run(_mixed_graph(), collect=False)
        assert {type(s.inner) for s in algo.stores} == {_ListQ, _TrieQ}

    @pytest.mark.parametrize("use_trie", [True, False, None])
    def test_checks_plus_pruned_is_summed_q(self, monkeypatch, use_trie):
        # under None the low threshold makes one run mix both stores
        monkeypatch.setattr(mbet_module, "TRIE_MIN_TRAVERSED", 6)
        algo = _CountingMBET(use_trie=use_trie)
        stats = algo.run(_mixed_graph(), collect=False).stats
        summed_q = sum(s.summed_q for s in algo.stores)
        # a trie store whose descents visited more nodes than a scan
        # touches prunes nothing; its extra visits stay in checks
        overshoot = sum(max(0, s.checks - s.summed_q) for s in algo.stores)
        assert summed_q > 0
        assert stats.checks == sum(s.checks for s in algo.stores)
        assert stats.checks + stats.trie_pruned == summed_q + overshoot
        if use_trie is False:
            assert stats.checks == summed_q and stats.trie_pruned == 0
        if use_trie is not False:
            assert stats.trie_pruned > 0

    def test_summed_q_is_store_independent(self):
        # the search is the same whichever store answers it
        totals = set()
        for flag in (True, False, None):
            algo = _CountingMBET(use_trie=flag)
            algo.run(_mixed_graph(), collect=False)
            totals.add(sum(s.summed_q for s in algo.stores))
        assert len(totals) == 1

    def test_trie_fold_counts_node_visits(self):
        store = _TrieQ(max_nodes=None)
        for mask in (0b0111, 0b1110, 0b1011):
            store.insert(mask)
        store.has_superset(0b0110)
        stats = EnumerationStats()
        store.fold_into(stats)
        assert stats.checks == store.trie.node_visits
        assert stats.checks + stats.trie_pruned == max(stats.checks, 3)
