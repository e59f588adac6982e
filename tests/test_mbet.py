"""Tests specific to MBET (flags, stats, trie behaviour)."""

from __future__ import annotations

import random

import pytest

from repro import random_bipartite, run_mbe
from repro.core.base import EnumerationStats
from repro.core.decompose import iter_subproblems
from repro.core.mbet import MBET, _ListQ, _TrieQ, maximal_masks
from tests.conftest import (
    G0_MAXIMAL,
    CountingMBET,
    CountingUnreducedMBET,
    nested_chain,
    random_bigraph,
)


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
        assert algo.use_trie is False  # the reduced linear scan
        assert algo.use_merge and algo.use_sort
        assert algo.trie_max_nodes is None

    def test_name_registered(self):
        assert MBET.name == "mbet"


def _mixed_graph():
    return random_bipartite(30, 18, 0.3, seed=11)


class TestAdaptiveStore:
    """The store choice: the reduced scan by default, the trie pinned."""

    def test_pinned_stores_ignore_the_threshold(self):
        # no Q0 size switches the store
        q0 = [0b11, 0b01] * 2500
        assert isinstance(MBET(use_trie=True)._make_store([]), _TrieQ)
        assert isinstance(MBET()._make_store(q0), _ListQ)
        assert isinstance(MBET(use_trie=False)._make_store(q0), _ListQ)
        # an options dict written before the scan became the default
        assert MBET(use_trie=None).use_trie is False

    @pytest.mark.parametrize("engine", ["mbet", "mbetm"])
    def test_mixed_stores_stay_exact(self, engine):
        g = _mixed_graph()
        truth = run_mbe(g, "bruteforce").biclique_set()
        for flag in (True, False, None):
            assert run_mbe(g, engine, use_trie=flag).biclique_set() == truth

    @pytest.mark.parametrize("use_trie", [True, False, None])
    def test_checks_plus_pruned_is_summed_q(self, use_trie):
        algo = CountingMBET(use_trie=use_trie)
        stats = algo.run(_mixed_graph(), collect=False).stats
        summed_q = sum(s.summed_q for s in algo.stores)
        # a trie store whose descents visited more nodes than a scan
        # touches prunes nothing; its extra visits stay in checks
        overshoot = sum(max(0, s.checks - s.summed_q) for s in algo.stores)
        assert summed_q > 0
        assert stats.checks == sum(s.checks for s in algo.stores)
        assert stats.checks + stats.trie_pruned == summed_q + overshoot
        if use_trie:
            assert stats.trie_pruned > 0
        else:
            assert stats.checks == summed_q and stats.trie_pruned == 0

    def test_summed_q_is_store_independent(self):
        # the search asks the same queries whichever store answers them;
        # every store that loads the whole Q0 holds the same |Q| at each,
        # and the reduced scan holds fewer
        runs = [
            CountingMBET(use_trie=True), CountingUnreducedMBET(), CountingMBET()
        ]
        for algo in runs:
            algo.run(_mixed_graph(), collect=False)
        queries = {sum(s.queries for s in algo.stores) for algo in runs}
        trie, unreduced, reduced = (
            sum(s.summed_q for s in algo.stores) for algo in runs
        )
        assert len(queries) == 1
        assert trie == unreduced > reduced > 0

    def test_trie_fold_counts_node_visits(self):
        store = _TrieQ(max_nodes=None)
        for mask in (0b0111, 0b1110, 0b1011):
            store.insert(mask)
        store.has_superset(0b0110)
        stats = EnumerationStats()
        store.fold_into(stats)
        assert stats.checks == store.trie.node_visits
        assert stats.checks + stats.trie_pruned == max(stats.checks, 3)


def _assert_reduced(loaded, q0):
    """``loaded`` is an antichain of distinct Q0 masks covering all of Q0."""
    assert len(set(loaded)) == len(loaded)
    assert set(loaded) <= set(q0)
    for a in loaded:
        assert not any(b != a and b & a == a for b in loaded)
    for mask in q0:
        assert any(k & mask == mask for k in loaded)


class TestReducedStore:
    def test_maximal_masks_is_a_covering_antichain(self):
        rng = random.Random(5)
        for _ in range(200):
            masks = [rng.getrandbits(6) for _ in range(rng.randint(0, 30))]
            _assert_reduced(maximal_masks(masks), masks)

    def test_maximal_masks_are_widest_first(self):
        kept = maximal_masks([0b0001, 0b0111, 0b1000, 0b0011, 0b0111])
        assert kept == [0b0111, 0b1000]

    def test_whole_root_store_holds_reduced_q0(self):
        g = _mixed_graph()
        for use_trie in (False, True):
            algo = CountingMBET(use_trie=use_trie)
            subs = list(iter_subproblems(g, algo.order))
            for sub in subs:
                algo._run_subproblem(sub, lambda *_: None, EnumerationStats())
            assert len(algo.stores) == len(subs)
            assert any(len(set(s.q0)) < len(s.q0) for s in algo.stores)
            for sub, store in zip(subs, algo.stores):
                assert store.q0 == sub.traversed
                if use_trie:
                    # the paper's MBET keeps the whole Q0, duplicates too
                    assert store.loaded == len(sub.traversed)
                else:
                    _assert_reduced(store.inner.masks, sub.traversed)

    def test_sliced_root_store_holds_reduced_q0_and_earlier_groups(self):
        g = _mixed_graph()
        algo = CountingMBET()
        n_parts, sliced = 3, 0
        for sub in iter_subproblems(g, algo.order):
            groups = algo._group(
                [(mask, (w,)) for w, mask in sub.cands], EnumerationStats()
            )
            for part in range(n_parts):
                before = len(algo.stores)
                algo._run_subproblem(
                    sub, lambda *_: None, EnumerationStats(), part, n_parts
                )
                if len(algo.stores) == before:
                    continue  # an empty slice builds no store
                lo = part * len(groups) // n_parts
                q0 = sub.traversed + [mask for mask, _ in groups[:lo]]
                store = algo.stores[-1]
                assert store.q0 == q0
                _assert_reduced(store.inner.masks, q0)
                sliced += lo > 0
        assert sliced > 0
