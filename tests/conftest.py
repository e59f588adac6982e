"""Shared fixtures and helpers for the test suite.

``g0`` is the worked example graph of this paper lineage (Fig. 1 of the
set-enumeration exposition): |U| = 5, |V| = 4, six maximal bicliques.  The
``random_bigraph`` helper and the hypothesis strategies in
``tests/strategies.py`` generate the adversarial small graphs the agreement
properties run on.
"""

from __future__ import annotations

import random

import pytest

from repro import BipartiteGraph, Biclique
from repro.check.engines import UnreducedMBET
from repro.core.mbet import MBET, _TrieQ

#: All registered exact algorithms that must agree with brute force.
EXACT_ALGORITHMS = (
    "naive", "mbea", "imbea", "pmbe", "oombea", "mbet", "mbetm"
)


def make_g0() -> BipartiteGraph:
    """The literature's running example G0 (0-indexed)."""
    edges = [
        (0, 0), (1, 0),                    # v0: {u0, u1}
        (0, 1), (1, 1), (2, 1), (3, 1),    # v1: {u0, u1, u2, u3}
        (0, 2), (1, 2), (3, 2),            # v2: {u0, u1, u3}
        (1, 3), (3, 3), (4, 3),            # v3: {u1, u3, u4}
    ]
    return BipartiteGraph(edges, n_u=5, n_v=4)


def nested_chain(n: int) -> BipartiteGraph:
    """V vertex ``v`` sees U ids ``v..n-1``: one maximal biclique per
    level, and an enumeration path ``n`` levels deep."""
    edges = [(u, v) for v in range(n) for u in range(v, n)]
    return BipartiteGraph(edges, n_u=n, n_v=n)


#: The six maximal bicliques of G0, as enumerated in the exposition.
G0_MAXIMAL = frozenset(
    {
        Biclique.make([0, 1], [0, 1, 2]),
        Biclique.make([1], [0, 1, 2, 3]),
        Biclique.make([0, 1, 2, 3], [1]),
        Biclique.make([0, 1, 3], [1, 2]),
        Biclique.make([1, 3], [1, 2, 3]),
        Biclique.make([1, 3, 4], [3]),
    }
)


@pytest.fixture
def g0() -> BipartiteGraph:
    return make_g0()


def random_bigraph(
    rng: random.Random, max_side: int = 8, p: float | None = None
) -> BipartiteGraph:
    """A uniform random bipartite graph small enough for brute force."""
    n_u = rng.randint(1, max_side)
    n_v = rng.randint(1, max_side)
    prob = p if p is not None else rng.choice([0.15, 0.3, 0.5, 0.7])
    edges = [
        (u, v) for u in range(n_u) for v in range(n_v) if rng.random() < prob
    ]
    return BipartiteGraph(edges, n_u=n_u, n_v=n_v)


class CountingStore:
    """Traversed-set store proxy that counts queries and |Q| at every
    query, independently of the store's own counters, and what the store
    folds into ``checks``.  ``q0`` is the initial set the engine asked to
    load; ``loaded`` how many signatures the store actually holds for it.
    """

    def __init__(self, inner, q0):
        self.inner = inner
        self.q0 = q0
        if isinstance(inner, _TrieQ):
            self.loaded = inner.trie.n_sets + inner.n_overflow
        else:
            self.loaded = len(inner.masks)
        self.size = self.loaded
        self.queries = 0
        self.summed_q = 0
        self.checks = 0

    def insert(self, mask):
        self.size += 1
        return self.inner.insert(mask)

    def remove(self, token):
        self.size -= 1
        self.inner.remove(token)

    def has_superset(self, query):
        self.queries += 1
        self.summed_q += self.size
        return self.inner.has_superset(query)

    def fold_into(self, stats):
        before = stats.checks
        self.inner.fold_into(stats)
        self.checks = stats.checks - before


class _Counting:
    """Engine mixin wrapping every store it builds in a CountingStore."""

    def __init__(self, **options):
        super().__init__(**options)
        self.stores: list[CountingStore] = []

    def _make_store(self, traversed):
        traversed = list(traversed)
        store = CountingStore(super()._make_store(traversed), traversed)
        self.stores.append(store)
        return store


class CountingMBET(_Counting, MBET):
    pass


class CountingUnreducedMBET(_Counting, UnreducedMBET):
    pass
