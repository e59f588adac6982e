"""Mid-size randomized cross-checks — beyond brute force's reach.

Brute force caps the agreement properties at ~8 vertices per side.  These
tests cross-validate the algorithms against *each other* on graphs two
orders of magnitude larger, where different bugs (index arithmetic in the
decomposition, trie removal under deep backtracking, slice boundaries in
the parallel driver) would surface.  Counts, per-dataset, must agree to
the last biclique across every implementation.
"""

from __future__ import annotations

import pytest

from repro import (
    planted_bicliques,
    powerlaw_bipartite,
    run_mbe,
    run_mbe_per_component,
)

GRAPHS = {
    "powerlaw-mid": powerlaw_bipartite(800, 300, 3000, 2.0, seed=41),
    "planted-mid": planted_bicliques(400, 200, 90, (2, 6), (2, 6), 500, seed=42),
    "hubs": powerlaw_bipartite(300, 120, 2500, 1.7, seed=43),
}


@pytest.fixture(scope="module")
def reference_counts():
    return {name: run_mbe(g, "mbet", collect=False).count
            for name, g in GRAPHS.items()}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("algo", ["imbea", "pmbe", "oombea", "mbetm"])
def test_counts_agree_at_scale(name, algo, reference_counts):
    result = run_mbe(GRAPHS[name], algo, collect=False)
    assert result.count == reference_counts[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_parallel_split_at_scale(name, reference_counts):
    result = run_mbe(
        GRAPHS[name], "parallel", workers=2, bound_height=4, bound_size=64,
        collect=False,
    )
    assert result.count == reference_counts[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_tiny_trie_budget_at_scale(name, reference_counts):
    result = run_mbe(
        GRAPHS[name], "mbetm", max_nodes=8, use_trie=True, collect=False
    )
    assert result.count == reference_counts[name]
    assert result.stats.trie_peak_nodes <= 8


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_component_split_at_scale(name, reference_counts):
    bicliques, _per = run_mbe_per_component(GRAPHS[name], "mbet")
    assert len(bicliques) == reference_counts[name]
    assert len(set(bicliques)) == len(bicliques)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_collected_results_are_duplicate_free(name, reference_counts):
    result = run_mbe(GRAPHS[name], "mbet")
    assert len(result.biclique_set()) == reference_counts[name]


def test_constrained_equals_filter_at_scale(reference_counts):
    g = GRAPHS["planted-mid"]
    full = run_mbe(g, "mbet").bicliques
    want = {b for b in full if len(b.left) >= 3 and len(b.right) >= 3}
    got = run_mbe(g, "mbet", min_left=3, min_right=3).biclique_set()
    assert got == want


def test_orders_agree_at_scale(reference_counts):
    g = GRAPHS["hubs"]
    expected = reference_counts["hubs"]
    for order in ("natural", "degree_desc", "unilateral", "degeneracy"):
        assert run_mbe(g, "mbet", order=order, collect=False).count == expected
