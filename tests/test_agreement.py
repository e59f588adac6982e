"""The central correctness property: every algorithm equals brute force.

Hypothesis drives random bipartite graphs through all exact algorithms and
the parallel driver; any duplicate, missing, or non-maximal biclique fails
the property.  This is the test that caught every algorithmic bug during
development — treat it as the specification.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import run_mbe, verify_result
from tests.conftest import EXACT_ALGORITHMS
from tests.strategies import bipartite_graphs

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("algo", EXACT_ALGORITHMS)
@RELAXED
@given(g=bipartite_graphs())
def test_algorithm_matches_bruteforce(algo, g):
    truth = run_mbe(g, "bruteforce").biclique_set()
    result = run_mbe(g, algo)
    assert result.biclique_set() == truth
    assert result.count == len(truth)


@RELAXED
@given(g=bipartite_graphs())
def test_all_results_verify_against_definition(g):
    truth = run_mbe(g, "bruteforce").biclique_set()
    verify_result(g, truth, expected=truth)


@RELAXED
@given(g=bipartite_graphs())
def test_parallel_split_matches_bruteforce(g):
    truth = run_mbe(g, "bruteforce").biclique_set()
    got = run_mbe(
        g, "parallel", workers=1, bound_height=1, bound_size=1
    ).biclique_set()
    assert got == truth


@RELAXED
@given(g=bipartite_graphs())
def test_orientation_invariance(g):
    # Swapping sides then orienting back must not change the result.
    plain = run_mbe(g, "mbet").biclique_set()
    swapped = run_mbe(g.swap_sides(), "mbet").biclique_set()
    assert {b.swap() for b in swapped} == plain


@RELAXED
@given(g=bipartite_graphs())
def test_order_invariance_of_result_set(g):
    base = run_mbe(g, "mbet", order="degree").biclique_set()
    for order in ("natural", "degree_desc", "unilateral", "random"):
        assert run_mbe(g, "mbet", order=order).biclique_set() == base


@RELAXED
@given(g=bipartite_graphs())
def test_tiny_trie_budget_invariance(g):
    base = run_mbe(g, "mbet").biclique_set()
    assert run_mbe(g, "mbetm", max_nodes=2, use_trie=True).biclique_set() == base


@RELAXED
@given(g=bipartite_graphs(max_u=10, max_v=10))
def test_counts_agree_across_all_algorithms(g):
    counts = {
        algo: run_mbe(g, algo, collect=False).count for algo in EXACT_ALGORITHMS
    }
    assert len(set(counts.values())) == 1, counts
