"""R-F7: MBETM prefix-tree budget sensitivity.

Sweeps the node budget on the yg stand-in.  Expected shape: overflowed
inserts shrink to zero as the budget grows, runtime approaches plain mbet,
and the trie peak never exceeds the budget.
Full sweep: ``python -m repro experiments --run R-F7``.
"""

from __future__ import annotations

import pytest

from repro import datasets, run_mbe

BUDGETS = (64, 1024, 16384)


@pytest.mark.parametrize("budget", BUDGETS)
def bench_budget(benchmark, run_once, budget):
    graph = datasets.load("yg")
    result = run_once(
        run_mbe, graph, "mbetm", collect=False, max_nodes=budget, use_trie=True
    )
    assert result.count == datasets.spec("yg").approx_bicliques
    assert result.stats.trie_peak_nodes <= budget
    benchmark.extra_info["trie_peak_nodes"] = result.stats.trie_peak_nodes
    benchmark.extra_info["overflowed"] = result.stats.trie_overflow
