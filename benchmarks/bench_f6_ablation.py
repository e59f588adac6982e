"""R-F6: ablation of MBET's techniques.

One benchmark per disabled or pinned technique on the yg stand-in.
Expected shape: full mbet (the reduced linear scan) is the fastest
column; the paper's always-trie store pays a Python-level step per trie
node, w/o-merge pays on repeated signatures, w/o-sort on branch ordering.
Full table: ``python -m repro experiments --run R-F6``.
"""

from __future__ import annotations

import pytest

from repro import datasets, run_mbe

VARIANTS = [
    ("full", {}),
    ("trie", {"use_trie": True}),
    ("no-merge", {"use_merge": False}),
    ("no-sort", {"use_sort": False}),
]


@pytest.mark.parametrize("label,flags", VARIANTS, ids=[v[0] for v in VARIANTS])
def bench_ablation(benchmark, run_once, label, flags):
    graph = datasets.load("yg")
    result = run_once(run_mbe, graph, "mbet", collect=False, **flags)
    assert result.count == datasets.spec("yg").approx_bicliques
    benchmark.extra_info["nodes"] = result.stats.nodes
    benchmark.extra_info["non_maximal"] = result.stats.non_maximal
