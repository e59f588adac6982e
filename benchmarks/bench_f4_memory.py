"""R-F4: peak memory per run, and MBETM's bounded trie footprint.

Times the run and attaches tracemalloc peak + trie size as ``extra_info``
(the figure's y-axis).  Expected shape: mbetm's trie peak is capped by its
budget at a small runtime premium; total peak allocation stays flat.
Full table: ``python -m repro experiments --run R-F4``.
"""

from __future__ import annotations

import pytest

from repro import datasets
from repro.bench.runner import measure_peak_memory

CONFIGS = [
    ("imbea", {}),
    ("mbet", {}),
    ("mbetm-4096", {"max_nodes": 4096, "use_trie": True}),
    ("mbetm-256", {"max_nodes": 256, "use_trie": True}),
]


@pytest.mark.parametrize("label,opts", CONFIGS, ids=[c[0] for c in CONFIGS])
def bench_memory(benchmark, run_once, label, opts):
    graph = datasets.load("mti")
    algo = label.split("-")[0]
    peak, result = run_once(measure_peak_memory, graph, algo, **opts)
    benchmark.extra_info["peak_kib"] = round(peak / 1024)
    benchmark.extra_info["trie_peak_nodes"] = result.stats.trie_peak_nodes
    benchmark.extra_info["trie_overflow"] = result.stats.trie_overflow
    if "max_nodes" in opts:
        assert result.stats.trie_peak_nodes <= opts["max_nodes"]
