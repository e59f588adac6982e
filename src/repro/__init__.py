"""repro — maximal biclique enumeration with a prefix-tree based approach.

A from-scratch reproduction of the ICDE 2024 paper *"Maximal Biclique
Enumeration: A Prefix Tree Based Approach"* (MBET) and the baselines it is
evaluated against, on a pure-Python bipartite-graph substrate.  See
DESIGN.md for the system inventory and EXPERIMENTS.md for the reproduced
evaluation.

Quickstart
----------
>>> from repro import BipartiteGraph, run_mbe
>>> g = BipartiteGraph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
>>> result = run_mbe(g, algorithm="mbet")
>>> result.count
2
"""

from repro.bigraph import (
    BipartiteGraph,
    GraphBuilder,
    GraphStats,
    compute_stats,
    planted_bicliques,
    powerlaw_bipartite,
    random_bipartite,
    read_edge_list,
    subsample_edges,
    vertex_order,
    write_edge_list,
)
from repro.analysis import (
    BicliqueSummary,
    count_pq_bicliques,
    count_pq_table,
    cover_quality,
    edge_coverage,
    filter_by_size,
    greedy_biclique_cover,
    iter_pq_bicliques,
    size_histogram,
    summarize,
    top_k_by_area,
    vertex_participation,
)
from repro.bigraph.components import (
    connected_components,
    run_mbe_per_component,
)
from repro.bigraph.io import GraphFormatError
from repro.bigraph.ordering import degeneracy_order
from repro.bigraph.reduce import threshold_core
from repro.bigraph.matrix import (
    from_biadjacency,
    from_networkx,
    to_biadjacency,
    to_networkx,
)
from repro.core import (
    Biclique,
    EnumerationLimits,
    EnumerationStats,
    MBEResult,
    MBET,
    MBETM,
    MaximumBicliqueResult,
    available_algorithms,
    find_maximum_biclique,
    is_biclique,
    is_maximal_biclique,
    run_mbe,
    verify_result,
)
from repro.obs import (
    Instrumentation,
    ProgressReporter,
    Tracer,
    parse_prometheus_text,
    prometheus_text,
    write_trace_jsonl,
)
from repro.runtime import (
    BudgetExceeded,
    CheckpointError,
    CheckpointWriter,
    FaultPlan,
    RunBudget,
    load_checkpoint,
)
from repro.streaming import DynamicMBE, UpdateResult

__version__ = "1.0.0"

__all__ = [
    "Biclique",
    "BicliqueSummary",
    "BipartiteGraph",
    "BudgetExceeded",
    "CheckpointError",
    "CheckpointWriter",
    "DynamicMBE",
    "EnumerationLimits",
    "EnumerationStats",
    "FaultPlan",
    "GraphBuilder",
    "GraphFormatError",
    "GraphStats",
    "Instrumentation",
    "MBEResult",
    "MBET",
    "MBETM",
    "MaximumBicliqueResult",
    "ProgressReporter",
    "RunBudget",
    "Tracer",
    "UpdateResult",
    "__version__",
    "available_algorithms",
    "compute_stats",
    "connected_components",
    "count_pq_bicliques",
    "count_pq_table",
    "cover_quality",
    "degeneracy_order",
    "edge_coverage",
    "find_maximum_biclique",
    "greedy_biclique_cover",
    "filter_by_size",
    "from_biadjacency",
    "from_networkx",
    "is_biclique",
    "is_maximal_biclique",
    "iter_pq_bicliques",
    "load_checkpoint",
    "parse_prometheus_text",
    "planted_bicliques",
    "powerlaw_bipartite",
    "prometheus_text",
    "random_bipartite",
    "read_edge_list",
    "run_mbe",
    "run_mbe_per_component",
    "size_histogram",
    "subsample_edges",
    "threshold_core",
    "summarize",
    "to_biadjacency",
    "to_networkx",
    "top_k_by_area",
    "verify_result",
    "vertex_order",
    "vertex_participation",
    "write_edge_list",
    "write_trace_jsonl",
]
