"""Dataset statistics: the columns of the literature's dataset table.

``compute_stats`` produces, for a bipartite graph, the exact columns the
MBE papers tabulate for every dataset: side sizes, edge count, maximum
degree per side (``D(U)``, ``D(V)``) and maximum 2-hop degree per side
(``D₂(U)``, ``D₂(V)``).  The 2-hop degree of a vertex is the number of
*same-side* vertices reachable through one common neighbour; it bounds the
candidate-set size of the enumeration subtree rooted at that vertex, so the
pair ``(D, D₂)`` is the per-subtree memory bound the algorithms quote.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.bigraph.graph import BipartiteGraph


@dataclass(frozen=True)
class GraphStats:
    """One row of the dataset-statistics table."""

    n_u: int
    n_v: int
    n_edges: int
    max_degree_u: int
    max_degree_v: int
    max_two_hop_u: int
    max_two_hop_v: int
    density: float

    def as_row(self) -> dict[str, float]:
        """Return the stats as a flat dict, ready for table rendering."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def max_degree_u(graph: BipartiteGraph) -> int:
    """Return ``D(U) = max_u |N(u)|`` (0 for an empty side)."""
    return max((graph.degree_u(u) for u in range(graph.n_u)), default=0)


def max_degree_v(graph: BipartiteGraph) -> int:
    """Return ``D(V) = max_v |N(v)|`` (0 for an empty side)."""
    return max((graph.degree_v(v) for v in range(graph.n_v)), default=0)


def _max_two_hop(rows: list, other_rows: list) -> int:
    """Return ``max |N₂(x)|`` over the side whose neighbour rows are
    ``rows``.  ``Σ_{y∈N(x)} (|N(y)| - 1)`` bounds ``|N₂(x)|``, so the exact
    unions run by falling bound and stop once no bound beats the best."""
    other_deg = [len(row) - 1 for row in other_rows]
    cap = len(rows) - 1
    bound = [min(sum([other_deg[y] for y in row]), cap) for row in rows]
    best = 0
    for x in sorted(range(len(rows)), key=bound.__getitem__, reverse=True):
        if bound[x] <= best:
            break
        # x neighbours each of its neighbours, so the union holds x too
        best = max(best, len(set().union(*[other_rows[y] for y in rows[x]])) - 1)
    return best


def _rows(graph: BipartiteGraph) -> tuple[list, list]:
    """Both sides' neighbour rows, U first."""
    return ([graph.neighbors_u(u) for u in range(graph.n_u)],
            [graph.neighbors_v(v) for v in range(graph.n_v)])


def max_two_hop_u(graph: BipartiteGraph) -> int:
    """Return ``D₂(U) = max_u |N₂(u)|``."""
    return _max_two_hop(*_rows(graph))


def max_two_hop_v(graph: BipartiteGraph) -> int:
    """Return ``D₂(V) = max_v |N₂(v)|``."""
    return _max_two_hop(*reversed(_rows(graph)))


def compute_stats(graph: BipartiteGraph) -> GraphStats:
    """Compute the full statistics row for ``graph``.

    The 2-hop maxima are the expensive part: O(Σ_v Σ_{u∈N(v)} |N(u)|)
    when every vertex must be unioned, usually far less (the wedge bound
    stops the scan early).
    """
    cells = graph.n_u * graph.n_v
    return GraphStats(
        n_u=graph.n_u,
        n_v=graph.n_v,
        n_edges=graph.n_edges,
        max_degree_u=max_degree_u(graph),
        max_degree_v=max_degree_v(graph),
        max_two_hop_u=max_two_hop_u(graph),
        max_two_hop_v=max_two_hop_v(graph),
        density=(graph.n_edges / cells) if cells else 0.0,
    )
