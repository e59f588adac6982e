"""Incremental construction of :class:`~repro.bigraph.graph.BipartiteGraph`.

Real edge lists (and random generators) produce duplicate edges and sparse,
non-dense id spaces.  The builder absorbs both: it deduplicates edges and can
optionally compact the id spaces before producing the immutable graph.
"""

from __future__ import annotations

from typing import Iterable

from repro.bigraph.graph import BipartiteGraph


class GraphBuilder:
    """Accumulates edges, then freezes them into a :class:`BipartiteGraph`."""

    def __init__(self) -> None:
        self._edges: set[tuple[int, int]] = set()

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Record edge ``(u, v)``; duplicates are silently merged."""
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        self._edges.add((u, v))
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Record many edges (chainable)."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def add_biclique(self, us: Iterable[int], vs: Iterable[int]) -> "GraphBuilder":
        """Record the complete bipartite subgraph ``us x vs``.

        Used by the planted-biclique generator and the examples.
        """
        vs_list = list(vs)
        for u in us:
            for v in vs_list:
                self.add_edge(u, v)
        return self

    @property
    def n_edges(self) -> int:
        """Number of distinct edges recorded so far."""
        return len(self._edges)

    def build(
        self,
        n_u: int | None = None,
        n_v: int | None = None,
        compact: bool = False,
    ) -> BipartiteGraph:
        """Freeze into an immutable graph.

        With ``compact=True``, ids on each side are relabelled to remove
        unused values (isolated vertices vanish); the declared sizes are
        then ignored.
        """
        if compact:
            us = sorted({u for u, _ in self._edges})
            vs = sorted({v for _, v in self._edges})
            u_map = {u: i for i, u in enumerate(us)}
            v_map = {v: i for i, v in enumerate(vs)}
            edges = [(u_map[u], v_map[v]) for u, v in self._edges]
            return BipartiteGraph(edges, n_u=len(us), n_v=len(vs))
        return BipartiteGraph(sorted(self._edges), n_u=n_u, n_v=n_v)
