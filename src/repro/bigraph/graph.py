"""The immutable bipartite graph used by every enumeration algorithm.

Design notes
------------
* Vertices on each side are dense ints ``0 .. n-1``; the two id spaces are
  independent (``u=3`` and ``v=3`` are different vertices).
* Adjacency is stored CSR-style as a tuple of sorted tuples per side, which
  is what the merge-based set operations in :mod:`repro.setops` consume.
* Membership-heavy algorithms additionally use lazily built frozensets per
  row (:meth:`neighbors_v_set` / :meth:`neighbors_u_set`).
* The structure is immutable after construction; algorithms never mutate
  the graph, which makes it safe to share across worker processes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class BipartiteGraph:
    """An undirected bipartite graph ``G = (U, V, E)`` with sorted adjacency.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates are rejected (use
        :class:`~repro.bigraph.builder.GraphBuilder` to deduplicate).
    n_u, n_v:
        Optional side sizes; default to ``max id + 1``.  Passing them allows
        isolated trailing vertices.
    """

    __slots__ = ("_adj_u", "_adj_v", "_n_edges", "_u_sets", "_v_sets")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        n_u: int | None = None,
        n_v: int | None = None,
    ):
        edge_list = list(edges)
        max_u = max((u for u, _ in edge_list), default=-1)
        max_v = max((v for _, v in edge_list), default=-1)
        if n_u is None:
            n_u = max_u + 1
        if n_v is None:
            n_v = max_v + 1
        if max_u >= n_u or max_v >= n_v:
            raise ValueError("edge endpoint exceeds declared side size")
        if any(u < 0 or v < 0 for u, v in edge_list):
            raise ValueError("vertex ids must be non-negative")

        adj_u: list[list[int]] = [[] for _ in range(n_u)]
        adj_v: list[list[int]] = [[] for _ in range(n_v)]
        for u, v in edge_list:
            adj_u[u].append(v)
            adj_v[v].append(u)
        for row in adj_u:
            row.sort()
        for row in adj_v:
            row.sort()
        for u, row in enumerate(adj_u):
            for a, b in zip(row, row[1:]):
                if a == b:
                    raise ValueError(f"duplicate edge ({u}, {a})")

        self._adj_u: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in adj_u)
        self._adj_v: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in adj_v)
        self._n_edges = len(edge_list)
        self._u_sets: list[frozenset[int] | None] = [None] * n_u
        self._v_sets: list[frozenset[int] | None] = [None] * n_v

    # -- basic shape ------------------------------------------------------

    @property
    def n_u(self) -> int:
        """Number of vertices on the U (left) side, including isolated ones."""
        return len(self._adj_u)

    @property
    def n_v(self) -> int:
        """Number of vertices on the V (right) side, including isolated ones."""
        return len(self._adj_v)

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._n_edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge as ``(u, v)``, sorted by u then v."""
        for u, row in enumerate(self._adj_u):
            for v in row:
                yield (u, v)

    # -- adjacency --------------------------------------------------------

    def neighbors_u(self, u: int) -> tuple[int, ...]:
        """Return ``N(u) ⊆ V`` as a sorted tuple."""
        return self._adj_u[u]

    def neighbors_v(self, v: int) -> tuple[int, ...]:
        """Return ``N(v) ⊆ U`` as a sorted tuple."""
        return self._adj_v[v]

    def neighbors_u_set(self, u: int) -> frozenset[int]:
        """Return ``N(u)`` as a frozenset, built on first use and cached."""
        s = self._u_sets[u]
        if s is None:
            s = frozenset(self._adj_u[u])
            self._u_sets[u] = s
        return s

    def neighbors_v_set(self, v: int) -> frozenset[int]:
        """Return ``N(v)`` as a frozenset, built on first use and cached."""
        s = self._v_sets[v]
        if s is None:
            s = frozenset(self._adj_v[v])
            self._v_sets[v] = s
        return s

    def degree_u(self, u: int) -> int:
        """Return ``|N(u)|``."""
        return len(self._adj_u[u])

    def degree_v(self, v: int) -> int:
        """Return ``|N(v)|``."""
        return len(self._adj_v[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Return True when ``(u, v) ∈ E``."""
        return v in self.neighbors_u_set(u)

    # -- derived neighbourhoods -------------------------------------------

    def two_hop_v(self, v: int) -> list[int]:
        """Return ``N₂(v)``: all v' ≠ v sharing at least one neighbour with v."""
        adj_u = self._adj_u
        return sorted(set().union(*[adj_u[u] for u in self._adj_v[v]]) - {v})

    def two_hop_u(self, u: int) -> list[int]:
        """Return ``N₂(u)``: all u' ≠ u sharing at least one neighbour with u."""
        adj_v = self._adj_v
        return sorted(set().union(*[adj_v[v] for v in self._adj_u[u]]) - {u})

    def common_neighbors_of_vs(self, vs: Sequence[int]) -> list[int]:
        """Return ``C(vs) = ∩_{v∈vs} N(v) ⊆ U`` (sorted).

        Raises ValueError on an empty ``vs`` — the common neighbourhood of
        nothing is all of U, which callers must spell out themselves.
        """
        from repro.setops.sorted_ops import multi_intersect

        return multi_intersect([self._adj_v[v] for v in vs])

    def common_neighbors_of_us(self, us: Sequence[int]) -> list[int]:
        """Return ``C(us) = ∩_{u∈us} N(u) ⊆ V`` (sorted)."""
        from repro.setops.sorted_ops import multi_intersect

        return multi_intersect([self._adj_u[u] for u in us])

    # -- transforms --------------------------------------------------------

    def swap_sides(self) -> "BipartiteGraph":
        """Return the same graph with U and V exchanged."""
        return BipartiteGraph(
            ((v, u) for u, v in self.edges()), n_u=self.n_v, n_v=self.n_u
        )

    def oriented_smaller_v(self) -> tuple["BipartiteGraph", bool]:
        """Return ``(graph, swapped)`` with the smaller side as V.

        The enumeration literature always enumerates over the smaller side;
        ``swapped`` tells the caller whether reported bicliques must have
        their sides exchanged back.
        """
        if self.n_v <= self.n_u:
            return self, False
        return self.swap_sides(), True

    def induced_subgraph(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> tuple["BipartiteGraph", dict[int, int], dict[int, int]]:
        """Return the subgraph induced by ``us`` x ``vs`` with dense relabeling.

        Returns ``(graph, u_map, v_map)`` where the maps send old ids to new.
        """
        u_map = {u: i for i, u in enumerate(sorted(set(us)))}
        v_map = {v: i for i, v in enumerate(sorted(set(vs)))}
        edges = [
            (u_map[u], v_map[v])
            for u in u_map
            for v in self._adj_u[u]
            if v in v_map
        ]
        return (
            BipartiteGraph(edges, n_u=len(u_map), n_v=len(v_map)),
            u_map,
            v_map,
        )

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self._adj_u == other._adj_u
            and self._adj_v == other._adj_v
        )

    def __hash__(self) -> int:
        return hash(self._adj_u)

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|U|={self.n_u}, |V|={self.n_v}, "
            f"|E|={self._n_edges})"
        )
