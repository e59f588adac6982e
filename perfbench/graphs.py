"""Seeded input generation for every workload.

Three families, all written to edge-list files the program then reads:

* **zoo** — the zoo recipes (``repro.datasets``) of six shapes, scaled
  down and re-seeded from the workload seed.  Their largest initial
  traversed set (Qmax) stays in the hundreds: left of the prefix tree's
  2k-8k crossover.
* **large_d2** — power-law graphs with a small hub-heavy U side and a
  large V side, sized so Qmax is at least 2k: right of the crossover.
* **composite** — disjoint unions of a few *pieces* (small power-law
  graphs) under a random relabelling.  Every composite has its own
  content hash, so the serve result cache and the federated workers'
  slice dedupe never recognise it, yet its reference count is the sum
  of its pieces' counts: a maximal biclique with both sides non-empty is
  connected, so it lies inside one piece and is maximal there.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterator

from common import derive_seed

#: zoo shape -> size factor applied to its recipe's vertex/edge/block
#: counts (chosen so each op costs a few tenths of a second); every shape
#: contributes ZOO_GRAPHS_PER_SHAPE differently seeded graphs
ZOO_MIX = (("so", 0.4), ("pa", 0.3), ("bx", 0.4), ("ee", 0.4), ("im", 0.4))
ZOO_MIX_TINY = (("so", 0.1), ("ee", 0.1))
ZOO_GRAPHS_PER_SHAPE = 2
_SCALED_PARAMS = ("n_u", "n_v", "n_edges", "n_blocks", "noise_edges")

#: (n_u, n_v, n_edges, exponent) of the large-D2 graphs
LARGE_D2 = (30, 6000, 4800, 2.3)
LARGE_D2_TINY = (30, 2500, 2600, 2.2)

#: (n_u, n_v, n_edges, exponent) of composite pieces per workload
PIECES = {
    "serve_mix": (200, 80, 500, 2.0),
    "federated": (500, 200, 1800, 2.0),
}
PIECES_TINY = (120, 50, 300, 2.0)


@dataclasses.dataclass(frozen=True)
class GraphInput:
    """One generated input: its reference key and how to build it."""

    key: str  # recipe and seed (the reference cache adds the file's hash)
    engine: str  # baseline engine that computes its reference count

    def build(self):
        kind, rest = self.key.split(":", 1)
        if kind == "zoo":
            shape, factor, seed = rest.split(":")
            return zoo_graph(shape, float(factor), int(seed))
        if kind == "pl":
            nu, nv, ne, ex, seed = rest.split(":")
            from repro import powerlaw_bipartite

            return powerlaw_bipartite(int(nu), int(nv), int(ne), float(ex),
                                      seed=int(seed))
        raise ValueError(f"unknown input kind {kind!r}")


def zoo_graph(shape: str, factor: float, seed: int):
    from repro import datasets

    spec = datasets.spec(shape)
    params = {
        k: (max(1, round(v * factor)) if k in _SCALED_PARAMS else v)
        for k, v in spec.params.items()
    }
    return dataclasses.replace(spec, params=params, seed=seed).build()


def zoo_inputs(seed: int, tiny: bool) -> list[GraphInput]:
    per_shape = 1 if tiny else ZOO_GRAPHS_PER_SHAPE
    return [
        GraphInput(
            f"zoo:{shape}:{factor}:{derive_seed(seed, 'zoo', shape, i)}",
            "pmbe",
        )
        for i in range(per_shape)
        for shape, factor in (ZOO_MIX_TINY if tiny else ZOO_MIX)
    ]


def large_d2_inputs(seed: int, tiny: bool, n: int) -> list[GraphInput]:
    nu, nv, ne, ex = LARGE_D2_TINY if tiny else LARGE_D2
    return [
        GraphInput(f"pl:{nu}:{nv}:{ne}:{ex}:{derive_seed(seed, 'd2', i)}",
                   "oombea")
        for i in range(n)
    ]


def piece_inputs(workload: str, seed: int, tiny: bool,
                 n: int) -> list[GraphInput]:
    nu, nv, ne, ex = PIECES_TINY if tiny else PIECES[workload]
    return [
        GraphInput(
            f"pl:{nu}:{nv}:{ne}:{ex}:{derive_seed(seed, workload, 'piece', i)}",
            "pmbe",
        )
        for i in range(n)
    ]


def compose(pieces: list, rng: random.Random):
    """Disjoint union of ``pieces`` with both sides randomly relabelled."""
    from repro import BipartiteGraph

    n_u = sum(p.n_u for p in pieces)
    n_v = sum(p.n_v for p in pieces)
    perm_u = list(range(n_u))
    perm_v = list(range(n_v))
    rng.shuffle(perm_u)
    rng.shuffle(perm_v)
    edges = []
    off_u = off_v = 0
    for piece in pieces:
        edges.extend(
            (perm_u[off_u + u], perm_v[off_v + v]) for u, v in piece.edges()
        )
        off_u += piece.n_u
        off_v += piece.n_v
    return BipartiteGraph(edges, n_u=n_u, n_v=n_v)


def composites(pieces: list, counts: list[int], n: int, per_graph: int,
               rng: random.Random) -> Iterator[tuple[object, int]]:
    """``n`` composites of ``per_graph`` pieces, with references, one at a
    time."""
    for _ in range(n):
        chosen = rng.sample(range(len(pieces)), per_graph)
        graph = compose([pieces[i] for i in chosen], rng)
        yield graph, sum(counts[i] for i in chosen)


def qmax(graph) -> int:
    """Largest initial traversed set over the first-level subproblems."""
    from repro.core.decompose import iter_subproblems

    return max((len(s.traversed) for s in iter_subproblems(graph)),
               default=0)
