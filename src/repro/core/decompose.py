"""First-level decomposition of the enumeration tree.

Ordered MBE algorithms (ooMBEA, MBET, MBETM, and the parallel driver) do not
recurse from a single root; they split the problem into one *subproblem per
enumeration vertex* ``v``: the subtree of bicliques whose lowest-ranked
right-side vertex is ``v``.  The subproblem is confined to ``v``'s 1-hop
neighbourhood (the left universe ``L₀ = N(v)``) and 2-hop neighbourhood (the
candidate/traversed vertices), which is what makes the per-subtree
bit-signature space of MBET small and the parallel distribution natural.

The decomposition computes, per ``v``:

* ``space`` — the signature space over ``L₀`` (bit positions),
* ``right`` — the closed right side of the root biclique
  (``v`` plus every later-ranked vertex covering all of ``L₀``),
* ``cands`` — later-ranked 2-hop vertices with a partial cover, as
  ``(vertex, signature)`` pairs,
* ``traversed`` — signatures of earlier-ranked 2-hop vertices (the initial
  Q of the subtree).

A subproblem is *skipped* (returns None) when an earlier-ranked vertex
covers all of ``L₀``: the whole subtree then repeats work already done in
that vertex's subproblem — this is the containment pruning every ordered
algorithm in this literature applies at the first level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.ordering import rank_of, vertex_order
from repro.runtime.budget import NULL_GUARD, BudgetGuard
from repro.setops.bitmap import SignatureSpace


@dataclass
class Subproblem:
    """One first-level enumeration subtree, in signature form."""

    root_v: int
    space: SignatureSpace
    right: list[int]
    cands: list[tuple[int, int]]
    traversed: list[int]


def build_subproblem(
    graph: BipartiteGraph, v: int, rank: list[int]
) -> Subproblem | None:
    """Construct the subproblem rooted at ``v``, or None when pruned.

    None is returned when ``v`` is isolated or when an earlier-ranked
    vertex covers ``N(v)`` entirely (containment pruning).  Signatures of
    all 2-hop vertices are built in one pass over the edges incident to
    ``L₀`` — O(Σ_{u∈N(v)} |N(u)|) — rather than one encode per vertex.
    """
    left0 = graph.neighbors_v(v)
    if not left0:
        return None
    space = SignatureSpace(left0)
    full = space.full_mask
    rank_v = rank[v]

    signatures: dict[int, int] = {}
    for pos, u in enumerate(space.universe):
        bit = 1 << pos
        for w in graph.neighbors_u(u):
            signatures[w] = signatures.get(w, 0) | bit
    signatures.pop(v, None)

    right = [v]
    cands: list[tuple[int, int]] = []
    traversed: list[int] = []
    for w, sig in signatures.items():
        if sig == full:
            if rank[w] < rank_v:
                return None  # earlier vertex covers L0: duplicate subtree
            right.append(w)
        elif rank[w] > rank_v:
            cands.append((w, sig))
        else:
            traversed.append(sig)
    right.sort()
    cands.sort(key=lambda ws: rank[ws[0]])
    return Subproblem(
        root_v=v, space=space, right=right, cands=cands, traversed=traversed
    )


def iter_subproblems(
    graph: BipartiteGraph,
    order_strategy: str = "degree",
    seed: int = 0,
    guard: BudgetGuard = NULL_GUARD,
) -> Iterator[Subproblem]:
    """Yield the non-pruned subproblems of ``graph`` in enumeration order.

    ``guard`` is probed (unamortized) once per *root vertex*, before the
    subproblem is built.  The probe must live here rather than in the
    consumer's loop: on graphs where long stretches of roots are
    containment-pruned, the generator burns all the time without ever
    yielding, and a deadline checked only per yielded subproblem would
    never bind.
    """
    order = vertex_order(graph, order_strategy, seed=seed)
    rank = rank_of(order)
    for v in order:
        guard.check_now()
        sub = build_subproblem(graph, v, rank)
        if sub is not None:
            yield sub
