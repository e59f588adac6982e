"""Typed artifact producers over the content-addressed store.

Each producer is a ``cached_*`` function pairing one artifact **kind**
with its canonical encoding and its rebuild path, so every layer (CLI,
serve, cluster) shares one definition of "what a cached ordering is".

Kinds
-----
``graph``
    The parsed graph itself, as its CSR adjacency (``adj_u`` rows).
``source``
    A source index mapping a *file path* (keyed by the path's own hash,
    not the content hash) to ``{mtime_ns, size, graph_key}`` — repeat
    loads of an unchanged file skip parsing entirely, and a changed
    mtime/size is a miss, never a wrong answer.
``order``
    A :func:`repro.bigraph.ordering.vertex_order` permutation,
    fingerprinted by ``strategy:seed``.
``degeneracy``
    The joint peel order plus the degeneracy number.
``stats``
    The :class:`repro.bigraph.stats.GraphStats` row.
``cost``
    The admission estimate ``|E| · max(1, D₂)`` (the planner's
    :func:`repro.plan.model.estimate_cost`, which serve admission also
    gates on).
``roots``
    The count of addressable enumeration roots for a given
    ``order:seed`` (cluster slice planning / worker verification).
``components``
    Connected components as ``(us, vs)`` id lists.
``result``
    A **complete** enumeration output, fingerprinted by engine +
    thresholds + engine options.  Truncated runs are never stored: a
    result entry answers "the full answer for this graph under these
    options", so budget parameters are deliberately absent from the
    fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Sequence

from repro.artifacts.store import ArtifactStore
from repro.bigraph.components import connected_components
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.ordering import degeneracy_order, vertex_order
from repro.bigraph.stats import GraphStats, compute_stats

__all__ = [
    "graph_key",
    "encode_graph",
    "decode_graph",
    "source_key",
    "load_graph_cached",
    "peek_graph_key",
    "cached_vertex_order",
    "cached_degeneracy_order",
    "cached_stats",
    "cached_cost",
    "cached_root_count",
    "cached_components",
    "result_fingerprint",
    "get_cached_result",
    "put_cached_result",
    "RESULT_BICLIQUE_CAP",
]

#: Result entries store at most this many bicliques; larger complete
#: results are cached count-only (collect-mode lookups then miss).
RESULT_BICLIQUE_CAP = 100_000


# -- canonical graph identity ----------------------------------------------

def graph_key(graph: BipartiteGraph) -> str:
    """SHA-256 of the graph's canonical bytes.

    Streams ``n_u n_v`` then each sorted U-adjacency row, so the key is
    a pure function of the graph structure — a KONECT file and a plain
    file holding the same edges share one key and therefore every
    derived artifact.
    """
    h = hashlib.sha256()
    h.update(f"bigraph/1 {graph.n_u} {graph.n_v}\n".encode("ascii"))
    for u in range(graph.n_u):
        h.update(" ".join(map(str, graph.neighbors_u(u))).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def encode_graph(graph: BipartiteGraph) -> dict[str, Any]:
    """Graph → JSON payload (CSR rows; exact round trip)."""
    return {
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "adj_u": [list(graph.neighbors_u(u)) for u in range(graph.n_u)],
    }


def decode_graph(payload: dict[str, Any]) -> BipartiteGraph:
    """JSON payload → graph (inverse of :func:`encode_graph`)."""
    edges = [
        (u, v)
        for u, row in enumerate(payload["adj_u"])
        for v in row
    ]
    return BipartiteGraph(
        edges, n_u=int(payload["n_u"]), n_v=int(payload["n_v"])
    )


def source_key(path: str | os.PathLike[str]) -> str:
    """Pseudo graph-key addressing a source *file* rather than content."""
    abspath = os.path.abspath(os.fspath(path))
    return "src-" + hashlib.sha256(abspath.encode("utf-8")).hexdigest()


def load_graph_cached(
    path: str | os.PathLike[str],
    store: ArtifactStore,
    fmt: str = "auto",
    compact: bool = False,
) -> tuple[BipartiteGraph, str, bool]:
    """Load an edge-list file through the store.

    Returns ``(graph, graph_key, cached)``.  Fast path: the source index
    says the file is unchanged (mtime_ns + size) *and* the referenced
    graph entry hydrates — zero parsing.  Any staleness or corruption
    falls back to a real parse, after which both entries are rewritten.
    """
    from repro.bigraph.io import read_edge_list

    abspath = os.path.abspath(os.fspath(path))
    skey = source_key(abspath)
    sfp = f"{fmt}:{'compact' if compact else 'full'}"
    try:
        st = os.stat(abspath)
        ident = {"mtime_ns": st.st_mtime_ns, "size": st.st_size}
    except OSError:
        ident = None
    if ident is not None:
        index = store.get(skey, "source", sfp)
        if (
            isinstance(index, dict)
            and index.get("mtime_ns") == ident["mtime_ns"]
            and index.get("size") == ident["size"]
            and isinstance(index.get("graph_key"), str)
        ):
            payload = store.get(index["graph_key"], "graph")
            if payload is not None:
                return decode_graph(payload), index["graph_key"], True
    graph = read_edge_list(abspath, fmt=fmt, compact=compact)
    gk = graph_key(graph)
    store.put(gk, "graph", encode_graph(graph))
    if ident is not None:
        store.put(
            skey, "source", {**ident, "graph_key": gk}, sfp
        )
    return graph, gk, False


# -- derived artifacts ------------------------------------------------------

def peek_graph_key(
    path: str | os.PathLike[str],
    store: ArtifactStore,
    fmt: str = "auto",
    compact: bool = False,
) -> str | None:
    """The graph key of an *unchanged* file, without hydrating the graph.

    Returns None when the source index is cold or stale — callers that
    only need the key (e.g. a result-cache probe) can skip graph
    decoding entirely on the warm path.
    """
    abspath = os.path.abspath(os.fspath(path))
    try:
        st = os.stat(abspath)
    except OSError:
        return None
    index = store.get(
        source_key(abspath), "source",
        f"{fmt}:{'compact' if compact else 'full'}",
    )
    if (
        isinstance(index, dict)
        and index.get("mtime_ns") == st.st_mtime_ns
        and index.get("size") == st.st_size
        and isinstance(index.get("graph_key"), str)
    ):
        return index["graph_key"]
    return None


def cached_vertex_order(
    store: ArtifactStore,
    gk: str,
    graph: BipartiteGraph,
    strategy: str = "degree",
    seed: int = 0,
) -> list[int]:
    """The ``vertex_order`` permutation, computed at most once per graph."""
    payload = store.get_or_build(
        gk, "order",
        lambda: vertex_order(graph, strategy=strategy, seed=seed),
        fingerprint=f"{strategy}:{seed}",
    )
    return [int(v) for v in payload]


def cached_degeneracy_order(
    store: ArtifactStore, gk: str, graph: BipartiteGraph
) -> tuple[list[int], int]:
    """The joint peel order and degeneracy number."""
    payload = store.get_or_build(
        gk, "degeneracy", lambda: _degeneracy_payload(graph)
    )
    return [int(v) for v in payload["order_v"]], int(payload["degeneracy"])


def _degeneracy_payload(graph: BipartiteGraph) -> dict[str, Any]:
    order_v, degeneracy = degeneracy_order(graph)
    return {"order_v": order_v, "degeneracy": degeneracy}


def cached_stats(
    store: ArtifactStore, gk: str, graph: BipartiteGraph
) -> GraphStats:
    """The dataset-statistics row (2-hop scans are the expensive part)."""
    payload = store.get_or_build(
        gk, "stats", lambda: compute_stats(graph).as_row()
    )
    return GraphStats(**payload)


def cached_cost(
    store: ArtifactStore, gk: str, graph: BipartiteGraph
) -> int:
    """The admission cost estimate ``|E| · max(1, D₂)``."""
    from repro.plan.model import cost_from_stats

    return cost_from_stats(cached_stats(store, gk, graph))


def cached_root_count(
    store: ArtifactStore,
    gk: str,
    graph: BipartiteGraph,
    order: str = "degree",
    seed: int = 0,
) -> int:
    """Count of addressable enumeration roots for ``order:seed``."""
    def build() -> int:
        from repro.core.parallel import addressable_roots

        return len(addressable_roots(graph, order=order, seed=seed))

    return int(store.get_or_build(
        gk, "roots", build, fingerprint=f"{order}:{seed}"
    ))


def cached_components(
    store: ArtifactStore, gk: str, graph: BipartiteGraph
) -> list[tuple[list[int], list[int]]]:
    """Connected components as ``(us, vs)`` pairs, largest first."""
    payload = store.get_or_build(
        gk, "components",
        lambda: [[us, vs] for us, vs in connected_components(graph)],
    )
    return [(list(map(int, us)), list(map(int, vs))) for us, vs in payload]


# -- result / idempotency cache --------------------------------------------

def result_fingerprint(
    engine: str,
    min_left: int = 1,
    min_right: int = 1,
    engine_options: dict[str, Any] | None = None,
) -> str:
    """Fingerprint of "the complete answer under these options".

    Engine options are hashed canonically; budget parameters (time,
    biclique, node limits) are *excluded* on purpose — only complete
    results are ever stored, and a complete result is the same complete
    result whatever budget produced it.
    """
    opts = json.dumps(
        engine_options or {}, sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(opts.encode("utf-8")).hexdigest()[:16]
    return f"{engine}:{min_left}:{min_right}:{digest}"


def get_cached_result(
    store: ArtifactStore,
    gk: str,
    fingerprint: str,
    need_bicliques: bool = False,
) -> dict[str, Any] | None:
    """Return a cached complete result, or None.

    ``need_bicliques`` makes count-only entries (results over the
    storage cap) report a miss for collect-mode callers.
    """
    payload = store.get(gk, "result", fingerprint)
    if not isinstance(payload, dict) or not payload.get("complete"):
        return None
    if need_bicliques and payload.get("bicliques") is None:
        return None
    return payload


def put_cached_result(
    store: ArtifactStore,
    gk: str,
    fingerprint: str,
    engine: str,
    count: int,
    elapsed: float,
    bicliques: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
) -> bool:
    """Store one complete result; returns False when nothing was stored.

    Callers must only pass *complete* runs — a truncated enumeration is
    not "the answer" and poisoning the cache with one would make every
    later hit wrong.  ``bicliques`` are ``(left, right)`` pairs of
    Python-int sequences (a :class:`~repro.core.base.Biclique`'s tuples
    as they are), listed here once for the JSON payload.
    """
    stored_bicliques = None
    if bicliques is not None and len(bicliques) <= RESULT_BICLIQUE_CAP:
        stored_bicliques = [
            [list(left), list(right)] for left, right in bicliques
        ]
    store.put(
        gk, "result",
        {
            "engine": engine,
            "count": int(count),
            "elapsed": float(elapsed),
            "complete": True,
            "bicliques": stored_bicliques,
        },
        fingerprint,
    )
    return True
