"""MBETM — the space-optimized variant of MBET.

MBET's prefix tree grows with the traversed set of the current search path;
on adversarial inputs that is O(path length x signature width) trie nodes.
MBETM caps the trie at ``max_nodes``: inserts beyond the budget fall back
to a flat overflow multiset (bounded by the path length, i.e. the same
asymptotic footprint as MBEA's Q list), trading query speed for a hard
memory bound.  This mirrors the published description of MBETM as the
variant that sacrifices some throughput to keep space bounded on inputs
with billions of bicliques.

MBETM builds the trie by default (``use_trie=True``): the node budget is
its reason to exist.  With ``use_trie=False`` it runs MBET's reduced
linear scan, and the budget goes unused.

The class also exposes :meth:`iter_bicliques`, a generator that yields
results subtree-by-subtree with timestamps — the progressive-enumeration
experiment (R-F5: "bicliques produced over time") is driven by it.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import Biclique, EnumerationStats, register
from repro.core.decompose import iter_subproblems
from repro.core.mbet import MBET
from repro.obs.metrics import NULL_INSTRUMENTATION
from repro.runtime.budget import NULL_GUARD, BudgetExceeded, RunBudget

#: Default prefix-tree node budget (per subtree), chosen so the trie fits
#: comfortably in cache while still absorbing the common case.
DEFAULT_BUDGET = 4096


@register
class MBETM(MBET):
    """MBET under a hard prefix-tree node budget."""

    name = "mbetm"

    def __init__(
        self,
        order: str = "degree",
        max_nodes: int = DEFAULT_BUDGET,
        use_trie: bool = True,
        use_merge: bool = True,
        use_sort: bool = True,
        orient_smaller_v: bool = False,
        seed: int = 0,
        min_left: int = 1,
        min_right: int = 1,
    ):
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        super().__init__(
            order=order,
            use_trie=use_trie,
            use_merge=use_merge,
            use_sort=use_sort,
            trie_max_nodes=max_nodes,
            orient_smaller_v=orient_smaller_v,
            seed=seed,
            min_left=min_left,
            min_right=min_right,
        )

    @property
    def max_nodes(self) -> int:
        """The prefix-tree node budget this instance enforces."""
        assert self.trie_max_nodes is not None
        return self.trie_max_nodes

    def iter_bicliques(
        self,
        graph: BipartiteGraph,
        budget: RunBudget | None = None,
        instrumentation=None,
    ) -> Iterator[tuple[float, Biclique]]:
        """Yield ``(seconds_since_start, biclique)`` progressively.

        Results stream out after each first-level subtree completes, so a
        consumer can plot cumulative output over time or stop early without
        paying for the full enumeration.  An optional ``budget`` bounds the
        walk; when it trips, the generator simply stops yielding (the
        already-yielded prefix is exact).  ``instrumentation`` receives a
        progress pulse per completed subtree and the run's stats when the
        walk finishes.
        """
        instr = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        work_graph, swapped = (
            graph.oriented_smaller_v() if self.orient_smaller_v else (graph, False)
        )
        stats = EnumerationStats()
        guard = budget.arm() if budget is not None else NULL_GUARD
        start = time.perf_counter()
        self._guard = guard
        self._instr = instr
        try:
            with self._oriented_thresholds(swapped):
                for sub in iter_subproblems(
                    work_graph, self.order, seed=self.seed, guard=guard
                ):
                    if not self._accept_subproblem(sub, stats):
                        continue
                    stats.subtrees += 1
                    batch: list[Biclique] = []

                    def collect(left, right, _batch=batch):
                        _batch.append(Biclique.make(left, right))

                    self._run_subproblem(sub, collect, stats)
                    stats.maximal += len(batch)
                    instr.pulse(stats)
                    now = time.perf_counter() - start
                    for b in batch:
                        yield (now, b.swap() if swapped else b)
        except BudgetExceeded:
            return
        finally:
            self._guard = NULL_GUARD
            self._instr = NULL_INSTRUMENTATION
            if instr.enabled:
                instr.publish_stats(stats)
