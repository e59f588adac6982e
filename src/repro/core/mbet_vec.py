"""Vectorized MBET: candidate filtering on batched uint64 bitmap kernels.

The recursive MBET spends its inner loop intersecting the branch's new
left side with every remaining candidate group — a Python-level loop of
int ANDs.  This engine keeps each node's candidate signatures as the rows
of a ``(n_groups, words)`` uint64 matrix and runs that loop through
:mod:`repro.setops.kernels`: one fused ``filter_batch`` dispatch per node
computes every intersection, classifies every row as absorbed / partial /
disjoint by popcount, and hands the child its sort keys for free.

The engine is a **hybrid**.  Per-node numpy dispatch only pays for itself
when the node is wide, and even subtrees rooted at wide nodes spend over
half their nodes at width < 4, so the int-mask vs kernel choice is made
*per subtree and again per child node* (``kernel_policy="auto"``): narrow
subproblems run :class:`repro.core.mbet.MBET` verbatim, wide ones run the
kernel path, and a kernel node whose child narrows below
``kernel_min_groups`` drops down into the inherited int-mask ``_search``
mid-recursion.  ``stats.kernel_nodes`` / ``kernel_batches`` /
``kernel_rows`` record how much work each side actually took.

Everything else — the first-level decomposition, the prefix-tree
maximality store (which still operates on Python-int masks, converted per
branch), size constraints, feature flags — is inherited from
:class:`repro.core.mbet.MBET`.  The result set is identical (agreement-
tested); the enumeration *order* may differ because signature grouping
sorts rows by popcount with lexicographic ties rather than by integer
value.

**Measured outcome:** the original per-group numpy formulation of this
engine was a documented 2-3x *negative* result at dataset-zoo scale —
narrow nodes paid numpy dispatch per candidate group while CPython's
big-int ``&`` is a single C call.  The batched-kernel hybrid flips that:
on the wide-node zoo graphs (gh, dbt, pa) it runs >= 2x faster than the
per-group formulation and within noise of the int engine, and on narrow
graphs the auto policy simply *is* the int engine (every subtree falls
below the width threshold).  ``BENCH_*.json`` snapshots track the
trajectory; the ablation experiment R-F6 records the comparison; see
``docs/performance.md`` for the kernel design.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.base import EnumerationStats, register
from repro.core.decompose import Subproblem
from repro.core.mbet import MBET
from repro.setops import kernels

_WORD = kernels.WORD

#: kept importable for compatibility; the canonical home is the kernel layer
_POPCOUNT8 = kernels._POPCOUNT8
_popcount_rows_native = kernels.popcount_rows_native
_popcount_rows_table = kernels.popcount_rows_table

# The popcount backend is picked by *runtime* capability detection in
# repro.setops.kernels (numpy >= 2.0 has np.bitwise_count; older numpy
# gets the byte-table fallback) — never pinned by the pyproject floor.
_popcount_rows = kernels.popcount_rows
_masks_to_matrix = kernels.pack_masks
_row_to_int = kernels.mask_from_row

_POLICIES = ("auto", "always", "never")


@register
class MBETVectorized(MBET):
    """MBET with batched-kernel candidate filtering (hybrid int/packed)."""

    name = "mbet_vec"

    def __init__(
        self,
        *,
        kernel_policy: str = "auto",
        kernel_min_groups: int = 128,
        **mbet_options,
    ):
        """``kernel_policy`` controls the int-mask vs packed-kernel choice:

        ``"auto"``
            Subtrees (and, mid-recursion, child nodes) with at least
            ``kernel_min_groups`` candidate groups run the batched
            kernels; narrower ones run the inherited int-mask search.
        ``"always"`` / ``"never"``
            Force one side everywhere — the ablation/benchmark knobs
            (``"never"`` makes this engine exactly :class:`MBET`).
        """
        super().__init__(**mbet_options)
        if kernel_policy not in _POLICIES:
            raise ValueError(
                f"kernel_policy must be one of {_POLICIES}, got {kernel_policy!r}"
            )
        if kernel_min_groups < 2:
            raise ValueError("kernel_min_groups must be >= 2")
        self.kernel_policy = kernel_policy
        self.kernel_min_groups = kernel_min_groups

    def _use_kernels(self, n_groups: int) -> bool:
        """Decide the path for a (sub)tree with ``n_groups`` candidates."""
        if self.kernel_policy == "auto":
            return n_groups >= self.kernel_min_groups
        return self.kernel_policy == "always"

    def _run_subproblem(
        self,
        sub: Subproblem,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        if not self._use_kernels(len(sub.cands)):
            # narrow subtree: the int-mask engine wins outright
            MBET._run_subproblem(self, sub, report, stats)
            return

        space = sub.space
        store = self._make_store(len(sub.traversed))
        for sig in sub.traversed:
            store.insert(sig)

        if len(sub.right) >= self.min_right:
            report(space.universe, sub.right)

        if sub.cands:
            matrix = space.pack([m for _, m in sub.cands])
            verts: list[tuple[int, ...]] = [(w,) for w, _ in sub.cands]
            pcs = kernels.popcount_rows(matrix)
            matrix, verts, pcs = self._group_matrix(matrix, verts, pcs, stats)
            reachable = len(sub.right) + sum(len(v) for v in verts)
            if reachable >= self.min_right:
                self._search_matrix(
                    tuple(sub.right), matrix, verts, pcs,
                    store, space, report, stats,
                )
            else:
                stats.threshold_pruned += 1

        store.fold_into(stats)

    # -- vectorized node expansion --------------------------------------------

    def _group_matrix(
        self,
        matrix: np.ndarray,
        verts: list[tuple[int, ...]],
        pcs: np.ndarray,
        stats: EnumerationStats,
    ) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
        """Merge equal rows (signature merging) and order the groups.

        ``pcs`` carries the per-row popcounts alongside the matrix; the
        filter kernel computes them as a by-product of classification, so
        grouping never popcounts a row twice.
        """
        if self.use_merge and len(verts) > 1:
            unique, inverse = kernels.group_rows(matrix)
            if len(unique) < len(verts):
                stats.merged_candidates += len(verts) - len(unique)
                merged: list[tuple[int, ...]] = [()] * len(unique)
                for src, dst in enumerate(inverse):
                    merged[dst] = merged[dst] + verts[src]
                pc_u = np.empty(len(unique), dtype=np.int64)
                pc_u[inverse] = pcs  # equal rows share one popcount
                matrix, verts, pcs = unique, merged, pc_u
        if self.use_sort and len(verts) > 1:
            # np.unique already ordered rows lexicographically; a stable
            # popcount sort therefore breaks ties the same way every run
            order = np.argsort(pcs, kind="stable")
            matrix = matrix[order]
            pcs = pcs[order]
            verts = [verts[int(i)] for i in order]
        return matrix, verts, pcs

    def _search_matrix(
        self,
        right: tuple[int, ...],
        matrix: np.ndarray,
        verts: list[tuple[int, ...]],
        pcs: np.ndarray,
        store,
        space,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        stats.nodes += 1
        stats.kernel_nodes += 1
        self._guard.tick()
        tokens = []
        n = len(verts)
        constrained = self.min_left > 1 or self.min_right > 1
        if constrained:
            suffix = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix[i] = suffix[i + 1] + len(verts[i])
        for i in range(n):
            if i and self.kernel_policy == "auto" and n - i < self.kernel_min_groups:
                # The unprocessed suffix of this node narrowed below the
                # dispatch-overhead crossover (late branches filter tiny
                # tails).  Branches i..n of this node are exactly a node
                # over groups[i:] with the same right side, so finish it
                # on the int-mask path; the earlier branches' tokens stay
                # in the store until the removal loop below.
                pairs = list(zip(kernels.unpack_masks(matrix[i:]), verts[i:]))
                MBET._search(self, right, pairs, store, space, report, stats)
                break
            new_left_row = matrix[i]
            new_left = kernels.mask_from_row(new_left_row)
            gverts = verts[i]
            if constrained and (
                int(pcs[i]) < self.min_left
                or len(right) + len(gverts) + suffix[i + 1] < self.min_right
            ):
                stats.threshold_pruned += 1
                tokens.append(store.insert(new_left))
                continue
            if store.has_superset(new_left):
                stats.non_maximal += 1
                tokens.append(store.insert(new_left))
                continue
            new_right = list(right)
            new_right.extend(gverts)
            child_matrix = None
            child_verts: list[tuple[int, ...]] = []
            child_pcs = None
            if i + 1 < n:
                tail = matrix[i + 1:]
                inter, pc, full, nonzero = kernels.filter_batch(
                    tail, new_left_row, int(pcs[i])
                )
                stats.intersections += len(tail)
                stats.kernel_batches += 1
                stats.kernel_rows += len(tail)
                for j in np.flatnonzero(full):
                    new_right.extend(verts[i + 1 + int(j)])
                partial = nonzero & ~full
                if partial.any():
                    child_matrix = inter[partial]
                    child_pcs = pc[partial]
                    child_verts = [
                        verts[i + 1 + int(j)] for j in np.flatnonzero(partial)
                    ]
            new_right.sort()
            if not constrained or len(new_right) >= self.min_right:
                report(space.decode(new_left), new_right)
            if child_matrix is not None:
                if self._use_kernels(len(child_verts)):
                    child_matrix, child_verts, child_pcs = self._group_matrix(
                        child_matrix, child_verts, child_pcs, stats
                    )
                    self._search_matrix(
                        tuple(new_right), child_matrix, child_verts,
                        child_pcs, store, space, report, stats,
                    )
                else:
                    # the child narrowed below the dispatch-overhead
                    # crossover: drop into the int-mask search for the
                    # rest of this subtree (MBET._search regroups with
                    # the int _group, and recurses on itself)
                    pairs = list(
                        zip(kernels.unpack_masks(child_matrix), child_verts)
                    )
                    MBET._search(
                        self, tuple(new_right), self._group(pairs, stats),
                        store, space, report, stats,
                    )
            tokens.append(store.insert(new_left))
        for token in reversed(tokens):
            store.remove(token)
