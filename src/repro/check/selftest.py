"""A deliberately-broken engine: proof the harness detects real bugs.

``BrokenMBET`` is MBET with its maximality checks disabled behind a
feature flag, on both sides of the biclique:

* the traversed-set check (``has_superset``) always answers "no", so
  branches whose left side is covered by an already-traversed signature
  are reported anyway;
* each subproblem's root drops the later vertices that cover its whole
  left side, so it is reported with a right side that is not closed.

The first bug shows only on graphs with overlapping subtrees (about 6% of
small random cases); the second on any graph where one V vertex's
neighbourhood contains another's, which is most of them — so a short
seeded campaign catches the engine whatever cases its RNG stream draws.
It is *not* registered in the global algorithm registry; the
harness injects it through :class:`repro.check.engines.EngineSpec`'s
factory hook (``repro fuzz --self-test``), expects the agreement oracle to
catch it, and expects the shrinker to minimize the failure to a handful of
vertices.
"""

from __future__ import annotations

import dataclasses

from repro.core.mbet import MBET


class _BlindStore:
    """Store wrapper whose superset query always answers False."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    def insert(self, mask):
        return self._inner.insert(mask)

    def remove(self, token):
        self._inner.remove(token)

    def has_superset(self, query) -> bool:
        return False

    def fold_into(self, stats) -> None:
        self._inner.fold_into(stats)


class BrokenMBET(MBET):
    """MBET with the maximality checks feature-flagged off."""

    name = "broken_mbet"

    def __init__(self, break_maximality: bool = True, **options):
        super().__init__(**options)
        self.break_maximality = break_maximality

    def _make_store(self, traversed):
        store = super()._make_store(traversed)
        return _BlindStore(store) if self.break_maximality else store

    def _run_subproblem(self, sub, report, stats, *slice_args) -> None:
        if self.break_maximality:
            sub = dataclasses.replace(sub, right=[sub.root_v])
        super()._run_subproblem(sub, report, stats, *slice_args)
