"""A deliberately-broken engine: proof the harness detects real bugs.

``BrokenMBET`` is MBET with its maximality check disabled behind a feature
flag — ``has_superset`` always answers "no", so branches whose left side is
covered by an already-traversed signature are reported anyway, producing
duplicates and non-maximal bicliques on any graph with overlapping
subtrees.  It is *not* registered in the global algorithm registry; the
harness injects it through :class:`repro.check.engines.EngineSpec`'s
factory hook (``repro fuzz --self-test``), expects the agreement oracle to
catch it, and expects the shrinker to minimize the failure to a handful of
vertices.
"""

from __future__ import annotations

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
    """MBET with the maximality check feature-flagged off."""

    name = "broken_mbet"

    def __init__(self, break_maximality: bool = True, **options):
        super().__init__(**options)
        self.break_maximality = break_maximality

    def _make_store(self, n_traversed: int):
        store = super()._make_store(n_traversed)
        return _BlindStore(store) if self.break_maximality else store
