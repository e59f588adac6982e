"""Engine-under-test specifications for the fuzzing harness.

An :class:`EngineSpec` names a registered algorithm plus the constructor
options for this run — or carries an explicit factory, which is how the
self-test injects the deliberately-broken engine without polluting the
global registry.  Specs are hashable and JSON-friendly so counterexample
reports can say exactly which configuration diverged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import ALGORITHMS, Biclique, MBEResult
from repro.core.mbet import MBET, _ListQ

#: Engines the harness exercises by default.  ``bruteforce`` is excluded —
#: it is the harness's *reference*, consulted separately on small graphs.
DEFAULT_ENGINE_NAMES: tuple[str, ...] = (
    "naive", "mbea", "imbea", "pmbe", "oombea",
    "mbet", "mbetm", "parallel",
)

#: Engines that implement size-constrained mining (min_left / min_right).
CONSTRAINED_ENGINES: frozenset[str] = frozenset(
    {"mbet", "mbetm", "parallel"}
)

#: Option variants sampled per case, exercising ablation flags and the
#: trie / trie-overflow / slicing paths that plain defaults never reach
#: (``mbet`` builds the trie only where ``use_trie=True`` pins it; the
#: parallel engine splits roots only with more than one worker).
ENGINE_VARIANTS: dict[str, tuple[dict[str, Any], ...]] = {
    "mbet": (
        {}, {"use_trie": True}, {"use_trie": False}, {"use_merge": False},
        {"use_sort": False}, {"use_trie": True, "trie_max_nodes": 4},
        {"orient_smaller_v": True},
    ),
    "mbetm": ({}, {"use_trie": False}, {"max_nodes": 8}),
    "parallel": (
        {"workers": 2, "bound_height": 1, "bound_size": 1},
        # engine_options as a pair-tuple keeps the spec hashable
        {
            "workers": 2, "bound_height": 1, "bound_size": 1,
            "engine_options": (("use_trie", True),),
        },
        {"workers": 2, "bound_height": 1, "bound_size": 8},
        {"workers": 1},
    ),
    "oombea": ({}, {"order": "random"}),
}


class UnreducedMBET(MBET):
    """MBET scanning its whole initial traversed set: the harness's
    reference for the default store's cut to maximal signatures (not in
    the algorithm registry)."""

    name = "mbet_unreduced"

    def _make_store(self, traversed):
        return _ListQ(traversed)


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration under test."""

    name: str
    options: tuple[tuple[str, Any], ...] = ()
    factory: Callable[..., Any] | None = field(default=None, compare=False)

    @classmethod
    def make(
        cls, name: str, factory: Callable[..., Any] | None = None,
        **options: Any,
    ) -> "EngineSpec":
        return cls(name, tuple(sorted(options.items())), factory)

    def opts(self) -> dict[str, Any]:
        return dict(self.options)

    def label(self) -> str:
        if not self.options:
            return self.name
        body = ",".join(f"{k}={v}" for k, v in self.options)
        return f"{self.name}[{body}]"

    def with_options(self, **overrides: Any) -> "EngineSpec":
        merged = {**self.opts(), **overrides}
        return EngineSpec.make(self.name, factory=self.factory, **merged)

    def build(self, **extra: Any):
        """Instantiate the algorithm object."""
        factory = self.factory if self.factory is not None else ALGORITHMS[self.name]
        return factory(**{**self.opts(), **extra})

    def run(self, graph: BipartiteGraph, **run_kwargs: Any) -> MBEResult:
        """Run the engine on ``graph`` with the spec's constructor options."""
        return self.build().run(graph, **run_kwargs)

    def result_set(self, graph: BipartiteGraph) -> frozenset[Biclique]:
        return self.run(graph, collect=True).biclique_set()


def default_engines(names: Sequence[str] | None = None) -> list[EngineSpec]:
    """Plain (no-variant) specs for ``names`` (default: the full battery)."""
    return [EngineSpec.make(n) for n in (names or DEFAULT_ENGINE_NAMES)]


def sample_variant(name: str, rng: random.Random) -> EngineSpec:
    """A spec for ``name`` with one sampled option variant."""
    variants = ENGINE_VARIANTS.get(name, ({},))
    return EngineSpec.make(name, **rng.choice(variants))
