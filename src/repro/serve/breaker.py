"""Per-engine circuit breakers and the fallback chain.

An engine that keeps crashing or timing out should stop being handed
jobs: every attempt costs a full (possibly budget-long) execution before
failing, and a poisoned engine (bad native dependency, pathological
input class) would otherwise fail every job routed at it.  The classic
three-state breaker:

* **closed** — healthy; failures increment a consecutive-failure count,
  any success resets it.  ``failure_threshold`` consecutive failures
  trip the breaker **open**.
* **open** — calls are refused outright for ``cooldown`` seconds; the
  service routes to the next engine in the fallback chain instead.
* **half-open** — after the cooldown one *probe* call is let through.
  Success closes the breaker; failure reopens it (and restarts the
  cooldown).

The default fallback chain is ``mbet`` → ``mbea``: the paper's engine,
then the one baseline that shares no code with it, so a fault in MBET's
search cannot take the fallback down too.  A requested engine outside
the chain is tried first, then the chain.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

__all__ = ["BreakerOpen", "BreakerRegistry", "CircuitBreaker", "FALLBACK_CHAIN"]

#: Engines tried, in order, after the requested one (de-duplicated).
FALLBACK_CHAIN = ("mbet", "mbea")

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Numeric encoding of states for the ``serve_breaker_state`` gauge.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class BreakerOpen(RuntimeError):
    """Raised by :meth:`CircuitBreaker.acquire` when calls are refused."""


class CircuitBreaker:
    """Thread-safe closed → open → half-open breaker for one engine."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    def _transition(self, to: str) -> None:
        if to != self._state:
            frm, self._state = self._state, to
            if self._on_transition is not None:
                self._on_transition(self.name, frm, to)

    @property
    def state(self) -> str:
        """Current state, promoting open → half-open when cooled down."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._transition(HALF_OPEN)
            self._probe_inflight = False

    def acquire(self) -> None:
        """Claim permission to call the engine; raises :class:`BreakerOpen`.

        In half-open state exactly one caller gets through (the probe);
        concurrent callers are refused until it reports back.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == OPEN:
                raise BreakerOpen(
                    f"engine {self.name!r}: breaker open for another "
                    f"{self.cooldown - (self._clock() - self._opened_at):.1f}s"
                )
            if self._state == HALF_OPEN:
                if self._probe_inflight:
                    raise BreakerOpen(
                        f"engine {self.name!r}: half-open probe already "
                        f"in flight"
                    )
                self._probe_inflight = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                # the probe failed: straight back to open, fresh cooldown
                self._probe_inflight = False
                self._opened_at = self._clock()
                self._transition(OPEN)
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition(OPEN)


class BreakerRegistry:
    """One breaker per engine plus fallback-chain resolution."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        chain: Iterable[str] = FALLBACK_CHAIN,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str, str], None] | None = None,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.chain = tuple(chain)
        self._clock = clock
        self._on_transition = on_transition
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, engine: str) -> CircuitBreaker:
        with self._lock:
            b = self._breakers.get(engine)
            if b is None:
                b = CircuitBreaker(
                    engine,
                    failure_threshold=self.failure_threshold,
                    cooldown=self.cooldown,
                    clock=self._clock,
                    on_transition=self._on_transition,
                )
                self._breakers[engine] = b
            return b

    def resolve(self, engine: str) -> list[str]:
        """Engines to try for a job, requested engine first, no repeats."""
        out = [engine]
        out.extend(e for e in self.chain if e != engine)
        return out

    def states(self) -> dict[str, str]:
        """Snapshot of every known breaker's state (for /readyz, metrics)."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {b.name: b.state for b in breakers}
