"""The fuzz loop: generate cases, run the oracle battery, shrink failures.

One :func:`run_fuzz` call drives a seeded stream of graph cases (plus any
requested dataset-zoo cases) through the oracles from
:mod:`repro.check.oracles`.  The first failing oracle on a case stops that
case; the failure is shrunk to a 1-minimal counterexample and recorded.
The loop is bounded by wall-clock (``time_budget``), case count
(``max_cases``), and counterexample count (``max_failures``), whichever
trips first.

Exposed as the ``repro fuzz`` CLI subcommand and the nightly CI fuzz job.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.check.cases import GraphCase, dataset_cases, sample_case
from repro.check.engines import (
    CONSTRAINED_ENGINES,
    DEFAULT_ENGINE_NAMES,
    EngineSpec,
    UnreducedMBET,
    sample_variant,
)
from repro.check.oracles import (
    Oracle,
    OracleCut,
    OracleFailure,
    agreement_oracle,
    budget_prefix_oracle,
    kill_resume_oracle,
    plan_oracle,
    relabel_oracle,
    setops_oracle,
    swap_oracle,
    threshold_oracle,
)
from repro.check.report import Counterexample
from repro.check.shrink import shrink_graph

#: Oracle names the harness knows how to schedule.
ALL_ORACLES: tuple[str, ...] = (
    "agreement", "setops", "relabel", "swap", "threshold", "budget_prefix",
    "kill_resume", "plan",
)

#: Run the kill/resume oracle only on every Nth random case — it runs the
#: parallel driver four times per application.
KILL_RESUME_EVERY = 8


@dataclass
class FuzzConfig:
    """One fuzzing campaign's knobs."""

    seed: int = 0
    time_budget: float | None = None      # wall-clock seconds
    max_cases: int | None = None          # random cases (datasets extra)
    engines: tuple[str, ...] = DEFAULT_ENGINE_NAMES
    oracles: tuple[str, ...] = ALL_ORACLES
    datasets: tuple[str, ...] = ()        # zoo keys run once, up front
    max_side: int = 12                    # random-case side bound
    shrink: bool = True
    max_failures: int = 5
    shrink_max_evals: int = 3000
    #: swap the deliberately-broken engine in (self-test mode)
    broken_engine: bool = False

    def validate(self) -> None:
        if self.time_budget is None and self.max_cases is None:
            raise ValueError("set time_budget and/or max_cases")
        unknown = set(self.oracles) - set(ALL_ORACLES)
        if unknown:
            raise ValueError(f"unknown oracles: {sorted(unknown)}")
        if not self.engines:
            raise ValueError("at least one engine is required")


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    cases: int = 0
    oracle_runs: Counter = field(default_factory=Counter)
    failures: list[Counterexample] = field(default_factory=list)
    elapsed: float = 0.0
    stopped: str = "exhausted"   # "exhausted" | "time_budget" | "max_failures"

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_json(self) -> dict[str, Any]:
        return {
            "type": "summary",
            "cases": self.cases,
            "oracle_runs": dict(self.oracle_runs),
            "failures": [cx.as_json() for cx in self.failures],
            "elapsed": round(self.elapsed, 3),
            "stopped": self.stopped,
            "ok": self.ok,
        }


def _engine_pool(config: FuzzConfig, rng: random.Random) -> list[EngineSpec]:
    """Per-case engine specs: sampled option variants, the unreduced-scan
    reference, and the broken one."""
    pool = [sample_variant(name, rng) for name in config.engines]
    if "mbet" in config.engines:
        pool.append(EngineSpec.make("mbet_unreduced", factory=UnreducedMBET))
    if config.broken_engine:
        from repro.check.selftest import BrokenMBET

        pool.append(EngineSpec.make("broken_mbet", factory=BrokenMBET))
    return pool


def _case_oracles(
    config: FuzzConfig,
    rng: random.Random,
    engines: list[EngineSpec],
    case_index: int,
    dataset: bool,
    out_of_time: Callable[[], bool] | None = None,
) -> list[tuple[str, Oracle]]:
    """Schedule the oracle battery for one case."""
    battery: list[tuple[str, Oracle]] = []
    wanted = set(config.oracles)
    if "agreement" in wanted:
        battery.append((
            "agreement", agreement_oracle(engines, out_of_time=out_of_time)
        ))
    if "setops" in wanted:
        # cheap (no enumeration), so it runs on every case — random and
        # dataset alike; seeded per case for reproducible rows
        battery.append(
            ("setops", setops_oracle(seed=rng.randrange(2**16)))
        )
    if dataset:
        # metamorphic oracles re-run engines several times over; on zoo
        # graphs agreement (all engines, definitional audit) is the value
        return battery
    pick = rng.choice(engines)
    if "relabel" in wanted:
        battery.append(
            ("relabel", relabel_oracle(pick, seed=rng.randrange(2**16)))
        )
    if "swap" in wanted:
        battery.append(("swap", swap_oracle(rng.choice(engines))))
    if "threshold" in wanted:
        constrained = [
            e for e in engines if e.name in CONSTRAINED_ENGINES
        ]
        if constrained:
            battery.append((
                "threshold",
                threshold_oracle(
                    rng.choice(constrained),
                    min_left=rng.randint(1, 3),
                    min_right=rng.randint(1, 3),
                ),
            ))
    if "budget_prefix" in wanted:
        battery.append((
            "budget_prefix",
            budget_prefix_oracle(rng.choice(engines), cap=rng.randint(1, 6)),
        ))
    if "kill_resume" in wanted and case_index % KILL_RESUME_EVERY == 0:
        battery.append(("kill_resume", kill_resume_oracle()))
    if "plan" in wanted:
        battery.append((
            "plan",
            plan_oracle(
                min_left=rng.randint(1, 3), min_right=rng.randint(1, 3)
            ),
        ))
    return battery


def run_fuzz(
    config: FuzzConfig,
    on_case: Callable[[dict[str, Any]], None] | None = None,
    echo: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run one fuzzing campaign; see :class:`FuzzConfig`.

    ``on_case`` receives one JSON-able record per case (the JSONL report
    stream); ``echo`` receives human-oriented progress lines.
    """
    config.validate()
    rng = random.Random(config.seed)
    report = FuzzReport()
    start = time.perf_counter()

    shrinking = False

    def out_of_time() -> bool:
        return (
            config.time_budget is not None
            and time.perf_counter() - start > config.time_budget
        )

    def oracle_out_of_time() -> bool:
        # shrinking a found counterexample runs to its end, as ever
        return not shrinking and out_of_time()

    queue: list[tuple[GraphCase, bool]] = [
        (case, True) for case in dataset_cases(config.datasets)
    ]
    case_index = 0
    while True:
        if out_of_time():
            report.stopped = "time_budget"
            break
        if queue:
            case, is_dataset = queue.pop(0)
        else:
            if config.max_cases is not None and case_index >= config.max_cases:
                report.stopped = "exhausted"
                break
            case, is_dataset = sample_case(rng, config.max_side), False
        graph = case.build()
        engines = _engine_pool(config, rng)
        battery = _case_oracles(
            config, rng, engines, case_index, is_dataset, oracle_out_of_time
        )
        case_seed = config.seed * 1_000_003 + case_index
        failure: OracleFailure | None = None
        failed_oracle: Oracle | None = None
        cut = False
        for name, oracle in battery:
            # one oracle can run every engine on a zoo graph, so the clock
            # is read between oracles, and agreement reads it between
            # engines too; a cut case is neither counted nor reported ok
            if out_of_time():
                cut = True
                break
            report.oracle_runs[name] += 1
            try:
                failure = oracle(graph)
            except OracleCut:
                cut = True
                break
            if failure is not None:
                failed_oracle = oracle
                break
        if cut:
            report.stopped = "time_budget"
            break
        record: dict[str, Any] = {
            "type": "case",
            "index": case_index,
            "case": case.as_json(),
            "graph": f"{graph.n_u}x{graph.n_v}:{graph.n_edges}e",
            "oracles": [name for name, _ in battery],
            "ok": failure is None,
        }
        if failure is not None:
            shrunk_graph = graph
            shrinking = True
            if config.shrink and failed_oracle is not None:
                shrunk_graph = shrink_graph(
                    graph,
                    lambda g: failed_oracle(g) is not None,
                    max_evals=config.shrink_max_evals,
                )
                # re-describe the failure on the minimized graph
                failure = failed_oracle(shrunk_graph) or failure
            shrinking = False
            cx = Counterexample(
                oracle=failure.oracle,
                engine=failure.engine,
                detail=failure.detail,
                case=case,
                shrunk=GraphCase.explicit(shrunk_graph),
                seed=case_seed,
            )
            report.failures.append(cx)
            record["failure"] = cx.as_json()
            if echo is not None:
                echo(
                    f"counterexample #{len(report.failures)}: {failure} "
                    f"(shrunk to {shrunk_graph.n_u}+{shrunk_graph.n_v} "
                    f"vertices, {shrunk_graph.n_edges} edges)"
                )
        if on_case is not None:
            on_case(record)
        case_index += 1
        report.cases = case_index
        if len(report.failures) >= config.max_failures:
            report.stopped = "max_failures"
            break
        if echo is not None and case_index % 25 == 0:
            elapsed = time.perf_counter() - start
            echo(
                f"{case_index} cases, {len(report.failures)} "
                f"counterexamples, {elapsed:.1f}s"
            )
    report.elapsed = time.perf_counter() - start
    if on_case is not None:
        on_case(report.as_json())
    return report
