"""Command-line interface: ``python -m repro`` / ``repro-mbe``.

Subcommands
-----------
``run``          enumerate maximal bicliques of a zoo dataset or edge list
``plan``         cost-model plan: engine/ordering/parallelism/budget for a
                 graph, with per-candidate scores (docs/planning.md)
``serve``        run the embedded enumeration service (docs/serving.md)
``cluster``      coordinate a federated job across serve workers
                 (docs/cluster.md)
``profile``      run one algorithm and print its phase/prune breakdown
``fuzz``         differential/metamorphic fuzzing of the engines
                 (docs/testing.md); nonzero exit on counterexample
``analyze``      enumerate + summarize (histogram, top-k, busiest vertices)
``max``          branch-and-bound search for one maximum biclique
``verify``       audit a saved biclique file against its graph
``generate``     write a synthetic bipartite graph to an edge-list file
``stats``        print a graph's statistics row
``cache``        inspect/maintain the artifact store (docs/artifacts.md)
``datasets``     list the dataset zoo
``algorithms``   list registered algorithms
``experiments``  regenerate the reconstructed evaluation (see DESIGN.md §4)

Observability flags (``run`` and ``profile``; see docs/observability.md):
``--metrics-out`` writes the run's metric registry as Prometheus text,
``--trace-out`` writes the span/event log as JSONL, and ``--progress``
streams heartbeats to stderr as a live TTY line or JSONL records.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import datasets
from repro.bench.experiments import available_experiments, run_experiment
from repro.bench.tables import format_table, markdown_table
from repro.bigraph.io import GraphFormatError, read_edge_list
from repro.bigraph.stats import compute_stats
from repro.core.base import available_algorithms, run_mbe
from repro.runtime.budget import RunBudget
from repro.runtime.checkpoint import CheckpointError

#: exit code for a run cut short by SIGINT/SIGTERM (shell convention)
EXIT_INTERRUPTED = 130


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return datasets.load(args.dataset), args.dataset
    graph = read_edge_list(args.input, fmt=args.format)
    return graph, args.input


def _make_instrumentation(args: argparse.Namespace, always: bool = False):
    """Build an Instrumentation from the obs flags; None when unused."""
    from repro.obs import Instrumentation, ProgressReporter

    wants = always or args.metrics_out or args.trace_out or args.progress
    if not wants:
        return None
    progress = None
    if args.progress:
        progress = ProgressReporter(mode=args.progress)
    return Instrumentation(progress=progress)


def _write_obs_outputs(instr, args: argparse.Namespace) -> None:
    """Flush the metric/trace sinks the obs flags asked for."""
    if args.metrics_out:
        from repro.obs import write_prometheus

        write_prometheus(instr.registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        from repro.obs import write_trace_jsonl

        lines = write_trace_jsonl(instr.tracer, args.trace_out)
        print(f"wrote {lines} trace records to {args.trace_out}",
              file=sys.stderr)


def _install_cancel_handlers(event) -> dict | None:
    """Route SIGINT/SIGTERM into a cooperative cancel event.

    Returns the previous handlers (for restoration), or None when signal
    handling is unavailable (non-main thread, e.g. under some test
    runners) — callers then simply run without graceful interruption.
    """
    import signal

    def _flip(signum, _frame):
        if event.is_set():
            # second signal: the user really means it
            raise KeyboardInterrupt
        event.set()
        print(
            f"interrupted (signal {signum}) — stopping at the next budget "
            f"check, partial results follow",
            file=sys.stderr,
        )

    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _flip)
    except ValueError:
        return None
    return previous


def _restore_handlers(previous: dict | None) -> None:
    if previous is None:
        return
    import signal

    for sig, old in previous.items():
        signal.signal(sig, old)


def _run_cache_enabled(args: argparse.Namespace) -> bool:
    """``--cache`` / ``--cache-dir`` turn the artifact store on;
    ``--no-cache`` wins over both."""
    if args.no_cache:
        return False
    return bool(args.cache or args.cache_dir)


def _emit_cached_run(args: argparse.Namespace, name: str, hit: dict) -> int:
    """Print the standard run summary for a result-cache hit."""
    print(
        f"{args.algorithm} on {name}: {hit['count']:,} bicliques, "
        f"cached (originally {hit['elapsed']:.3f}s)",
        file=sys.stderr,
    )
    print(
        f"{args.algorithm} on {name}: {hit['count']:,} maximal bicliques "
        f"(cached result; original run took {hit['elapsed']:.3f}s)"
    )
    if args.output:
        from repro.core.base import Biclique
        from repro.core.io_results import write_bicliques

        bicliques = [
            Biclique.make(left, right) for left, right in hit["bicliques"]
        ]
        written = write_bicliques(bicliques, args.output)
        print(f"wrote {written:,} bicliques to {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import threading

    instr = _make_instrumentation(args)
    use_cache = _run_cache_enabled(args)
    # the result cache only answers for unconstrained runs: a budget can
    # legitimately truncate, and a truncated answer must never be served
    # as "the" answer (nor is a complete one what a budgeted caller pins)
    budgeted = (
        args.max_bicliques is not None
        or args.time_limit is not None
        or args.max_nodes is not None
    )
    store = None
    gk = None
    if use_cache:
        from repro import artifacts

        store = artifacts.open_store(args.cache_dir)
        if (
            args.algorithm is not None
            and args.input
            and not budgeted
            and args.checkpoint is None
        ):
            # warm path: an unchanged file's key comes from the source
            # index, so a repeat run can finish without touching the graph
            # (planned runs skip this: the planner needs the graph)
            gk = artifacts.peek_graph_key(args.input, store, fmt=args.format)
            if gk is not None:
                hit = artifacts.get_cached_result(
                    store, gk, artifacts.result_fingerprint(args.algorithm),
                    need_bicliques=args.output is not None,
                )
                if hit is not None:
                    return _emit_cached_run(args, args.input, hit)
        if args.dataset:
            graph, name = datasets.load(args.dataset), args.dataset
            gk = artifacts.graph_key(graph)
        else:
            graph, gk, _was_cached = artifacts.load_graph_cached(
                args.input, store, fmt=args.format
            )
            name = args.input
    else:
        graph, name = _load_graph(args)
    if args.algorithm is None:
        # no explicit --algorithm: the cost-model planner picks the
        # engine for this graph (docs/planning.md)
        from repro.plan import build_plan

        plan = build_plan(graph, graph_key=gk, store=store)
        args.algorithm = plan.chosen.engine
        print(
            f"planned: engine={plan.chosen.engine} "
            f"predicted={plan.chosen.predicted_seconds:.3f}s "
            f"('repro plan' explains; --algorithm overrides)",
            file=sys.stderr,
        )
    if store is not None and not budgeted and args.checkpoint is None:
        from repro import artifacts

        hit = artifacts.get_cached_result(
            store, gk, artifacts.result_fingerprint(args.algorithm),
            need_bicliques=args.output is not None,
        )
        if hit is not None:
            return _emit_cached_run(args, name, hit)
    collect = args.output is not None
    options = {}
    if args.checkpoint is not None:
        if args.algorithm != "parallel":
            print("error: --checkpoint requires --algorithm parallel",
                  file=sys.stderr)
            return 2
        options["checkpoint"] = args.checkpoint
    if store is not None:
        from repro import artifacts

        # cost pre-flight (persisted stats scan), and the ordering it
        # produces is threaded straight into the engine — the same
        # invocation never computes the same permutation twice
        cost = artifacts.cached_cost(store, gk, graph)
        print(f"pre-flight: cost estimate {cost:,} "
              f"(|E|*max(1,D2))", file=sys.stderr)
        import inspect

        from repro.core.base import ALGORITHMS

        factory = ALGORITHMS.get(args.algorithm)
        if factory is not None:
            try:
                params = inspect.signature(factory).parameters
            except (TypeError, ValueError):  # pragma: no cover
                params = {}
            if "order" in params:
                options["order"] = artifacts.cached_vertex_order(
                    store, gk, graph, "degree", 0
                )
    cancel_event = threading.Event()
    previous_handlers = _install_cancel_handlers(cancel_event)
    budget = None
    if (
        previous_handlers is not None
        or args.max_bicliques is not None
        or args.time_limit is not None
        or args.max_nodes is not None
    ):
        budget = RunBudget(
            time_limit=args.time_limit,
            max_bicliques=args.max_bicliques,
            max_nodes=args.max_nodes,
            cancel=cancel_event.is_set,
        )
    # the cancel handlers stay installed until the output and obs files
    # are written: a signal in that window lets the writes finish, then
    # the run exits EXIT_INTERRUPTED
    try:
        result = run_mbe(
            graph,
            algorithm=args.algorithm,
            collect=collect,
            budget=budget,
            instrumentation=instr,
            **options,
        )
        return _finish_run(args, result, store, gk, name, instr,
                           cancel_event)
    finally:
        _restore_handlers(previous_handlers)


def _finish_run(args: argparse.Namespace, result, store, gk, name: str,
                instr, cancel_event) -> int:
    """Cache, report and write one finished ``repro run`` result."""
    if store is not None and result.complete:
        from repro import artifacts

        artifacts.put_cached_result(
            store, gk, artifacts.result_fingerprint(args.algorithm),
            engine=args.algorithm, count=result.count,
            elapsed=result.elapsed,
            bicliques=(
                [(b.left, b.right) for b in result.bicliques]
                if result.bicliques is not None else None
            ),
        )
    cancelled = result.meta.get("stopped") == "cancelled"
    if result.complete:
        status = "complete"
    elif cancelled:
        status = "partial: interrupted"
    else:
        status = f"partial: {result.meta.get('stopped', 'task failures')}"
    # one-line summary on stderr, so a run whose stdout is redirected (or
    # that writes no output file) is never silent
    print(
        f"{args.algorithm} on {name}: {result.count:,} bicliques, "
        f"{result.elapsed:.3f}s, {result.stats.nodes:,} nodes ({status})",
        file=sys.stderr,
    )
    print(
        f"{args.algorithm} on {name}: {result.count:,} maximal bicliques "
        f"in {result.elapsed:.3f}s ({status})"
    )
    interesting = {k: v for k, v in result.stats.as_dict().items() if v}
    print("stats:", ", ".join(f"{k}={v:,}" for k, v in interesting.items()))
    if result.meta.get("resumed_tasks"):
        print(f"resumed {result.meta['resumed_tasks']:,} of "
              f"{result.meta['tasks']:,} tasks from {args.checkpoint}")
    for failure in result.meta.get("failures", ()):
        print(
            f"task {tuple(failure['task'])} failed after "
            f"{failure['attempts']} attempts: {failure['error']}",
            file=sys.stderr,
        )
    if args.output:
        from repro.core.io_results import write_bicliques

        written = write_bicliques(result.bicliques or (), args.output)
        qualifier = "partial " if not result.complete else ""
        print(f"wrote {written:,} {qualifier}bicliques to {args.output}")
    if instr is not None:
        _write_obs_outputs(instr, args)
    if cancelled or cancel_event.is_set():
        if cancelled and args.checkpoint is not None:
            print(f"checkpoint flushed to {args.checkpoint}; rerun with the "
                  f"same --checkpoint to resume", file=sys.stderr)
        return EXIT_INTERRUPTED
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Print the planner's choice (and, with --explain, the full ranking)."""
    import json as _json

    from repro.plan import PlanError, build_plan

    store = None
    gk = None
    if _run_cache_enabled(args):
        from repro import artifacts

        store = artifacts.open_store(args.cache_dir)
        if args.dataset:
            graph, name = datasets.load(args.dataset), args.dataset
            gk = artifacts.graph_key(graph)
        else:
            graph, gk, _was_cached = artifacts.load_graph_cached(
                args.input, store, fmt=args.format
            )
            name = args.input
    else:
        graph, name = _load_graph(args)
    engines = (
        tuple(e for e in args.engines.split(",") if e)
        if args.engines else None
    )
    try:
        plan = build_plan(
            graph, graph_key=gk, store=store, engines=engines,
            min_left=args.min_left, min_right=args.min_right,
            n_cores=args.cores,
        )
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(plan.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"plan for {name}:")
    if args.explain:
        print(plan.explain())
    else:
        chosen = plan.chosen
        print(
            f"engine={chosen.engine} ordering={chosen.ordering} "
            f"workers={chosen.workers} budget={plan.budget_seconds:.1f}s "
            f"predicted={chosen.predicted_seconds:.4f}s"
        )
        print("(--explain lists every candidate with scores and reasons)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the embedded enumeration service until SIGTERM/SIGINT."""
    from repro.serve import ServiceConfig, run_server

    mb = 1024 * 1024
    config = ServiceConfig(
        state_dir=args.state_dir,
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        max_cost=args.max_cost,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        soft_limit_bytes=(
            args.soft_limit_mb * mb if args.soft_limit_mb else None
        ),
        hard_limit_bytes=(
            args.hard_limit_mb * mb if args.hard_limit_mb else None
        ),
        max_in_ram=args.max_in_ram,
        default_time_limit=args.default_time_limit,
        drain_timeout=args.drain_timeout,
        allow_faults=args.allow_faults,
        default_retry_after=args.retry_after_default,
        journal_max_bytes=(
            args.journal_max_mb * mb if args.journal_max_mb else None
        ),
        artifacts_dir=args.artifacts_dir,
        result_cache=not args.no_result_cache,
    )
    return run_server(config, host=args.host, port=args.port)


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Coordinate a federated enumeration job over serve workers."""
    from repro.cluster import ClusterConfig, ClusterCoordinator

    if args.dataset:
        source = {"dataset": args.dataset}
    else:
        source = {"graph_path": args.input, "fmt": args.format}
    config = ClusterConfig(
        state_dir=args.state_dir,
        workers=list(args.worker),
        n_slices=args.slices,
        order=args.order,
        seed=args.seed,
        min_left=args.min_left,
        min_right=args.min_right,
        time_limit=args.time_limit,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        max_slice_retries=args.max_retries,
        straggler_factor=(
            "auto" if args.straggler_factor == "auto"
            else float(args.straggler_factor) or None
        ),
        collect=args.output is not None,
    )
    coordinator = ClusterCoordinator(config)
    import signal as _signal

    def _on_signal(signum, _frame):
        print(f"cluster: received signal {signum}, draining", file=sys.stderr)
        coordinator.cancel()

    try:
        _signal.signal(_signal.SIGTERM, _on_signal)
        _signal.signal(_signal.SIGINT, _on_signal)
    except ValueError:
        pass  # non-main thread (tests): run without graceful interruption
    try:
        result = coordinator.run(source)
    finally:
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(coordinator.metrics_text())
            print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
        coordinator.close()
    qualifier = "" if result.complete else "PARTIAL "
    print(
        f"{qualifier}federated count: {result.count:,} maximal bicliques "
        f"in {result.elapsed:.2f}s over {result.meta['slices']} slice(s), "
        f"{result.meta['completed_slices']} completed"
    )
    if not result.complete:
        print(
            f"stopped: {result.meta.get('stopped')}; missing root ranges: "
            f"{result.meta.get('missing_ranges')}",
            file=sys.stderr,
        )
    if args.output and result.bicliques is not None:
        from repro.core.io_results import write_bicliques

        written = write_bicliques(result.bicliques, args.output)
        print(f"wrote {written:,} bicliques to {args.output}")
    if result.meta.get("stopped") == "cancelled":
        return EXIT_INTERRUPTED
    return 0 if result.complete else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one algorithm under full instrumentation; print the breakdown."""
    instr = _make_instrumentation(args, always=True)
    with instr.phase("load"):
        graph, name = _load_graph(args)
    result = run_mbe(
        graph,
        algorithm=args.algorithm,
        collect=args.verify,
        time_limit=args.time_limit,
        instrumentation=instr,
    )
    if args.verify:
        from repro.core.verify import VerificationError, verify_result

        with instr.phase("verify"):
            try:
                verify_result(graph, result.bicliques or ())
            except VerificationError as exc:
                print(f"verification FAILED: {exc}", file=sys.stderr)
                return 1

    status = "complete" if result.complete else (
        f"partial: {result.meta.get('stopped', 'task failures')}"
    )
    print(
        f"{args.algorithm} on {name}: {result.count:,} maximal bicliques "
        f"in {result.elapsed:.3f}s ({status})"
    )

    durations = instr.tracer.phase_durations()
    total = sum(durations.values()) or 1.0
    print("\nphase breakdown:")
    print(format_table(
        ["phase", "seconds", "share"],
        [
            [phase, f"{seconds:.4f}", f"{100 * seconds / total:.1f}%"]
            for phase, seconds in durations.items()
        ],
    ))

    st = result.stats
    explored = st.nodes + st.non_maximal + st.threshold_pruned
    rows = [
        ["subtrees", f"{st.subtrees:,}", "first-level subproblems"],
        ["nodes", f"{st.nodes:,}", "enumeration-tree nodes expanded"],
        ["maximal", f"{st.maximal:,}", "bicliques reported"],
        ["non_maximal", f"{st.non_maximal:,}",
         _share(st.non_maximal, explored, "of branches cut as duplicates")],
        ["threshold_pruned", f"{st.threshold_pruned:,}",
         _share(st.threshold_pruned, explored, "of branches cut by bounds")],
        ["merged_candidates", f"{st.merged_candidates:,}",
         "candidates absorbed by signature merging"],
        ["checks", f"{st.checks:,}",
         "containment steps (sets scanned, trie nodes visited)"],
        ["trie_pruned", f"{st.trie_pruned:,}",
         _share(st.trie_pruned, st.trie_pruned + st.checks,
                "of containment work avoided by the prefix tree")],
        ["intersections", f"{st.intersections:,}",
         "neighbourhood intersections"],
    ]
    if st.trie_peak_nodes:
        rows.append(["trie_peak_nodes", f"{st.trie_peak_nodes:,}",
                     "peak prefix-tree size"])
    if st.trie_overflow:
        rows.append(["trie_overflow", f"{st.trie_overflow:,}",
                     "inserts past the trie budget"])
    print("\nprune breakdown:")
    print(format_table(["counter", "value", "meaning"], rows))

    _write_obs_outputs(instr, args)
    return 0


def _share(part: int, whole: int, caption: str) -> str:
    if whole <= 0:
        return caption
    return f"{100 * part / whole:.1f}% {caption}"


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing over random graphs and the dataset zoo."""
    import json

    from repro.check import FuzzConfig, run_fuzz, write_counterexample
    from repro.check.engines import DEFAULT_ENGINE_NAMES
    from repro.check.harness import ALL_ORACLES

    engines = (
        tuple(args.engines.split(",")) if args.engines
        else DEFAULT_ENGINE_NAMES
    )
    unknown = set(engines) - set(available_algorithms())
    if unknown:
        print(f"error: unknown engines: {sorted(unknown)}", file=sys.stderr)
        return 2
    oracles = tuple(args.oracles.split(",")) if args.oracles else ALL_ORACLES
    if args.zoo:
        dataset_keys = tuple(datasets.names())
    else:
        dataset_keys = tuple(args.datasets.split(",")) if args.datasets else ()
    config = FuzzConfig(
        seed=args.seed,
        time_budget=args.time,
        max_cases=args.cases,
        engines=engines,
        oracles=oracles,
        datasets=dataset_keys,
        max_side=args.max_side,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        broken_engine=args.self_test,
    )
    if config.time_budget is None and config.max_cases is None:
        config.max_cases = 50
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sink = None
    handle = None
    if args.report:
        handle = open(args.report, "w", encoding="utf-8")

        def sink(record: dict) -> None:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()

    try:
        report = run_fuzz(
            config, on_case=sink,
            echo=lambda line: print(line, file=sys.stderr),
        )
    finally:
        if handle is not None:
            handle.close()
            print(f"wrote JSONL report to {args.report}", file=sys.stderr)

    for cx in report.failures:
        print(f"FAIL {cx.oracle}[{cx.engine}]: {cx.detail}")
        if args.artifacts:
            json_path, py_path = write_counterexample(cx, args.artifacts)
            print(f"  repro: {json_path}")
            print(f"  pytest case: {py_path}")
    print(
        f"fuzz: {report.cases} cases, "
        f"{sum(report.oracle_runs.values())} oracle runs "
        f"({', '.join(f'{k}={v}' for k, v in sorted(report.oracle_runs.items()))}), "
        f"{len(report.failures)} counterexamples in {report.elapsed:.1f}s "
        f"({report.stopped})"
    )
    if args.self_test:
        caught = [
            cx for cx in report.failures
            if "broken_mbet" in cx.engine and cx.n_vertices <= 8
        ]
        if caught:
            print(
                f"self-test OK: broken engine caught and shrunk to "
                f"{caught[0].n_vertices} vertices"
            )
            return 0
        print("self-test FAILED: broken engine not caught (or not shrunk "
              "to <= 8 vertices)")
        return 1
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.io_results import read_bicliques
    from repro.core.verify import VerificationError, verify_result

    graph, name = _load_graph(args)
    bicliques = read_bicliques(args.bicliques)
    expected = None
    if args.complete:
        expected = run_mbe(graph, "mbet").bicliques
    try:
        count = verify_result(graph, bicliques, expected=expected)
    except VerificationError as exc:
        print(f"FAIL: {exc}")
        return 1
    suffix = " and the collection is complete" if args.complete else ""
    print(f"OK: {count:,} bicliques of {name} are maximal and "
          f"duplicate-free{suffix}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        size_histogram,
        summarize,
        top_k_by_area,
        vertex_participation,
    )

    graph, name = _load_graph(args)
    result = run_mbe(
        graph,
        algorithm=args.algorithm,
        min_left=args.min_left,
        min_right=args.min_right,
    )
    assert result.bicliques is not None
    print(f"{name}: {result.count:,} maximal bicliques "
          f"(|L| >= {args.min_left}, |R| >= {args.min_right}) "
          f"in {result.elapsed:.3f}s")

    summary = summarize(result.bicliques)
    print(format_table(
        ["metric", "value"],
        [
            ["count", summary.count],
            ["max |L|", summary.max_left],
            ["max |R|", summary.max_right],
            ["max area", summary.max_area],
            ["total area", summary.total_area],
            ["mean |L|", round(summary.mean_left, 2)],
            ["mean |R|", round(summary.mean_right, 2)],
        ],
    ))

    hist = size_histogram(result.bicliques)
    common = sorted(hist.items(), key=lambda kv: -kv[1])[:8]
    print("\nmost common shapes (|L| x |R| : count):")
    print(format_table(
        ["|L|", "|R|", "count"], [[nl, nr, c] for (nl, nr), c in common]
    ))

    print(f"\ntop {args.top} bicliques by area:")
    rows = [
        [",".join(map(str, b.left)), ",".join(map(str, b.right)), b.n_edges]
        for b in top_k_by_area(result.bicliques, args.top)
    ]
    print(format_table(["left", "right", "area"], rows))

    left_counts, right_counts = vertex_participation(result.bicliques)
    busiest_u = left_counts.most_common(args.top)
    busiest_v = right_counts.most_common(args.top)
    print("\nbusiest vertices (memberships):")
    print(format_table(
        ["side", "vertex", "bicliques"],
        [["U", u, c] for u, c in busiest_u]
        + [["V", v, c] for v, c in busiest_v],
    ))
    return 0


def _cmd_max(args: argparse.Namespace) -> int:
    from repro.core.maxsearch import find_maximum_biclique

    graph, name = _load_graph(args)
    result = find_maximum_biclique(
        graph,
        objective=args.objective,
        min_left=args.min_left,
        min_right=args.min_right,
    )
    if result.biclique is None:
        print(f"{name}: no biclique satisfies the constraints")
        return 1
    b = result.biclique
    print(f"{name}: maximum-{args.objective} biclique has value "
          f"{result.value} ({len(b.left)} x {len(b.right)})")
    print(f"left:  {','.join(map(str, b.left))}")
    print(f"right: {','.join(map(str, b.right))}")
    print(f"branches cut by bound: {result.stats.threshold_pruned:,}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bigraph.generators import (
        planted_bicliques,
        powerlaw_bipartite,
        random_bipartite,
    )
    from repro.bigraph.io import write_edge_list

    if args.kind == "random":
        graph = random_bipartite(args.n_u, args.n_v, args.p, seed=args.seed)
    elif args.kind == "powerlaw":
        graph = powerlaw_bipartite(
            args.n_u, args.n_v, args.edges, args.exponent, seed=args.seed
        )
    else:
        graph = planted_bicliques(
            args.n_u, args.n_v, args.blocks,
            noise_edges=args.edges, seed=args.seed,
        )
    write_edge_list(
        graph,
        args.output,
        fmt=args.format if args.format != "auto" else "plain",
        header=[f"synthetic {args.kind} bipartite graph, seed={args.seed}"],
    )
    print(f"wrote {graph} to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bigraph.components import connected_components
    from repro.bigraph.ordering import degeneracy_order

    graph, name = _load_graph(args)
    st = compute_stats(graph)
    rows = [[k, v] for k, v in st.as_row().items()]
    components = connected_components(graph)
    rows.append(["components", len(components)])
    if components:
        rows.append(
            ["largest component", len(components[0][0]) + len(components[0][1])]
        )
    rows.append(["degeneracy", degeneracy_order(graph)[1]])
    print(f"statistics for {name}:")
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the artifact store (docs/artifacts.md)."""
    from repro import artifacts

    store = artifacts.open_store(args.cache_dir)
    action = args.cache_command
    if action == "stats":
        summary = store.stats_summary()
        rows = [
            ["root", summary["root"]],
            ["entries", summary["entries"]],
            ["bytes", f"{summary['bytes']:,}"],
            ["budget bytes", f"{summary['max_bytes']:,}"
             if summary["max_bytes"] else "unbounded"],
            ["quarantined", summary["quarantined"]],
        ]
        rows += [[f"kind: {k}", v] for k, v in summary["by_kind"].items()]
        print(format_table(["metric", "value"], rows))
        return 0
    if action == "ls":
        entries = store.entries()
        if not entries:
            print("store is empty")
            return 0
        print(format_table(
            ["graph", "kind", "fingerprint", "bytes"],
            [
                [e.graph_key[:12], e.kind, e.fingerprint, f"{e.size:,}"]
                for e in entries
            ],
        ))
        return 0
    if action == "verify":
        report = store.verify()
        print(f"verified {report['ok']} entries; "
              f"quarantined {len(report['quarantined'])}, "
              f"removed {report['tmp_removed']} stale temp files")
        for path in report["quarantined"]:
            print(f"  quarantined: {path}", file=sys.stderr)
        return 1 if report["quarantined"] else 0
    if action == "gc":
        report = store.gc(
            max_bytes=(
                args.max_mb * 1024 * 1024 if args.max_mb is not None
                else None
            )
        )
        print(f"gc: evicted {report['evicted']} entries, removed "
              f"{report['tmp_removed']} stale temp files")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries from {store.root}")
        return 0
    raise AssertionError(f"unknown cache action {action!r}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos scenarios with invariant checking (docs/chaos.md)."""
    from repro.chaos.scenarios import SCENARIOS

    if args.chaos_command == "list":
        rows = [
            [name, ",".join(sorted(d.seams)),
             "yes" if d.deterministic else "no", d.description]
            for name, d in sorted(SCENARIOS.items())
        ]
        print(format_table(
            ["scenario", "seams", "deterministic", "description"], rows
        ))
        return 0

    from repro.chaos.runner import run_scenarios
    from repro.obs import MetricRegistry
    from repro.obs.sinks import prometheus_text

    registry = MetricRegistry()
    try:
        summary = run_scenarios(
            names=args.scenario or None,
            seeds=tuple(args.seed) if args.seed else (0, 1, 2),
            report_path=args.report,
            workdir=args.workdir,
            registry=registry,
            echo=True,
        )
    except ValueError as exc:  # unknown scenario name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(registry))
    fired = ", ".join(
        f"{seam}={n}" for seam, n in sorted(summary["seams_fired"].items())
    ) or "none"
    print(
        f"chaos: {summary['cells'] - len(summary['failed'])}"
        f"/{summary['cells']} cells passed (faults fired: {fired})"
    )
    for cell in summary["failed"]:
        print(
            f"chaos: FAILED {cell['scenario']} seed={cell['seed']}",
            file=sys.stderr,
        )
    return 0 if summary["ok"] else 1


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for key in datasets.names():
        sp = datasets.spec(key)
        p = sp.params
        rows.append(
            [key, sp.models, sp.kind, p.get("n_u"), p.get("n_v"),
             sp.approx_bicliques]
        )
    print(format_table(
        ["key", "models", "kind", "|U|", "|V|", "max. bicliques"], rows
    ))
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    ids = available_experiments() if args.run == "all" else [args.run]
    md_chunks: list[str] = []
    for exp_id in ids:
        result = run_experiment(exp_id, quick=args.quick)
        print(f"\n=== {result.exp_id}: {result.title} ===")
        for caption, headers, rows in result.tables:
            print(f"\n{caption}")
            print(format_table(headers, rows))
            if args.chart and exp_id.startswith("R-F"):
                from repro.bench.plotting import ascii_chart

                chart = ascii_chart(headers, rows)
                if chart:
                    print()
                    print(chart)
        for note in result.notes:
            print(f"note: {note}")
        if args.markdown:
            md_chunks.append(f"### {result.exp_id}: {result.title}\n")
            for caption, headers, rows in result.tables:
                md_chunks.append(f"**{caption}**\n")
                md_chunks.append(markdown_table(headers, rows) + "\n")
            md_chunks.extend(f"> {note}\n" for note in result.notes)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write("\n".join(md_chunks))
        print(f"\nwrote markdown to {args.markdown}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-mbe",
        description="Maximal biclique enumeration (prefix-tree reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--dataset", choices=datasets.names(),
                         help="zoo dataset key")
        src.add_argument("--input", help="edge-list file")
        p.add_argument("--format", default="auto",
                       choices=["auto", "plain", "konect"],
                       help="edge-list format (with --input)")

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics-out", default=None,
                       help="write run metrics as Prometheus text "
                            "exposition to this file")
        p.add_argument("--trace-out", default=None,
                       help="write phase spans and trace events as JSONL "
                            "to this file")
        p.add_argument("--progress", nargs="?", const="tty", default=None,
                       choices=["tty", "jsonl"],
                       help="stream heartbeats to stderr: a live tty line "
                            "(default) or machine-readable JSONL")

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache", action="store_true",
                       help="reuse parsed graphs, orderings and complete "
                            "results through the artifact store "
                            "(docs/artifacts.md)")
        p.add_argument("--no-cache", action="store_true",
                       help="force cache off (overrides --cache/--cache-dir)")
        p.add_argument("--cache-dir", default=None,
                       help="artifact store directory (implies --cache; "
                            "default $REPRO_ARTIFACTS_DIR or "
                            "~/.cache/repro-mbe/artifacts)")

    p_run = sub.add_parser("run", help="enumerate maximal bicliques")
    add_graph_source(p_run)
    p_run.add_argument("--algorithm", "-a", default=None,
                       choices=available_algorithms(),
                       help="engine to run; omitted, the cost-model "
                            "planner picks one for this graph "
                            "('repro plan' explains the choice)")
    p_run.add_argument("--max-bicliques", type=int, default=None)
    p_run.add_argument("--time-limit", type=float, default=None)
    p_run.add_argument("--max-nodes", type=int, default=None,
                       help="stop after this many enumeration-tree nodes")
    p_run.add_argument("--checkpoint", default=None,
                       help="JSONL checkpoint file for resumable parallel "
                            "runs (requires --algorithm parallel)")
    p_run.add_argument("--output", "-o", default=None,
                       help="write bicliques as 'u1,u2\\tv1,v2' lines")
    add_cache_flags(p_run)
    add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser(
        "plan",
        help="explain which engine/ordering/budget the planner would pick "
             "(docs/planning.md)",
    )
    add_graph_source(p_plan)
    p_plan.add_argument("--min-left", type=int, default=1)
    p_plan.add_argument("--min-right", type=int, default=1)
    p_plan.add_argument("--engines", default=None,
                        help="comma-separated candidate pool (default: the "
                             "planner's built-in pool)")
    p_plan.add_argument("--cores", type=int, default=None,
                        help="cores assumed for the parallel candidate "
                             "(default: os.cpu_count())")
    p_plan.add_argument("--explain", action="store_true",
                        help="print the full candidate table with "
                             "per-candidate predictions and reasons")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the plan as JSON instead of text")
    add_cache_flags(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_srv = sub.add_parser(
        "serve",
        help="run the embedded enumeration service (docs/serving.md)",
    )
    p_srv.add_argument("--state-dir", required=True,
                       help="directory for the job journal, checkpoints "
                            "and result spools (restart against the same "
                            "directory to resume in-flight jobs)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="0 = ephemeral; the bound port is written to "
                            "<state-dir>/serve.port")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="concurrent job worker threads")
    p_srv.add_argument("--queue-depth", type=int, default=16,
                       help="queued-job limit; fuller submits get HTTP 429")
    p_srv.add_argument("--max-cost", type=int, default=None,
                       help="admission ceiling on |E|*max(D2) (HTTP 413 "
                            "above it); default: unbounded")
    p_srv.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive engine failures that trip its "
                            "circuit breaker")
    p_srv.add_argument("--breaker-cooldown", type=float, default=30.0,
                       help="seconds an open breaker refuses an engine")
    p_srv.add_argument("--soft-limit-mb", type=int, default=None,
                       help="RSS megabytes at which collecting jobs spool "
                            "results to disk")
    p_srv.add_argument("--hard-limit-mb", type=int, default=None,
                       help="RSS megabytes at which spooling degrades to "
                            "count-only")
    p_srv.add_argument("--max-in-ram", type=int, default=200_000,
                       help="bicliques held in RAM before spooling")
    p_srv.add_argument("--default-time-limit", type=float, default=None,
                       help="budget for jobs that set no time_limit")
    p_srv.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to let running jobs finish on "
                            "SIGTERM before cancelling them")
    p_srv.add_argument("--allow-faults", action="store_true",
                       help="honour fault-injection specs in jobs "
                            "(chaos testing only)")
    p_srv.add_argument("--retry-after-default", type=float, default=5.0,
                       help="Retry-After seconds issued before any job "
                            "duration has been observed")
    p_srv.add_argument("--journal-max-mb", type=int, default=4,
                       help="compact the job journal once it exceeds this "
                            "size (0 disables size-triggered compaction)")
    p_srv.add_argument("--artifacts-dir", default=None,
                       help="artifact store directory (default: "
                            "<state-dir>/artifacts); share one across "
                            "workers on the same host to pool parsed "
                            "graphs and results")
    p_srv.add_argument("--no-result-cache", action="store_true",
                       help="re-run repeat jobs instead of answering from "
                            "cached complete results")
    p_srv.set_defaults(func=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="federated enumeration across serve workers (docs/cluster.md)",
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command",
                                           required=True)
    p_coord = cluster_sub.add_parser(
        "coordinate",
        help="shard a job over peer workers and merge the exact result",
    )
    add_graph_source(p_coord)
    p_coord.add_argument("--state-dir", required=True,
                         help="coordinator journal + result spools; restart "
                              "against the same directory to resume from "
                              "completed-slice state")
    p_coord.add_argument("--worker", action="append", required=True,
                         help="worker base URL (repeatable), e.g. "
                              "http://127.0.0.1:8451")
    p_coord.add_argument("--slices", type=int, default=None,
                         help="slice count (default: the planner's, one "
                              "per worker for a small job)")
    p_coord.add_argument("--order", default="degree",
                         help="root ordering strategy (must match across "
                              "coordinator and workers)")
    p_coord.add_argument("--seed", type=int, default=0)
    p_coord.add_argument("--min-left", type=int, default=1)
    p_coord.add_argument("--min-right", type=int, default=1)
    p_coord.add_argument("--time-limit", type=float, default=None,
                         help="whole-job wall-clock budget; also caps "
                              "per-slice worker budgets")
    p_coord.add_argument("--heartbeat-interval", type=float, default=0.5)
    p_coord.add_argument("--heartbeat-timeout", type=float, default=2.0,
                         help="silent seconds before a worker is declared "
                              "dead and its slices reassigned")
    p_coord.add_argument("--max-retries", type=int, default=4,
                         help="re-dispatches of one slice before giving up")
    p_coord.add_argument("--straggler-factor", default="auto",
                         help="re-split an in-flight slice running longer "
                              "than this multiple of the median; 'auto' "
                              "(default) derives it from root-cost skew, "
                              "0 disables")
    p_coord.add_argument("--output", "-o", default=None,
                         help="write the merged bicliques to this file")
    p_coord.add_argument("--metrics-out", default=None,
                         help="write cluster_* metrics as Prometheus text")
    p_coord.set_defaults(func=_cmd_cluster)

    p_prof = sub.add_parser(
        "profile",
        help="run one algorithm instrumented; print phase/prune breakdown",
    )
    add_graph_source(p_prof)
    p_prof.add_argument("--algorithm", "-a", default="mbet",
                        choices=available_algorithms())
    p_prof.add_argument("--time-limit", type=float, default=None)
    p_prof.add_argument("--verify", action="store_true",
                        help="collect results and audit them in a timed "
                             "verify phase")
    add_obs_flags(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential/metamorphic fuzzing of the enumeration engines",
    )
    p_fuzz.add_argument("--time", type=float, default=None,
                        help="wall-clock budget in seconds")
    p_fuzz.add_argument("--cases", type=int, default=None,
                        help="number of random cases (default 50 when no "
                             "--time is given)")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--engines", default=None,
                        help="comma-separated engine names (default: all)")
    p_fuzz.add_argument("--oracles", default=None,
                        help="comma-separated oracle names (default: all)")
    p_fuzz.add_argument("--datasets", default=None,
                        help="comma-separated zoo keys to fuzz up front")
    p_fuzz.add_argument("--zoo", action="store_true",
                        help="include every zoo dataset as a case")
    p_fuzz.add_argument("--max-side", type=int, default=12,
                        help="random-case side-size bound")
    p_fuzz.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many counterexamples")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip counterexample minimization")
    p_fuzz.add_argument("--report", default=None,
                        help="write per-case records and a summary as JSONL")
    p_fuzz.add_argument("--artifacts", default=None,
                        help="directory for counterexample JSON + pytest "
                             "artifacts")
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="inject a deliberately-broken engine; exit 0 "
                             "iff the harness catches and shrinks it")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_an = sub.add_parser("analyze", help="enumerate and summarize bicliques")
    add_graph_source(p_an)
    p_an.add_argument("--algorithm", "-a", default="mbet",
                      choices=["mbet", "mbetm", "parallel"],
                      help="size-constraint-capable algorithms only")
    p_an.add_argument("--min-left", type=int, default=1)
    p_an.add_argument("--min-right", type=int, default=1)
    p_an.add_argument("--top", type=int, default=5)
    p_an.set_defaults(func=_cmd_analyze)

    p_max = sub.add_parser("max", help="find one maximum biclique")
    add_graph_source(p_max)
    p_max.add_argument("--objective", default="edges",
                       choices=["edges", "vertices", "balanced"])
    p_max.add_argument("--min-left", type=int, default=1)
    p_max.add_argument("--min-right", type=int, default=1)
    p_max.set_defaults(func=_cmd_max)

    p_gen = sub.add_parser("generate", help="write a synthetic graph")
    p_gen.add_argument("--kind", required=True,
                       choices=["random", "powerlaw", "planted"])
    p_gen.add_argument("--n-u", type=int, default=1000)
    p_gen.add_argument("--n-v", type=int, default=500)
    p_gen.add_argument("--p", type=float, default=0.01,
                       help="edge probability (random kind)")
    p_gen.add_argument("--edges", type=int, default=5000,
                       help="edge draws (powerlaw) / noise edges (planted)")
    p_gen.add_argument("--exponent", type=float, default=2.0)
    p_gen.add_argument("--blocks", type=int, default=100,
                       help="planted blocks (planted kind)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", default="plain",
                       choices=["plain", "konect"])
    p_gen.add_argument("--output", "-o", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="audit a saved biclique file")
    add_graph_source(p_ver)
    p_ver.add_argument("--bicliques", required=True,
                       help="file written by 'run -o'")
    p_ver.add_argument("--complete", action="store_true",
                       help="also check no maximal biclique is missing")
    p_ver.set_defaults(func=_cmd_verify)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    add_graph_source(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_cache = sub.add_parser(
        "cache",
        help="inspect/maintain the artifact store (docs/artifacts.md)",
    )
    p_cache.add_argument("--cache-dir", default=None,
                         help="store directory (default $REPRO_ARTIFACTS_DIR "
                              "or ~/.cache/repro-mbe/artifacts)")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry/byte totals per kind")
    cache_sub.add_parser("ls", help="list every stored entry")
    cache_sub.add_parser(
        "verify",
        help="integrity-scan all entries; quarantine defects (exit 1 if any)",
    )
    p_gc = cache_sub.add_parser(
        "gc", help="sweep stale temp files and enforce the size budget"
    )
    p_gc.add_argument("--max-mb", type=int, default=None,
                      help="one-off size budget in MiB for this gc pass")
    cache_sub.add_parser("clear", help="remove every entry")
    p_cache.set_defaults(func=_cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection scenarios with invariant checks "
             "(docs/chaos.md)",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser("list", help="print the scenario catalogue")
    p_chaos_run = chaos_sub.add_parser(
        "run", help="run scenarios over seeds; exit 1 on any violation"
    )
    p_chaos_run.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; 'all' or omit for the whole "
             "catalogue)",
    )
    p_chaos_run.add_argument(
        "--seed", action="append", type=int, default=None,
        help="schedule seed (repeatable; default: 0 1 2)",
    )
    p_chaos_run.add_argument(
        "--report", default=None,
        help="write a JSONL report (one line per scenario/seed cell)",
    )
    p_chaos_run.add_argument(
        "--metrics-out", default=None,
        help="write chaos_* metrics as Prometheus text to this file",
    )
    p_chaos_run.add_argument(
        "--workdir", default=None,
        help="keep per-cell state under this directory for post-mortems",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_ds = sub.add_parser("datasets", help="list the dataset zoo")
    p_ds.set_defaults(func=_cmd_datasets)

    p_algo = sub.add_parser("algorithms", help="list algorithms")
    p_algo.set_defaults(func=_cmd_algorithms)

    p_exp = sub.add_parser("experiments", help="run the evaluation suite")
    p_exp.add_argument("--run", default="all",
                       choices=["all"] + available_experiments())
    p_exp.add_argument("--quick", action="store_true",
                       help="seconds-scale configurations")
    p_exp.add_argument("--markdown", default=None,
                       help="also write results as markdown to this file")
    p_exp.add_argument("--chart", action="store_true",
                       help="render figure experiments as ASCII charts")
    p_exp.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
