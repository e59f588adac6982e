"""The process that runs batch ops: what ``repro run`` does, in a loop.

Usage (internal): python perfbench/batch_child.py SPEC.json

One op is ``repro run --input FILE --output ...`` without
``--algorithm``: ``read_edge_list`` -> ``build_plan`` ->
``run_mbe(chosen engine, collect=True)``.  The process imports the
program, runs one untimed warm-up op, prints ``ready`` and waits for a
line on stdin: ``go`` runs one pass over the graphs and prints ``pass``,
anything else ends the measured phase (straight after ``ready``: a
set-up-only sample).  Between passes the parent takes further set-up
samples, so they spread over the run.  With tracing, every second op is
recorded as spans, alternating which graphs each pass, so traced and
untraced runs of every graph interleave.  The sampled op's bicliques are
checked with ``verify_result`` after the measured phase.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import ensure_program, self_peak_rss_mb  # noqa: E402


def run_op(path: str, tracer, trace_id: str | None):
    """One op; returns ``(latency_s, plan, result)``."""
    from repro import read_edge_list, run_mbe
    from repro.plan import build_plan

    t0 = time.perf_counter()
    with tracer.span("op", trace_id):
        with tracer.span("bigraph.parse"):
            graph = read_edge_list(path)
        with tracer.span("plan.build"):
            plan = build_plan(graph)
        with tracer.span("core.run") as span:
            result = run_mbe(graph, plan.chosen.engine, collect=True)
            span.attrs = {"stats": result.stats.as_dict()}
    return time.perf_counter() - t0, plan, result


def main(spec_path: str) -> int:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    ensure_program()
    from repro import read_edge_list
    from repro.core.verify import verify_result

    from spans import Tracer, install_core

    tracer = Tracer(enabled=False)
    if spec["trace"]:
        install_core(tracer)
    run_op(spec["warmup"], tracer, None)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    ops = []
    sampled = None
    wall = 0.0  # the passes' own time: pauses between them are not measured
    for p in range(spec["passes"]):
        if p and sys.stdin.readline().strip() != "go":
            break
        t_pass = time.perf_counter()
        for g, path in enumerate(spec["graphs"]):
            tracer.enabled = bool(spec["trace"]) and (p + g) % 2 == 1
            trace_id = f"p{p}g{g}" if tracer.enabled else None
            latency, plan, result = run_op(path, tracer, trace_id)
            ops.append({
                "pass": p, "graph": g, "traced": tracer.enabled,
                "latency": latency, "count": result.count,
                "complete": result.complete, "engine": plan.chosen.engine,
                "predicted": plan.chosen.predicted_seconds,
                "elapsed": result.elapsed, "trace": trace_id,
            })
            if p == 0 and g == spec["verify_graph"]:
                sampled = result.bicliques
            del result
        wall += time.perf_counter() - t_pass
        tracer.enabled = False
        print("pass", flush=True)
    graph = read_edge_list(spec["graphs"][spec["verify_graph"]])
    try:
        verified = verify_result(graph, sampled)
    except AssertionError as exc:
        verified, verify_error = -1, str(exc)
    else:
        verify_error = None
    pathlib.Path(spec["out"]).write_text(json.dumps({
        "ops": ops, "wall": wall, "peak_rss_mb": self_peak_rss_mb(),
        "verified": verified, "verify_error": verify_error,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
