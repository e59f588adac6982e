"""The reconstructed evaluation suite (ids R-T1, R-T2, R-F1 … R-F10).

Each experiment regenerates one table/figure of the evaluation described in
DESIGN.md §4.  Experiments return :class:`ExperimentResult` — captioned
tables plus free-form notes — which the CLI prints and EXPERIMENTS.md
records.  ``quick=True`` shrinks every experiment to a seconds-scale
configuration (used by CI-style checks); the full configuration reproduces
the shapes discussed in EXPERIMENTS.md.

Figure-type experiments emit their data as one table per figure: the first
column is the x-axis, the remaining columns are the plotted series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import datasets
from repro.bench.runner import measure_peak_memory, run_timed
from repro.bigraph.generators import planted_bicliques, subsample_edges
from repro.bigraph.stats import compute_stats
from repro.core.mbetm import MBETM
from repro.setops.intersect_path import partitioned_union
from repro.setops.sorted_ops import union

#: serial algorithms compared in the overall figure, slowest first
SERIAL_ALGOS = ("naive", "mbea", "imbea", "pmbe", "oombea", "mbet", "mbetm")


@dataclass
class ExperimentResult:
    """Captioned tables + notes produced by one experiment."""

    exp_id: str
    title: str
    tables: list[tuple[str, list[str], list[list]]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _fmt_time(record) -> str:
    return "TO" if not record.complete else f"{record.elapsed:.3f}"


def _zoo(quick: bool, exclude_large: bool = True) -> list[str]:
    if quick:
        return ["mti", "yg"]
    keys = datasets.names()
    return [k for k in keys if k != "dbt"] if exclude_large else keys


# -- R-T1 ---------------------------------------------------------------------


def exp_t1_datasets(quick: bool = False) -> ExperimentResult:
    """Dataset-statistics table (the literature's Table 1, at zoo scale)."""
    rows = []
    for key in _zoo(quick, exclude_large=False):
        sp = datasets.spec(key)
        graph = datasets.load(key)
        st = compute_stats(graph)
        rows.append(
            [
                key,
                sp.models,
                st.n_u,
                st.n_v,
                st.n_edges,
                st.max_degree_u,
                st.max_two_hop_u,
                st.max_degree_v,
                st.max_two_hop_v,
                sp.approx_bicliques,
            ]
        )
    return ExperimentResult(
        "R-T1",
        "Dataset statistics (synthetic stand-ins)",
        tables=[
            (
                "Zoo datasets in roster order (ascending biclique count)",
                ["key", "models", "|U|", "|V|", "|E|", "D(U)", "D2(U)", "D(V)",
                 "D2(V)", "max. bicliques"],
                rows,
            )
        ],
        notes=[
            "Stand-ins are ~1/100-scale; reference shapes of the public "
            "datasets are recorded in repro.datasets.zoo."
        ],
    )


# -- R-F1 ---------------------------------------------------------------------


def exp_f1_overall(quick: bool = False) -> ExperimentResult:
    """Overall runtime comparison of all serial algorithms on the zoo."""
    limit = 10.0 if quick else 180.0
    headers = ["dataset", "bicliques"] + [a for a in SERIAL_ALGOS]
    rows = []
    for key in _zoo(quick):
        graph = datasets.load(key)
        row: list[object] = [key, datasets.spec(key).approx_bicliques]
        for algo in SERIAL_ALGOS:
            rec = run_timed(graph, algo, dataset=key, time_limit=limit)
            row.append(_fmt_time(rec))
        rows.append(row)
    return ExperimentResult(
        "R-F1",
        "Overall evaluation: runtime in seconds per algorithm (TO = over budget)",
        tables=[("Runtime (s), lower is better", headers, rows)],
        notes=[
            f"Per-run time limit {limit:.0f}s; dbt (the large dataset) is "
            "evaluated separately in R-F5, as in the literature.",
            "Expected shape: mbet fastest on every dataset, margin growing "
            "with the biclique count.",
        ],
    )


# -- R-F2 ---------------------------------------------------------------------


def exp_f2_scale_edges(quick: bool = False) -> ExperimentResult:
    """Scalability in |E|: subsample edges of one dataset at 20%..100%."""
    key = "yg" if quick else "am"
    algos = ("imbea", "oombea", "mbet") if quick else ("mbea", "imbea", "pmbe", "oombea", "mbet")
    base = datasets.load(key)
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    rows = []
    for frac in fractions:
        graph = subsample_edges(base, frac, seed=99)
        row: list[object] = [f"{int(frac * 100)}%"]
        count = None
        for algo in algos:
            rec = run_timed(graph, algo, dataset=key)
            row.append(_fmt_time(rec))
            count = rec.count
        row.append(count)
        rows.append(row)
    return ExperimentResult(
        "R-F2",
        f"Scalability in |E| on dataset {key}",
        tables=[
            ("Runtime (s) vs edge fraction", ["edges"] + list(algos) + ["bicliques"], rows)
        ],
        notes=["Expected shape: super-linear growth in |E| for every "
               "algorithm; mbet's advantage widens with scale."],
    )


# -- R-F3 ---------------------------------------------------------------------


def exp_f3_scale_density(quick: bool = False) -> ExperimentResult:
    """Scalability in biclique density: planted-block sweep."""
    algos = ("imbea", "mbet") if quick else ("mbea", "imbea", "pmbe", "oombea", "mbet")
    # 800 overlapping blocks already yield ~80k maximal bicliques on this
    # vertex set; the sweep stops there to keep the harness minutes-scale.
    blocks = (50, 100) if quick else (100, 200, 400, 800)
    limit = 10.0 if quick else 300.0
    rows = []
    for n_blocks in blocks:
        graph = planted_bicliques(
            600, 300, n_blocks, (2, 6), (2, 6), noise_edges=600, seed=7
        )
        row: list[object] = [n_blocks]
        count = None
        for algo in algos:
            rec = run_timed(
                graph, algo, dataset=f"planted-{n_blocks}", time_limit=limit
            )
            row.append(_fmt_time(rec))
            count = rec.count
        row.append(count)
        rows.append(row)
    return ExperimentResult(
        "R-F3",
        "Scalability in biclique density (planted blocks on 600x300 vertices)",
        tables=[
            ("Runtime (s) vs planted blocks", ["blocks"] + list(algos) + ["bicliques"], rows)
        ],
        notes=["Expected shape: runtime grows roughly linearly in the number "
               "of maximal bicliques for mbet; baselines grow faster."],
    )


# -- R-F4 ---------------------------------------------------------------------


def exp_f4_memory(quick: bool = False) -> ExperimentResult:
    """Peak allocation comparison, plus MBETM's bounded trie footprint."""
    keys = ["mti"] if quick else ["mti", "yg", "ee", "gh"]
    configs: list[tuple[str, str, dict]] = [
        ("imbea", "imbea", {}),
        ("mbet", "mbet", {}),
        ("mbetm(4096)", "mbetm", {"max_nodes": 4096, "use_trie": True}),
        ("mbetm(256)", "mbetm", {"max_nodes": 256, "use_trie": True}),
    ]
    rows = []
    for key in keys:
        graph = datasets.load(key)
        for label, algo, opts in configs:
            peak, result = measure_peak_memory(graph, algo, **opts)
            rows.append(
                [
                    key,
                    label,
                    f"{peak / 1024:.0f}",
                    result.stats.trie_peak_nodes,
                    result.stats.trie_overflow,
                    f"{result.elapsed:.3f}",
                ]
            )
    return ExperimentResult(
        "R-F4",
        "Peak memory (tracemalloc) and prefix-tree footprint",
        tables=[
            (
                "Peak allocations per run",
                ["dataset", "algorithm", "peak KiB", "trie peak nodes",
                 "budget overflows", "time (s)"],
                rows,
            )
        ],
        notes=["Expected shape: mbetm's trie peak is capped at its budget "
               "while total peak memory stays flat; overflowed inserts grow "
               "as the budget shrinks."],
    )


# -- R-T2 ---------------------------------------------------------------------


def exp_t2_pruning(quick: bool = False) -> ExperimentResult:
    """Node-checking effectiveness: non-maximal/maximal ratios (δ/α)."""
    rows = []
    for key in _zoo(quick):
        graph = datasets.load(key)
        base = run_timed(graph, "mbea", dataset=key)
        tree = run_timed(graph, "mbet", dataset=key, use_trie=True)
        scan = run_timed(graph, "mbet", dataset=key)
        alpha = max(tree.count, 1)
        full = tree.stats["checks"] + tree.stats["trie_pruned"]  # full scan
        reduced = max(scan.stats["checks"], 1)
        rows.append(
            [
                key,
                tree.count,
                f"{base.stats['non_maximal'] / alpha:.2f}",
                f"{tree.stats['non_maximal'] / alpha:.2f}",
                tree.stats["merged_candidates"],
                f"{tree.stats['trie_pruned'] / max(tree.stats['checks'], 1):.1f}",
                f"{(full - reduced) / reduced:.1f}",
            ]
        )
    return ExperimentResult(
        "R-T2",
        "Enumeration-node checking effectiveness",
        tables=[
            (
                "Non-maximal-to-maximal ratio (δ/α) and stored sets each "
                "check step avoids against a full scan",
                ["dataset", "maximal (α)", "δ/α mbea", "δ/α mbet",
                 "merged candidates", "avoided per step: trie",
                 "avoided per step: reduced scan"],
                rows,
            )
        ],
        notes=["Expected shape: mbet's δ/α is a fraction of mbea's on every "
               "dataset (decomposition + merging prune duplicate subtrees "
               "before the check even runs)."],
    )


# -- R-F5 ---------------------------------------------------------------------


def exp_f5_progressive(quick: bool = False) -> ExperimentResult:
    """Progressive enumeration on the large dataset (bicliques over time)."""
    key = "gh" if quick else "dbt"
    graph = datasets.load(key)
    total = datasets.spec(key).approx_bicliques
    algo = MBETM()
    milestones = [i / 10 for i in range(1, 11)]
    next_ms = 0
    rows = []
    produced = 0
    for stamp, _b in algo.iter_bicliques(graph):
        produced += 1
        while next_ms < len(milestones) and produced >= milestones[next_ms] * total:
            rows.append([f"{int(milestones[next_ms] * 100)}%", produced, f"{stamp:.2f}"])
            next_ms += 1
    while next_ms < len(milestones) and produced >= milestones[next_ms] * total * 0.999:
        rows.append([f"{int(milestones[next_ms] * 100)}%", produced, "end"])
        next_ms += 1
    return ExperimentResult(
        "R-F5",
        f"Progressive enumeration on the large dataset ({key})",
        tables=[
            ("Cumulative bicliques over time (mbetm)",
             ["milestone", "bicliques", "seconds"], rows)
        ],
        notes=[f"Total maximal bicliques: {produced:,} "
               f"(recorded {total:,})."],
    )


# -- R-F6 ---------------------------------------------------------------------


def exp_f6_ablation(quick: bool = False) -> ExperimentResult:
    """Ablation: disable each MBET technique in isolation."""
    keys = ["mti"] if quick else ["mti", "yg", "so", "ee", "gh"]
    variants: list[tuple[str, str, dict]] = [
        ("mbet", "mbet", {}),
        ("trie always", "mbet", {"use_trie": True}),
        ("w/o merge", "mbet", {"use_merge": False}),
        ("w/o sort", "mbet", {"use_sort": False}),
    ]
    headers = ["dataset"] + [label for label, _, _ in variants]
    rows = []
    for key in keys:
        graph = datasets.load(key)
        row: list[object] = [key]
        for _label, algo, opts in variants:
            rec = run_timed(graph, algo, dataset=key, **opts)
            row.append(_fmt_time(rec))
        rows.append(row)
    return ExperimentResult(
        "R-F6",
        "Ablation of MBET's techniques (runtime in seconds)",
        tables=[("Each column disables or pins one technique", headers, rows)],
        notes=["Expected shape: merging and sorting ablations are slower "
               "than full mbet.",
               "Deviation: 'trie always' (the paper's MBET, every initial "
               "traversed signature in a prefix tree) is slower than the "
               "default 'mbet', a linear scan over only the maximal "
               "initial signatures.  R-T2 counts the steps each store "
               "takes; R-E4 times the two stores in isolation."],
    )


# -- R-F7 ---------------------------------------------------------------------


def exp_f7_budget(quick: bool = False) -> ExperimentResult:
    """MBETM budget sensitivity."""
    key = "yg" if quick else "gh"
    budgets = (64, 1024) if quick else (64, 256, 1024, 4096, 16384, 65536)
    graph = datasets.load(key)
    rows = []
    for budget in budgets:
        rec = run_timed(
            graph, "mbetm", dataset=key, max_nodes=budget, use_trie=True
        )
        rows.append(
            [
                budget,
                _fmt_time(rec),
                rec.stats["trie_peak_nodes"],
                rec.stats["trie_overflow"],
            ]
        )
    return ExperimentResult(
        "R-F7",
        f"MBETM prefix-tree budget sensitivity on {key}",
        tables=[
            ("Runtime and trie footprint vs node budget",
             ["budget", "time (s)", "trie peak nodes", "overflowed inserts"], rows)
        ],
        notes=["Expected shape: runtime decreases and overflows vanish as "
               "the budget grows; peak nodes never exceed the budget."],
    )


# -- R-F8 ---------------------------------------------------------------------


def exp_f8_ordering(quick: bool = False) -> ExperimentResult:
    """Vertex-ordering sensitivity for MBET."""
    keys = ["mti"] if quick else ["mti", "yg", "ee", "gh"]
    orders = ("degree", "degree_desc", "unilateral", "two_hop", "degeneracy",
              "natural", "random")
    headers = ["dataset"] + list(orders)
    rows = []
    for key in keys:
        graph = datasets.load(key)
        row: list[object] = [key]
        for order in orders:
            rec = run_timed(graph, "mbet", dataset=key, order=order)
            row.append(_fmt_time(rec))
        rows.append(row)
    return ExperimentResult(
        "R-F8",
        "Vertex-ordering sensitivity (mbet runtime in seconds)",
        tables=[("Ordering strategies", headers, rows)],
        notes=["Expected shape: ascending-degree-family orders win; "
               "descending degree roots the biggest subtrees first and "
               "loses containment pruning."],
    )


# -- R-F9 ---------------------------------------------------------------------


def exp_f9_parallel(quick: bool = False) -> ExperimentResult:
    """Parallel scalability (hardware-gated on this container, see notes)."""
    key = "yg" if quick else "gh"
    workers = (1, 2) if quick else (1, 2, 4)
    graph = datasets.load(key)
    rows = []
    base_time = None
    for w in workers:
        rec = run_timed(graph, "parallel", dataset=key, workers=w)
        if base_time is None:
            base_time = rec.elapsed
        rows.append([w, f"{rec.elapsed:.3f}", f"{base_time / rec.elapsed:.2f}x", rec.count])
    return ExperimentResult(
        "R-F9",
        f"Parallel MBE on {key} (load-aware task splitting)",
        tables=[("Runtime vs worker processes",
                 ["workers", "time (s)", "speedup", "bicliques"], rows)],
        notes=["This container exposes a single CPU core: multi-worker "
               "numbers measure scheduling overhead, not speedup.  The "
               "mechanism (decomposition, root-slice splitting, LPT "
               "dispatch) is exercised and verified for correctness."],
    )


# -- R-F10 --------------------------------------------------------------------


def exp_f10_setunion(quick: bool = False) -> ExperimentResult:
    """Merge-path partitioned set union microbenchmark."""
    import numpy as np

    size = 2_000 if quick else 20_000
    rng = np.random.default_rng(5)
    a = sorted(set(int(x) for x in rng.integers(0, size * 4, size)))
    b = sorted(set(int(x) for x in rng.integers(0, size * 4, size)))
    repeats = 5
    rows = []
    t0 = time.perf_counter()
    for _ in range(repeats):
        expected = union(a, b)
    merge_time = (time.perf_counter() - t0) / repeats
    rows.append(["two-pointer", 1, f"{merge_time * 1e3:.2f}", "baseline"])
    for lanes in (1, 2, 4, 8, 16, 32):
        t0 = time.perf_counter()
        for _ in range(repeats):
            got = partitioned_union(a, b, lanes)
        lane_time = (time.perf_counter() - t0) / repeats
        assert got == expected
        rows.append(
            ["merge-path", lanes, f"{lane_time * 1e3:.2f}",
             f"{len(got):,} elements, output exact"]
        )
    return ExperimentResult(
        "R-F10",
        "Warp-style merge-path set union (CPU lane simulation)",
        tables=[
            ("Mean time per union (ms)",
             ["method", "lanes", "ms/union", "check"], rows)
        ],
        notes=["On a CPU the lanes are sequential, so this measures the "
               "partitioning overhead (binary searches per window); on SIMT "
               "hardware the lanes run concurrently and the same partition "
               "yields the published near-linear speedup.  The assertion "
               "checks lane outputs concatenate to the exact union."],
    )


# -- R-E1 (extension) --------------------------------------------------------


def exp_e1_constrained(quick: bool = False) -> ExperimentResult:
    """Extension: size-constrained ("large MBE") mining.

    Sweeps (min_left, min_right) thresholds and compares constrained
    enumeration against enumerate-then-filter.
    """
    key = "mti" if quick else "gh"
    graph = datasets.load(key)
    thresholds = ((1, 1), (2, 2)) if quick else (
        (1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (8, 8)
    )
    rows = []
    full = run_timed(graph, "mbet", dataset=key)
    for p, q in thresholds:
        rec = run_timed(graph, "mbet", dataset=key, min_left=p, min_right=q)
        rows.append(
            [
                f"({p},{q})",
                rec.count,
                _fmt_time(rec),
                f"{full.elapsed / max(rec.elapsed, 1e-9):.2f}x",
                rec.stats["threshold_pruned"],
            ]
        )
    return ExperimentResult(
        "R-E1",
        f"Size-constrained mining on {key} (extension experiment)",
        tables=[
            ("Constrained enumeration vs thresholds",
             ["(p,q)", "bicliques", "time (s)", "speedup vs full",
              "branches cut"], rows)
        ],
        notes=["Expected shape: output shrinks and speedup grows with the "
               "thresholds because below-threshold subtrees are cut, not "
               "filtered after the fact."],
    )


# -- R-E2 (extension) ----------------------------------------------------------


def exp_e2_streaming(quick: bool = False) -> ExperimentResult:
    """Extension: dynamic maintenance vs re-enumeration per update."""
    import numpy as np

    from repro.streaming import DynamicMBE
    from repro.core.mbet import MBET

    n_events = 300 if quick else 1200
    n_u, n_v = (150, 60) if quick else (300, 120)
    rng = np.random.default_rng(3)
    cw = np.arange(1, n_u + 1) ** -0.6
    pw = np.arange(1, n_v + 1) ** -0.6
    cw /= cw.sum()
    pw /= pw.sum()
    events = list(
        zip(
            (int(x) for x in rng.choice(n_u, n_events, p=cw)),
            (int(y) for y in rng.choice(n_v, n_events, p=pw)),
        )
    )

    mon = DynamicMBE()
    t0 = time.perf_counter()
    applied = 0
    for u, v in events:
        if not mon.has_edge(u, v):
            mon.insert_edge(u, v)
            applied += 1
    incremental = time.perf_counter() - t0

    # Re-enumeration baseline: full MBET at checkpoints (every 10% of the
    # stream) — already far sparser than true per-event recomputation.
    checkpoints = max(1, applied // 10)
    mon2 = DynamicMBE()
    t0 = time.perf_counter()
    seen = 0
    recompute_time = 0.0
    for u, v in events:
        if mon2.has_edge(u, v):
            continue
        mon2._adj_u.setdefault(u, set()).add(v)
        mon2._adj_v.setdefault(v, set()).add(u)
        mon2._n_edges += 1
        seen += 1
        if seen % checkpoints == 0:
            t1 = time.perf_counter()
            MBET().run(mon2.as_graph(), collect=False)
            recompute_time += time.perf_counter() - t1
    rows = [
        ["incremental (every event)", applied, f"{incremental:.3f}",
         f"{incremental / applied * 1000:.2f}"],
        ["re-enumerate (10 checkpoints)", 10, f"{recompute_time:.3f}",
         f"{recompute_time / 10 * 1000:.2f}"],
    ]
    return ExperimentResult(
        "R-E2",
        "Dynamic maintenance vs re-enumeration (extension experiment)",
        tables=[
            ("Cost of keeping the biclique set current over a stream of "
             f"{applied} insertions",
             ["strategy", "updates", "total (s)", "ms per update"], rows)
        ],
        notes=[f"Final biclique count {len(mon.bicliques):,}; the "
               "incremental path pays per *affected* biclique, the "
               "re-enumeration path per *existing* biclique."],
    )


# -- R-E3 (extension) --------------------------------------------------------


def exp_e3_maximum(quick: bool = False) -> ExperimentResult:
    """Extension: branch-and-bound maximum-biclique search vs full scan."""
    from repro.core.maxsearch import find_maximum_biclique

    key = "mti" if quick else "gh"
    graph = datasets.load(key)
    full = run_timed(graph, "mbet", dataset=key)
    rows = []
    for objective in ("edges", "vertices", "balanced"):
        for p, q in ((1, 1), (4, 4)):
            t0 = time.perf_counter()
            res = find_maximum_biclique(
                graph, objective, min_left=p, min_right=q
            )
            elapsed = time.perf_counter() - t0
            shape = (
                f"{len(res.biclique.left)}x{len(res.biclique.right)}"
                if res.biclique
                else "-"
            )
            rows.append(
                [
                    objective,
                    f"({p},{q})",
                    res.value,
                    shape,
                    f"{elapsed:.3f}",
                    f"{full.elapsed / max(elapsed, 1e-9):.2f}x",
                    res.stats.threshold_pruned,
                ]
            )
    return ExperimentResult(
        "R-E3",
        f"Maximum-biclique search on {key} (extension experiment)",
        tables=[
            ("Branch-and-bound over the MBET search",
             ["objective", "(p,q)", "optimum", "shape", "time (s)",
              "speedup vs full enumeration", "branches cut"], rows)
        ],
        notes=["Expected shape: the incumbent bound cuts most of the "
               "enumeration space, so finding one optimum is faster than "
               "enumerating everything — increasingly so with (p,q) "
               "constraints."],
    )


# -- R-E4 (analysis) -----------------------------------------------------------


def exp_e4_trie_crossover(quick: bool = False) -> ExperimentResult:
    """Where the prefix tree beats the linear scan: the |Q| crossover.

    Times the checking operation in isolation across |Q|: a scan of the
    whole family, a scan of its maximal signatures (the cut timed too),
    and the prefix tree.
    """
    import random

    from repro.core.mbet import maximal_masks
    from repro.core.prefixtree import PrefixTree

    rng = random.Random(7)
    bits = 96

    def family(n: int) -> list[int]:
        base = [rng.getrandbits(bits) | 1 for _ in range(24)]
        out = []
        for _ in range(n):
            m = base[rng.randrange(len(base))]
            for _ in range(4):
                m ^= 1 << rng.randrange(bits)
            out.append(m)
        return out

    def scan(masks: list[int], queries: list[int]) -> int:
        hits = 0
        for qmask in queries:
            for m in masks:
                if m & qmask == qmask:
                    hits += 1
                    break
        return hits

    sizes = (100, 1000) if quick else (100, 500, 2000, 8000, 30000)
    n_queries = 500 if quick else 2000
    rows = []
    for n in sizes:
        stored = family(n)
        queries = [
            rng.getrandbits(bits) & rng.getrandbits(bits) & rng.getrandbits(bits)
            for _ in range(n_queries)
        ]
        t0 = time.perf_counter()
        hits = scan(stored, queries)
        t_linear = time.perf_counter() - t0
        t0 = time.perf_counter()
        reduced = maximal_masks(stored)
        hits_reduced = scan(reduced, queries)
        t_reduced = time.perf_counter() - t0
        tree = PrefixTree()
        t0 = time.perf_counter()
        for m in stored:
            tree.insert(m)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        hits_trie = sum(tree.has_superset(qmask) for qmask in queries)
        t_trie = time.perf_counter() - t0
        assert hits == hits_trie == hits_reduced
        rows.append(
            [
                n,
                len(reduced),
                f"{t_linear * 1e3:.1f}",
                f"{t_reduced * 1e3:.1f}",
                f"{t_trie * 1e3:.1f}",
                f"{t_build * 1e3:.1f}",
                f"{t_linear / max(t_trie, 1e-9):.2f}x",
            ]
        )
    return ExperimentResult(
        "R-E4",
        "Prefix-tree vs linear-scan crossover in traversed-set size",
        tables=[
            (f"Time for {n_queries} superset checks (ms)",
             ["|Q|", "reduced |Q|", "linear scan",
              "reduced scan (with cut)", "trie queries", "trie build",
              "query speedup"], rows)
        ],
        notes=["Expected shape: the trie's query advantage appears once "
               "|Q| reaches the thousands and grows with |Q|; the build "
               "cost amortizes in enumeration because a subproblem's "
               "initial Q persists across its whole subtree.",
               "Reading: this family is close to an antichain, so the cut "
               "to maximal signatures removes little and the crossover "
               "stands.  What decides the default store is where real "
               "subproblems sit once their traversed sets are cut "
               "(docs/prefix_tree.md)."],
    )


EXPERIMENTS: dict[str, tuple[str, object]] = {
    "R-T1": ("Dataset statistics", exp_t1_datasets),
    "R-F1": ("Overall runtime comparison", exp_f1_overall),
    "R-F2": ("Scalability in |E|", exp_f2_scale_edges),
    "R-F3": ("Scalability in biclique density", exp_f3_scale_density),
    "R-F4": ("Peak memory", exp_f4_memory),
    "R-T2": ("Node-checking effectiveness", exp_t2_pruning),
    "R-F5": ("Progressive enumeration (large dataset)", exp_f5_progressive),
    "R-F6": ("MBET ablation", exp_f6_ablation),
    "R-F7": ("MBETM budget sensitivity", exp_f7_budget),
    "R-F8": ("Ordering sensitivity", exp_f8_ordering),
    "R-F9": ("Parallel scalability", exp_f9_parallel),
    "R-F10": ("Merge-path set union", exp_f10_setunion),
    "R-E1": ("Size-constrained mining (extension)", exp_e1_constrained),
    "R-E2": ("Streaming maintenance (extension)", exp_e2_streaming),
    "R-E3": ("Maximum-biclique search (extension)", exp_e3_maximum),
    "R-E4": ("Prefix-tree crossover analysis", exp_e4_trie_crossover),
}


def available_experiments() -> list[str]:
    """Experiment ids in presentation order."""
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id (ValueError on unknown ids)."""
    try:
        _title, func = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; available: {available_experiments()}"
        ) from None
    return func(quick=quick)
