"""Diff two sets of benchmark results, metric by metric, per workload.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of result records as
``perfbench/run.py`` writes them to ``perfbench/results/`` (copy that
directory aside after running the parent commit).  Records are grouped
by workload and by traced/untraced run; every metric gets the median of
each side and its run-to-run spread, the distance between the first and
third quartile as a share of the median.

Verdicts:

``unresolved``    a side's spread is wider than the metric's bound, and
                  not every new run beats every base run;
``within noise``  the medians differ by no more than the wider spread;
``better`` / ``worse``  outside the spread, in the metric's direction;
``REGRESSION``    worse by more than the metric's bound (end-to-end
                  metrics only; per-layer metrics have no bound).

Exit status is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import BENCHMARK_JSON  # noqa: E402


def load(directory: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values across runs."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "metrics" not in record or "workload" not in record:
            continue
        group = out[(record["workload"], record["trace"])]
        for name, metric in record["metrics"].items():
            group[name].append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """Classify one metric; returns (verdict, relative change)."""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return ("within noise" if mn == 0 else "changed"), 0.0
    change = (mn - mb) / abs(mb)
    worse_by = change if better == "lower" else -change
    noise = max(spread(base), spread(new))
    if bound is not None and noise > bound:
        wins = (max(new) < min(base) if better == "lower"
                else min(new) > max(base))
        return ("better" if wins else "unresolved"), change
    if abs(change) <= noise:
        return "within noise", change
    if worse_by <= 0:
        return "better", change
    if bound is not None and worse_by > bound:
        return "REGRESSION", change
    return "worse", change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 perfbench/compare.py BASE NEW", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end-to-end'}"
              f"; {len(next(iter(base[key].values()), []))} vs "
              f"{len(next(iter(new[key].values()), []))} runs)")
        for name in sorted(set(base[key]) & set(new[key])):
            m = meta.get(name, {"better": "lower", "unit": "?"})
            result, change = verdict(base[key][name], new[key][name],
                                     m["better"], m.get("bound"))
            regressions += result == "REGRESSION"
            print(f"  {name:32s} {statistics.median(base[key][name]):>12.6g}"
                  f" -> {statistics.median(new[key][name]):>12.6g} "
                  f"{m['unit']:6s} {change:+7.1%}  spread "
                  f"{spread(base[key][name]):.3f}/"
                  f"{spread(new[key][name]):.3f}  {result}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"\nonly on one side: {missing}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
