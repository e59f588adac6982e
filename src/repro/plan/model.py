"""The planner's cost model: one estimator for every layer.

Two jobs live here:

* **Admission pre-flight.**  :func:`estimate_cost` is the canonical
  ``|E| · max(1, D₂)`` work estimate — the shape of the MBET bound with
  the graph quantities a pre-flight *can* afford to compute.  It used to
  be duplicated in ``repro.serve.queue``; serve and the artifact store's
  ``cost`` producer now both delegate here, so there is exactly one
  definition of "how expensive does this graph look".

* **Runtime prediction.**  :class:`CostModel` predicts wall-clock
  seconds per ``(engine, features)`` with a log-linear model::

      log t  =  c · φ(features)

  over the basis ``φ = (1, log1p|E|, log1p(cost), log1p(skew),
  density, log1p(D₂))``.  The model is *seeded* with analytic
  coefficients (the work-bound shape with a unit-cost scale) and
  *calibrated* by :func:`fit_coefficients` — a ridge least-squares fit
  over the crossover records a ``BENCH_*.json`` snapshot carries
  (``tools/bench_snapshot.py`` measures zoo graphs × planner engines).
  The committed defaults below were fit from the committed snapshot;
  ``docs/planning.md`` describes the recalibration workflow.

The ``parallel`` engine is predicted relative to the best serial
estimate: dispatch overhead plus the serial time divided by an effective
speedup of ``0.7 × cores`` — on a single-core host it therefore never
wins, which matches measurement (R-F9).
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.plan.features import PlanFeatures

if TYPE_CHECKING:  # pragma: no cover
    from repro.bigraph.graph import BipartiteGraph
    from repro.bigraph.stats import GraphStats

__all__ = [
    "CALIBRATION_MAX_DENSITY",
    "CostModel",
    "DEFAULT_COEFFICIENTS",
    "MODEL_VERSION",
    "cost_from_stats",
    "estimate_cost",
    "feature_basis",
    "fit_coefficients",
]

MODEL_VERSION = "v2"

#: Fixed per-task overhead of the process-pool engine (pool spin-up,
#: graph shipping, result marshalling), in seconds.
PARALLEL_OVERHEAD_SECONDS = 0.35

#: Fraction of ideal linear speedup the parallel engine realises.
PARALLEL_EFFICIENCY = 0.7


# -- admission pre-flight ---------------------------------------------------

def cost_from_stats(stats: "GraphStats") -> int:
    """``|E| · max(1, D₂)`` from a precomputed stats row."""
    d2 = max(stats.max_two_hop_u, stats.max_two_hop_v)
    return stats.n_edges * max(1, d2)


def estimate_cost(graph: "BipartiteGraph") -> int:
    """Pre-flight work estimate ``|E| · max(D₂(U), D₂(V))``.

    ``D₂`` bounds the candidate-set size of any enumeration subtree, so
    this is (up to the output term the estimate cannot know) the shape
    of the MBET bound with the quantities admission can afford.
    """
    from repro.bigraph.stats import compute_stats

    return cost_from_stats(compute_stats(graph))


# -- runtime prediction -----------------------------------------------------

def feature_basis(features: PlanFeatures) -> list[float]:
    """The model's basis vector φ(features) (first entry is the bias)."""
    return [
        1.0,
        math.log1p(features.n_edges),
        math.log1p(features.cost),
        math.log1p(features.degree_skew),
        features.density,
        math.log1p(features.max_two_hop),
    ]


#: Analytic seed: ``t ≈ 50ns · |E| · D₂`` — a unit-cost reading of the
#: work bound.  In basis terms: bias ``ln(5e-8)``, unit weight on
#: ``log1p(cost)``, zero elsewhere.  Used for any engine the calibrated
#: table below does not cover.
ANALYTIC_SEED: tuple[float, ...] = (
    math.log(5e-8), 0.0, 1.0, 0.0, 0.0, 0.0
)

#: Calibrated per-engine coefficients, fit by :func:`fit_coefficients`
#: from the crossover matrix in the committed ``BENCH_2026-08-08a.json``
#: snapshot (13 zoo graphs at a 15s budget; see ``docs/planning.md`` for
#: the recalibration workflow).  The planner serves MBET, with MBEA as
#: its one independent fallback.
DEFAULT_COEFFICIENTS: dict[str, tuple[float, ...]] = {
    "mbea": (-11.188191, 0.632014, 0.71818, 0.561571, 32.824558, -1.033809),
    "mbet": (-12.571888, 0.725369, 0.744103, 0.442181, 38.936554, -1.195343),
}

#: Densest graph of that calibration set (the ``dbt`` zoo graph).  Scoring
#: clamps density here: with a density weight near 40, a dense graph
#: outside the fitted range (K10,10 has density 1.0) would otherwise be
#: predicted to run for years and be planned onto the process pool.
CALIBRATION_MAX_DENSITY = 0.0401


class CostModel:
    """Scores ``(engine, features)`` pairs in predicted wall-clock seconds."""

    def __init__(
        self,
        coefficients: Mapping[str, Iterable[float]] | None = None,
        n_cores: int | None = None,
    ):
        base = coefficients if coefficients is not None else DEFAULT_COEFFICIENTS
        self.coefficients: dict[str, tuple[float, ...]] = {
            engine: tuple(float(c) for c in coef)
            for engine, coef in base.items()
        }
        if n_cores is None:
            import os

            n_cores = os.cpu_count() or 1
        self.n_cores = max(1, int(n_cores))

    def predict_seconds(self, engine: str, features: PlanFeatures) -> float:
        """Predicted wall-clock seconds for ``engine`` on ``features``."""
        if engine == "parallel":
            return self._predict_parallel(features)
        if features.density > CALIBRATION_MAX_DENSITY:
            features = dataclasses.replace(
                features, density=CALIBRATION_MAX_DENSITY
            )
        phi = feature_basis(features)
        coef = self.coefficients.get(engine, ANALYTIC_SEED)
        log_t = sum(c * x for c, x in zip(coef, phi))
        # clamp to a sane range so a wild extrapolation cannot overflow
        return math.exp(min(25.0, max(-25.0, log_t)))

    def _predict_parallel(self, features: PlanFeatures) -> float:
        serial = min(
            (
                self.predict_seconds(e, features)
                for e in self.coefficients
                if e != "parallel"
            ),
            default=self.predict_seconds("mbet", features),
        )
        speedup = max(1.0, PARALLEL_EFFICIENCY * self.n_cores)
        return PARALLEL_OVERHEAD_SECONDS + serial / speedup

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": MODEL_VERSION,
            "n_cores": self.n_cores,
            "coefficients": {
                k: list(v) for k, v in sorted(self.coefficients.items())
            },
        }


def fit_coefficients(
    records: Iterable[Mapping[str, Any]],
    ridge: float = 1e-3,
) -> dict[str, tuple[float, ...]]:
    """Fit per-engine coefficients from crossover records.

    Each record needs ``engine``, ``elapsed``, ``complete`` and a
    ``features`` dict (the shape ``tools/bench_snapshot.py`` writes in
    its ``crossover`` section).  Incomplete (budget-truncated) rows are
    skipped — a truncated elapsed is a lower bound, not a measurement.
    Engines with fewer rows than basis dimensions still fit thanks to
    the ridge term, but the fit honestly degrades toward the seed scale.
    """
    import numpy as np

    by_engine: dict[str, list[tuple[list[float], float]]] = {}
    for rec in records:
        if not rec.get("complete", False):
            continue
        elapsed = float(rec["elapsed"])
        if elapsed <= 0.0:
            continue
        features = PlanFeatures.from_dict(rec["features"])
        by_engine.setdefault(str(rec["engine"]), []).append(
            (feature_basis(features), math.log(elapsed))
        )
    out: dict[str, tuple[float, ...]] = {}
    for engine, rows in sorted(by_engine.items()):
        phi = np.array([r[0] for r in rows], dtype=float)
        y = np.array([r[1] for r in rows], dtype=float)
        dim = phi.shape[1]
        # ridge-regularised normal equations, centred on the analytic
        # seed so sparse engines shrink toward it instead of toward zero
        seed = np.array(ANALYTIC_SEED[:dim], dtype=float)
        lhs = phi.T @ phi + ridge * np.eye(dim)
        rhs = phi.T @ y + ridge * seed
        coef = np.linalg.solve(lhs, rhs)
        out[engine] = tuple(round(float(c), 6) for c in coef)
    return out
