"""Differential and metamorphic fuzzing of the enumeration engines.

The repository ships many independently-implemented engines for the same
problem; this subsystem turns that redundancy into standing correctness
machinery, the way BBK and the GPU-acceleration line validate new engines
by differential comparison against independent baselines:

* :mod:`repro.check.cases` — seeded random graph cases (reusing the
  :mod:`repro.bigraph.generators`) plus dataset-zoo cases.
* :mod:`repro.check.engines` — engine-under-test specs (a registry name
  plus constructor options, or an explicit factory).
* :mod:`repro.check.oracles` — the oracle battery: definitional
  verification (:mod:`repro.core.verify`), cross-engine set equality,
  a setops differential oracle (sorted-list and Python-int set
  operations vs ``set``), vertex-relabeling equivariance, U/V-swap
  symmetry, threshold monotonicity, budget-prefix soundness, and
  kill/resume parity.
* :mod:`repro.check.shrink` — greedy vertex/edge deletion that minimizes
  any failing graph while preserving the failure.
* :mod:`repro.check.harness` — the fuzz loop tying it together, exposed
  as the ``repro fuzz`` CLI subcommand and the nightly CI job.
* :mod:`repro.check.selftest` — a deliberately-broken engine proving the
  harness detects and minimizes real bugs.

See ``docs/testing.md`` for the full catalogue and workflow.
"""

from repro.check.cases import GraphCase, dataset_cases, sample_case
from repro.check.engines import EngineSpec, default_engines
from repro.check.harness import FuzzConfig, FuzzReport, run_fuzz
from repro.check.oracles import (
    OracleFailure,
    agreement_oracle,
    budget_prefix_oracle,
    kill_resume_oracle,
    relabel_oracle,
    setops_oracle,
    swap_oracle,
    threshold_oracle,
)
from repro.check.report import Counterexample, write_counterexample
from repro.check.shrink import shrink_graph

__all__ = [
    "Counterexample",
    "EngineSpec",
    "FuzzConfig",
    "FuzzReport",
    "GraphCase",
    "OracleFailure",
    "agreement_oracle",
    "budget_prefix_oracle",
    "dataset_cases",
    "default_engines",
    "kill_resume_oracle",
    "relabel_oracle",
    "run_fuzz",
    "sample_case",
    "setops_oracle",
    "shrink_graph",
    "swap_oracle",
    "threshold_oracle",
    "write_counterexample",
]
