"""Fault injection and differential verification for the predictor pipeline.

The paper's architecture is speculative by construction: a predictor
table entry may be wrong - stale after geometry moved, aliased by a
hash collision, or (in hardware) corrupted outright - and the
verify-then-fallback flow of Section 3 must absorb it with nothing worse
than wasted cycles.  This package turns that promise into an executable,
adversarial test:

* :mod:`repro.faults.injector` - a deterministic, seedable
  :class:`FaultInjector` that corrupts predictor-table entries
  (out-of-range / negative / bit-flipped / stale node ids, aliased
  tags), perturbs ray batches (NaN/inf origins, zero directions), and
  degrades geometry (zero-area triangles, duplicated vertices), keeping
  a full injection log for reproducibility.
* :mod:`repro.faults.oracle` - the differential oracle: run the same
  rays through a no-predictor baseline and through the predictor with
  faults being injected, then assert per-ray occlusion results are
  bit-identical.

See ``docs/ROBUSTNESS.md`` for the fault model and guard-point map.
"""

from repro.faults.injector import (
    FAULT_KINDS,
    RAY_FAULT_KINDS,
    FaultConfig,
    FaultInjector,
    FaultyPredictor,
    InjectionRecord,
)
from repro.faults.oracle import (
    DifferentialReport,
    run_differential_oracle,
)

__all__ = [
    "FAULT_KINDS",
    "RAY_FAULT_KINDS",
    "DifferentialReport",
    "FaultConfig",
    "FaultInjector",
    "FaultyPredictor",
    "InjectionRecord",
    "run_differential_oracle",
]
