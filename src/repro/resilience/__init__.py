"""repro.resilience - the resilient execution layer for sweeps.

The paper's predictor is only viable because a bad speculation degrades
to a full BVH traversal instead of a wrong image.  This package applies
the same safety philosophy at *run* granularity so a multi-scene sweep
is never all-or-nothing:

* :mod:`repro.resilience.checkpoint` - crash-consistent checkpointing
  of per-unit sweep progress (atomic write-temp-then-rename), behind
  the CLI's ``--resume``;
* :mod:`repro.resilience.supervisor` - a run supervisor executing each
  unit under a wall-clock deadline and memory budget, classifying
  failures into transient (retry with seeded-jitter exponential
  backoff), degradable, skip-class, and fatal;
* :mod:`repro.resilience.degrade` - the explicit degradation ladder
  (wavefront -> predictor-disabled -> skip-with-diagnostic)
  and the partial-results manifest every resilient sweep terminates
  with.

See ``docs/ROBUSTNESS.md`` (ladder, retry semantics, checkpoint format)
and ``docs/BENCHMARKING.md`` (the ``--resume`` workflow).
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    SweepCheckpoint,
    atomic_write_json,
)
from repro.resilience.degrade import (
    LADDER,
    PartialResultsManifest,
    UnitEntry,
    next_rung,
    rungs_from,
)
from repro.resilience.supervisor import (
    ResilienceOptions,
    RetryPolicy,
    RunSupervisor,
    UnitOutcome,
    classify_failure,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "LADDER",
    "PartialResultsManifest",
    "ResilienceOptions",
    "RetryPolicy",
    "RunSupervisor",
    "SweepCheckpoint",
    "UnitEntry",
    "UnitOutcome",
    "atomic_write_json",
    "classify_failure",
    "next_rung",
    "rungs_from",
]
