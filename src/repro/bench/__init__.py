"""Benchmark harness: production code timed against its scalar twin.

The harness is the measured half of the production engines' contract:
the differential tests prove each production call agrees with its
scalar twin in :mod:`repro.reference` (traversal, the predictor
simulation, BVH build and refit, and the RT-unit timing model), and
:mod:`repro.bench.harness` times the two on pinned seeds and emits
machine-readable ``BENCH_<name>.json`` artifacts.
It is the only production module that imports :mod:`repro.reference`.
CI's benchmark-smoke job replays the quick preset and fails the build on
a >20 % regression against the committed baselines, which keep their
presets, gates and ``"wavefront"``/``"vector"``/``"scalar"`` record
labels (see ``docs/BENCHMARKING.md``).
"""

from repro.bench.harness import (
    ACCEPTED_SCHEMAS,
    BENCH_SCHEMA,
    BUILD_PRESET,
    FULL_PRESET,
    PREDICTOR_PRESET,
    PRESETS,
    QUICK_PRESET,
    TIMING_PRESET,
    BenchPreset,
    BenchRecord,
    compare_payloads,
    load_payload,
    run_benchmarks,
    sweep_fingerprint,
    write_payload,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "BENCH_SCHEMA",
    "BUILD_PRESET",
    "FULL_PRESET",
    "PREDICTOR_PRESET",
    "PRESETS",
    "QUICK_PRESET",
    "TIMING_PRESET",
    "BenchPreset",
    "BenchRecord",
    "compare_payloads",
    "load_payload",
    "run_benchmarks",
    "sweep_fingerprint",
    "write_payload",
]
