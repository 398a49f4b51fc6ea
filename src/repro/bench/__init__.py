"""Benchmark harness: production calls on pinned seeds, gated exactly.

:mod:`repro.bench.harness` runs the production calls of each pipeline
stage serially on pinned-seed workloads and emits machine-readable
``BENCH_<name>.json`` artifacts (schema ``repro-bench/7``).  CI's
``repro bench --preset P --check`` steps fail when a record of the
committed baseline in ``benchmarks/baselines`` does not reappear with
equal deterministic fields, or when a predictor record leaves the
paper's regime (see ``docs/BENCHMARKING.md``).  The differential
contracts against the scalar oracles in :mod:`repro.reference` live in
the test suite.
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    BUILD_PRESET,
    FULL_PRESET,
    PREDICTOR_PRESET,
    PRESETS,
    QUICK_PRESET,
    BenchPreset,
    BenchRecord,
    compare_payloads,
    load_payload,
    run_benchmarks,
    write_payload,
)

__all__ = [
    "BENCH_SCHEMA",
    "BUILD_PRESET",
    "FULL_PRESET",
    "PREDICTOR_PRESET",
    "PRESETS",
    "QUICK_PRESET",
    "BenchPreset",
    "BenchRecord",
    "compare_payloads",
    "load_payload",
    "run_benchmarks",
    "write_payload",
]
