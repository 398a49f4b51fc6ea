"""Sweep telemetry, the off path, the profiler and the run ledger.

Pins the contracts docs/OBSERVABILITY.md documents for artifacts:
telemetry on/off never changes sweep results; the disabled off path
activates zero hooks; and the run ledger / two-run comparison built on
those artifacts flags injected regressions.
"""

import json

import pytest

from repro import telemetry
from repro.bench.harness import BenchPreset, run_benchmarks, write_payload
from repro.resilience.sweep import SimulatePreset, run_simulation_sweep
from repro.telemetry.ledger import (
    LedgerError,
    build_ledger,
    compare_runs,
    counter_deltas,
    ledger_entry,
    render_counter_deltas,
    render_trends,
)
from repro.telemetry.profiling import SamplingProfiler

#: Every bench family on one tiny scene.
BENCH_PRESET = BenchPreset(
    name="disttest",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    benchmarks=("occlusion_trace", "rt_timing", "predictor_sim"),
)

#: Two tiny scenes, so a sweep artifact has two scene rows.
SIM_PRESET = SimulatePreset(
    name="disttest",
    scenes=("SB", "CK"),
    width=8,
    height=8,
    spp=1,
    detail=0.25,
    sim_rays=64,
)

#: Wall-clock-derived fields that legitimately differ between runs.
TIMING_KEYS = frozenset({"total_backoff_s"})


def strip_timing(obj):
    if isinstance(obj, dict):
        return {
            key: strip_timing(value)
            for key, value in obj.items()
            if key not in TIMING_KEYS
        }
    if isinstance(obj, list):
        return [strip_timing(item) for item in obj]
    return obj


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset_telemetry()
    yield
    telemetry.disable()
    telemetry.reset_telemetry()


class TestSweepTelemetry:
    def test_results_bit_identical_telemetry_on_off(self):
        off = run_simulation_sweep(SIM_PRESET)
        telemetry.enable(reset=True)
        on = run_simulation_sweep(SIM_PRESET)
        assert "telemetry" not in off
        on = dict(on)
        on.pop("telemetry")
        assert strip_timing(off) == strip_timing(on)


class TestOffPathOverhead:
    def test_disabled_run_activates_zero_hooks(self):
        """With telemetry off, the new introspection hooks never fire."""
        assert not telemetry.enabled()
        run_benchmarks(BENCH_PRESET)
        run_simulation_sweep(SIM_PRESET)
        assert telemetry.hook_activations() == 0

    def test_enabled_run_activates_hooks(self):
        telemetry.enable(reset=True)
        run_benchmarks(BENCH_PRESET)
        assert telemetry.hook_activations() > 0


class TestProfilerHardening:
    def test_with_block_stops_sampler_on_exception(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with pytest.raises(RuntimeError, match="workload"):
            with profiler:
                assert profiler._thread is not None
                raise RuntimeError("workload failed")
        assert profiler._thread is None

    def test_with_block_stops_sampler_on_success(self):
        with SamplingProfiler(interval_s=0.001) as profiler:
            assert profiler._thread is not None
        assert profiler._thread is None


class TestLedger:
    def _write_artifacts(self, tmp_path):
        telemetry.enable(reset=True)
        payload = run_simulation_sweep(SIM_PRESET)
        (tmp_path / "SIM_disttest.json").write_text(json.dumps(payload))
        return payload

    def test_build_and_render(self, tmp_path):
        self._write_artifacts(tmp_path)
        ledger = build_ledger([str(tmp_path)])
        assert ledger["schema"] == "repro-ledger/1"
        (entry,) = ledger["entries"]
        assert entry["kind"] == "simulate"
        assert entry["has_telemetry"]
        assert entry["counters"]["predictor.rays"] > 0
        rendered = render_trends(ledger)
        assert "verified_rate" in rendered
        assert "SB" in rendered

    def test_entry_from_simulate_artifact(self, tmp_path):
        telemetry.enable(reset=True)
        payload = run_simulation_sweep(SIM_PRESET)
        path = tmp_path / "SIM_disttest.json"
        path.write_text(json.dumps(payload))
        entry = ledger_entry(str(path))
        assert entry["kind"] == "simulate"
        assert set(entry["scene_rows"]) == {"SB", "CK"}
        assert "verified_rate" in entry["scene_rows"]["SB"]

    def test_entry_from_bench_artifact(self, tmp_path):
        payload = run_benchmarks(BENCH_PRESET)
        entry = ledger_entry(write_payload(payload, str(tmp_path)))
        assert entry["kind"] == "bench"
        row = entry["scene_rows"]["SB"]
        cycles = {
            r["benchmark"]: r["extra"]["cycles"]
            for r in payload["results"] if "cycles" in r["extra"]
        }
        sim = next(
            r for r in payload["results"] if r["benchmark"] == "predictor_sim"
        )
        assert row == {
            "cycles": cycles["rt_timing"],
            "cycles_predictor": cycles["rt_timing_predictor"],
            "cycle_speedup_predictor": round(
                cycles["rt_timing"] / cycles["rt_timing_predictor"], 4
            ),
            "predicted_rate": sim["extra"]["predicted_rate"],
            "verified_rate": sim["extra"]["verified_rate"],
            "memory_savings": sim["extra"]["memory_savings"],
        }
        # Bench artifacts compare through the exact record gate.
        changed = json.loads(json.dumps(payload))
        changed["results"][0]["node_fetches"] += 1
        assert compare_runs(payload, payload) == []
        (problem,) = compare_runs(payload, changed)
        assert "occlusion_trace/SB: node_fetches changed" in problem

    def test_counter_deltas_and_regression_gate(self, tmp_path):
        payload = self._write_artifacts(tmp_path)
        # Identical runs: no counter deltas, gate passes.
        assert not compare_runs(payload, payload)
        rows = counter_deltas(payload, payload)
        assert rows and all(old == new for _, _, old, new in rows)
        assert "no differences" in render_counter_deltas(rows)
        # Injected regression: drop a scene's row, bump a counter.
        regressed = json.loads(json.dumps(payload))
        del regressed["results"][0]
        regressed["telemetry"]["metrics"]["counters"][0]["value"] += 11
        problems = compare_runs(payload, regressed)
        assert problems == ["simulate/SB: scene missing from new run"]
        changed = [
            r for r in counter_deltas(payload, regressed) if r[2] != r[3]
        ]
        assert len(changed) == 1
        assert changed[0][3] - changed[0][2] == 11

    def test_unknown_inputs_rejected(self, tmp_path):
        with pytest.raises(LedgerError):
            build_ledger([str(tmp_path / "missing")])
        bogus = tmp_path / "BENCH_x.json"
        bogus.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(LedgerError):
            ledger_entry(str(bogus))
        with pytest.raises(LedgerError):
            build_ledger([str(tmp_path)])
