"""Distributed telemetry: merge semantics, sharded sweeps, the ledger.

Pins the contracts docs/OBSERVABILITY.md documents for cross-process
aggregation: worker snapshots merge into the parent registry with
label-preserving counter addition and raw-bucket histogram union; a
sharded ``repro simulate --jobs 2`` sweep's merged metrics match the
serial run's; telemetry on/off never changes sweep results; the
disabled off path activates zero hooks; and the run ledger / two-run
comparison built on those artifacts flags injected regressions.
"""

import json

import pytest

from repro import telemetry
from repro.bench.harness import BenchPreset, run_benchmarks, write_payload
from repro.resilience.sweep import SimulatePreset, run_simulation_sweep
from repro.telemetry import distributed
from repro.telemetry.ledger import (
    LedgerError,
    build_ledger,
    compare_runs,
    counter_deltas,
    ledger_entry,
    render_counter_deltas,
    render_trends,
)
from repro.telemetry.metrics import MetricError, Registry
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

#: Two tiny scenes so sharding across 2 workers is non-trivial.
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


def _counter_map(snapshot):
    """``{(name, labels...): value}`` over a registry snapshot."""
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in snapshot["counters"]
    }


def _histogram_map(snapshot):
    return {
        (h["name"], tuple(sorted(h["labels"].items()))): h
        for h in snapshot["histograms"]
    }


class TestMergeSemantics:
    def test_counters_add_label_wise(self):
        reg = Registry()
        reg.counter("rays", scene="SB").inc(3)
        reg.counter("rays", scene="CK").inc(10)
        worker = {
            "counters": [
                {"name": "rays", "labels": {"scene": "SB"}, "value": 4},
                {"name": "rays", "labels": {"scene": "SP"}, "value": 7},
            ],
            "gauges": [],
            "histograms": [],
        }
        distributed.merge_metrics(reg, worker)
        merged = _counter_map(reg.snapshot())
        assert merged[("rays", (("scene", "SB"),))] == 7
        assert merged[("rays", (("scene", "CK"),))] == 10
        assert merged[("rays", (("scene", "SP"),))] == 7

    def test_gauges_last_write_wins(self):
        reg = Registry()
        reg.gauge("cycles").set(100)
        worker = {
            "counters": [],
            "gauges": [{"name": "cycles", "labels": {}, "value": 250.0}],
            "histograms": [],
        }
        distributed.merge_metrics(reg, worker)
        assert reg.snapshot()["gauges"][0]["value"] == 250.0

    def test_histograms_union_raw_buckets(self):
        reg = Registry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        hist.observe(0.5)
        hist.observe(3.0)
        worker_reg = Registry()
        whist = worker_reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        whist.observe(1.5)
        whist.observe(10.0)
        distributed.merge_metrics(reg, worker_reg.snapshot())
        merged = reg.snapshot()["histograms"][0]
        assert merged["count"] == 4
        assert merged["sum"] == pytest.approx(15.0)
        assert merged["min"] == 0.5
        assert merged["max"] == 10.0
        # Cumulative buckets over {0.5, 1.5, 3.0, 10.0}.
        by_le = {b["le"]: b["count"] for b in merged["buckets"]}
        assert by_le[1.0] == 1
        assert by_le[2.0] == 2
        assert by_le[4.0] == 3
        assert by_le["inf"] == 4

    def test_histogram_edge_mismatch_rejected(self):
        reg = Registry()
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        worker_reg = Registry()
        worker_reg.histogram("lat", buckets=(1.0, 2.0, 4.0)).observe(0.5)
        with pytest.raises(MetricError):
            distributed.merge_metrics(reg, worker_reg.snapshot())

    def test_label_collision_across_kinds_rejected(self):
        reg = Registry()
        reg.counter("x").inc()
        worker = {
            "counters": [],
            "gauges": [{"name": "x", "labels": {}, "value": 1.0}],
            "histograms": [],
        }
        with pytest.raises(MetricError):
            distributed.merge_metrics(reg, worker)

    def test_absorbed_snapshot_equals_label_wise_sum(self):
        """Parent registry after absorbing == label-wise sum of workers."""
        telemetry.enable(reset=True)
        snapshots = []
        for scene, rays in (("SB", 3), ("CK", 5)):
            worker_reg = Registry()
            worker_reg.counter("rays", scene=scene).inc(rays)
            worker_reg.counter("rays", scene="shared").inc(1)
            snapshots.append({
                "schema": distributed.SNAPSHOT_SCHEMA,
                "pid": 1234,
                "unit": scene,
                "metrics": worker_reg.snapshot(),
                "events": [],
                "dropped_events": 0,
                "phases": {},
            })
        for snapshot in snapshots:
            assert distributed.absorb_snapshot(snapshot)
        merged = _counter_map(telemetry.get_registry().snapshot())
        expected = {}
        for snapshot in snapshots:
            for key, value in _counter_map(snapshot["metrics"]).items():
                expected[key] = expected.get(key, 0) + value
        assert merged == expected
        assert len(telemetry.worker_snapshots()) == 2

    def test_absorb_rejects_unknown_schema(self):
        telemetry.enable(reset=True)
        with pytest.raises(MetricError):
            distributed.absorb_snapshot({"schema": "bogus/9", "metrics": {}})

    def test_absorb_none_is_noop(self):
        assert distributed.absorb_snapshot(None) is False


class TestShardedSweeps:
    def test_sharded_metrics_match_serial(self):
        telemetry.enable(reset=True)
        serial = run_simulation_sweep(SIM_PRESET, jobs=1)
        telemetry.enable(reset=True)
        sharded = run_simulation_sweep(SIM_PRESET, jobs=2)
        assert serial["telemetry"]["metrics"] == sharded["telemetry"]["metrics"]
        # The sharded run's telemetry came from worker processes.
        workers = sharded["telemetry"]["workers"]
        assert {w["unit"] for w in workers} == {"SB", "CK"}

    def test_results_bit_identical_telemetry_on_off(self):
        off = run_simulation_sweep(SIM_PRESET, jobs=2)
        telemetry.enable(reset=True)
        on = run_simulation_sweep(SIM_PRESET, jobs=2)
        assert "telemetry" not in off
        on = dict(on)
        on.pop("telemetry")
        assert strip_timing(off) == strip_timing(on)

    def test_stitched_trace_covers_worker_pids(self):
        telemetry.enable(reset=True)
        run_simulation_sweep(SIM_PRESET, jobs=2)
        events = distributed.stitched_chrome_trace()
        pids = {e["pid"] for e in events}
        worker_pids = {s["pid"] for s in telemetry.worker_snapshots()}
        assert worker_pids, "workers shipped no snapshots"
        assert worker_pids <= pids
        # Every worker row leads with a process_name metadata record.
        meta = [e for e in events if e.get("ph") == "M"]
        assert {e["pid"] for e in meta} == pids

    def test_simulate_sharded_metrics_match_serial(self):
        telemetry.enable(reset=True)
        serial = run_simulation_sweep(SIM_PRESET, jobs=1)
        telemetry.enable(reset=True)
        sharded = run_simulation_sweep(SIM_PRESET, jobs=2)
        assert serial["telemetry"]["metrics"] == sharded["telemetry"]["metrics"]
        assert strip_timing(serial["results"]) == strip_timing(
            sharded["results"]
        )


class TestOffPathOverhead:
    def test_disabled_run_activates_zero_hooks(self):
        """With telemetry off, the new introspection hooks never fire."""
        assert not telemetry.enabled()
        run_benchmarks(BENCH_PRESET)
        run_simulation_sweep(SIM_PRESET, jobs=1)
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
        payload = run_simulation_sweep(SIM_PRESET, jobs=2)
        (tmp_path / "SIM_disttest.json").write_text(json.dumps(payload))
        return payload

    def test_build_and_render(self, tmp_path):
        self._write_artifacts(tmp_path)
        ledger = build_ledger([str(tmp_path)])
        assert ledger["schema"] == "repro-ledger/1"
        (entry,) = ledger["entries"]
        assert entry["kind"] == "simulate"
        assert entry["has_telemetry"]
        assert len(entry["worker_pids"]) >= 1
        assert entry["counters"]["predictor.rays"] > 0
        rendered = render_trends(ledger)
        assert "verified_rate" in rendered
        assert "SB" in rendered

    def test_entry_from_simulate_artifact(self, tmp_path):
        telemetry.enable(reset=True)
        payload = run_simulation_sweep(SIM_PRESET, jobs=1)
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
