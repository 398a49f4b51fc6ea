"""Telemetry subsystem tests: registry, tracer, profiling, pipeline wiring.

Covers the contracts docs/OBSERVABILITY.md documents: label/snapshot
semantics of the metrics registry, cumulative histogram buckets, span
nesting and Chrome ``trace_event`` export, the near-zero off path, and
the end-to-end invariant that the predictor counters published by the
instrumented pipeline decompose every traced ray exactly once.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.analysis.sweep import SimulatePreset, run_simulation_sweep
from repro.bench.harness import BenchPreset, run_benchmarks
from repro.telemetry.metrics import MetricError, Registry
from repro.telemetry.profiling import PhaseTimer, SamplingProfiler
from repro.telemetry.schema import TELEMETRY_SCHEMA, validate_telemetry
from repro.telemetry.tracing import (
    EventTracer,
    summarize_spans,
    write_chrome_trace,
)

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


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with telemetry off and empty."""
    telemetry.disable()
    telemetry.reset_telemetry()
    yield
    telemetry.disable()
    telemetry.reset_telemetry()


class TestRegistry:
    def test_counter_get_or_create_by_name_and_labels(self):
        reg = Registry()
        a = reg.counter("rays", scene="SP")
        b = reg.counter("rays", scene="SP")
        c = reg.counter("rays", scene="LR")
        assert a is b
        assert a is not c
        a.inc(3)
        c.inc(2)
        assert reg.value("rays", scene="SP") == 3
        assert reg.total("rays") == 5

    def test_label_order_does_not_matter(self):
        reg = Registry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_counter_rejects_negative(self):
        reg = Registry()
        with pytest.raises(MetricError):
            reg.counter("x").inc(-1)

    def test_kind_conflict_detected(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")

    def test_gauge_set_inc_dec(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(10.0)
        g.inc(2.0)
        g.dec(4.0)
        assert g.value == 8.0

    def test_snapshot_shape_and_determinism(self):
        reg = Registry()
        reg.counter("b", scene="SP").inc(1)
        reg.counter("a", scene="SP").inc(2)
        reg.gauge("g").set(0.5)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["a", "b"]
        assert snap["counters"][0] == {
            "name": "a", "labels": {"scene": "SP"}, "value": 2,
        }
        assert snap == reg.snapshot()
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_reset_clears_everything(self):
        reg = Registry()
        reg.counter("x").inc()
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == []


class TestHistogram:
    def test_bucket_edges_are_cumulative(self):
        reg = Registry()
        h = reg.histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"][0]
        # Cumulative le-style buckets: observe(1.0) lands in le=1.0.
        les = [(b["le"], b["count"]) for b in snap["buckets"]]
        assert les == [(1.0, 2), (5.0, 3), (10.0, 4), ("inf", 5)]
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0
        assert snap["sum"] == pytest.approx(111.5)

    def test_rejects_non_increasing_buckets(self):
        reg = Registry()
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=(2.0, 1.0))

    def test_quantile_bound(self):
        reg = Registry()
        h = reg.histogram("q", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 0.7, 20.0):
            h.observe(v)
        assert h.quantile_bound(0.5) == 1.0
        assert h.quantile_bound(0.99) == float("inf")

    def test_bucket_mismatch_on_reuse_rejected(self):
        reg = Registry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=(3.0, 4.0))

    def test_histograms_union_raw_buckets(self):
        reg = Registry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        hist.observe(0.5)
        hist.observe(3.0)
        other = Registry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        other.observe(1.5)
        other.observe(10.0)
        hist.add_raw(
            other.bucket_counts, other.count, other.sum, other.min, other.max
        )
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
        hist = Registry().histogram("lat", buckets=(1.0, 2.0))
        hist.observe(0.5)
        other = Registry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        other.observe(0.5)
        with pytest.raises(MetricError):
            hist.add_raw(
                other.bucket_counts, other.count, other.sum, other.min,
                other.max,
            )


class TestTracer:
    def test_span_nesting_records_both(self):
        tracer = EventTracer()
        with tracer.span("outer", scene="SP"):
            with tracer.span("inner"):
                pass
        names = [e.name for e in tracer.events()]
        # Spans close inner-first.
        assert names == ["inner", "outer"]
        outer = tracer.events()[1]
        assert outer.args == {"scene": "SP"}
        assert outer.dur_ns >= 0

    def test_span_add_attaches_late_args(self):
        tracer = EventTracer()
        with tracer.span("work") as sp:
            sp.add(levels=7)
        assert tracer.events()[0].args["levels"] == 7

    def test_ring_buffer_drops_and_counts(self):
        tracer = EventTracer(capacity=2)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 2
        assert tracer.dropped == 3

    def test_chrome_trace_is_valid_and_viewable_shape(self, tmp_path):
        tracer = EventTracer()
        with tracer.span("stage", rays=8):
            tracer.instant("marker")
        events = tracer.chrome_trace()
        parsed = json.loads(json.dumps(events))
        assert parsed[0]["ph"] == "M"
        assert parsed[0]["name"] == "process_name"
        phases = {e["ph"] for e in parsed[1:]}
        assert phases == {"X", "i"}
        for e in parsed[1:]:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        path = tmp_path / "trace.json"
        write_chrome_trace(events, str(path))
        on_disk = json.loads(path.read_text())
        assert "traceEvents" in on_disk

    def test_summarize_spans_aggregates(self):
        tracer = EventTracer()
        for _ in range(3):
            with tracer.span("stage"):
                pass
        summary = summarize_spans(tracer.events())
        assert summary["stage"]["count"] == 3
        assert summary["stage"]["total_ms"] >= 0


class TestOffPath:
    def test_disabled_span_is_shared_noop(self):
        assert telemetry.span("a") is telemetry.span("b")
        with telemetry.span("a") as sp:
            sp.add(x=1)  # must not raise
        assert telemetry.get_tracer().events() == []

    def test_disabled_counters_record_nothing(self):
        telemetry.inc_counter("x", 5)
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        snap = telemetry.get_registry().snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_env_enabled_parsing(self):
        for value in ("1", "true", "YES", " on "):
            assert telemetry.env_enabled(value)
        for value in (None, "", "0", "false", "off", "no"):
            assert not telemetry.env_enabled(value)

    def test_enabled_scope_restores(self):
        assert not telemetry.enabled()
        with telemetry.enabled_scope():
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_label_context_merges_innermost_wins(self):
        with telemetry.label_context(scene="SP", run=1):
            with telemetry.label_context(scene="LR"):
                labels = telemetry.current_labels({"stage": "x"})
        assert labels == {"scene": "LR", "run": "1", "stage": "x"}

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


class TestProfiling:
    def test_phase_timer_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("build"):
            sum(range(1000))
        with timer.phase("build"):
            pass
        report = timer.report()
        assert report["build"]["count"] == 2
        assert report["build"]["wall_s"] >= 0.0
        assert report["build"]["cpu_s"] >= 0.0

    def test_sampling_profiler_smoke(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler.profile():
            deadline = time.perf_counter() + 0.05
            x = 0
            while time.perf_counter() < deadline:
                x += 1
        report = profiler.report()
        assert report["total_samples"] >= 1
        assert report["hot_functions"]
        assert all("frame" in e for e in report["hot_functions"])

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

    def test_clean_stop_raises_nothing(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        time.sleep(0.02)
        profiler.stop()
        assert profiler._thread is None

    def test_wedged_thread_is_diagnosed(self, monkeypatch, caplog):
        import logging

        profiler = SamplingProfiler(interval_s=0.001)
        release = threading.Event()
        wedged = threading.Thread(
            target=release.wait, name="repro-profiler", daemon=True
        )
        wedged.start()
        profiler._thread = wedged
        try:
            with caplog.at_level(logging.WARNING, "repro.telemetry.profiling"):
                with pytest.raises(RuntimeError, match="did not stop"):
                    profiler.stop(join_timeout_s=0.01)
            assert any("did not stop" in r.message for r in caplog.records)
            assert profiler._thread is None  # still resets; stop is final

            # The suppressing form logs but does not raise (used when an
            # exception is already propagating out of profile()).
            profiler._thread = wedged
            profiler.stop(join_timeout_s=0.01, raise_on_leak=False)
        finally:
            release.set()

    def test_profile_context_does_not_mask_workload_error(self, monkeypatch):
        profiler = SamplingProfiler(interval_s=0.001)

        def never_joins(self, timeout=None):
            return None

        with pytest.raises(ValueError, match="workload bug"):
            with profiler.profile():
                monkeypatch.setattr(
                    threading.Thread, "join", never_joins
                )
                raise ValueError("workload bug")


class TestTraversalStatsShim:
    def test_publish_folds_into_registry(self):
        from repro.telemetry.stats import TraversalStats

        stats = TraversalStats()
        stats.rays, stats.node_fetches, stats.hits = 10, 40, 6
        with telemetry.enabled_scope():
            stats.publish(engine="scalar", stage="occlusion")
        reg = telemetry.get_registry()
        assert reg.value(
            "trace.node_fetches", engine="scalar", stage="occlusion"
        ) == 40
        assert reg.total("trace.rays") == 10


class TestPipelineIntegration:
    #: All seven paper scenes; the smoke stays tiny per scene.
    SCENES = ("SB", "SP", "LE", "LR", "FR", "BI", "CK")

    @pytest.mark.parametrize("scene_code", SCENES)
    def test_predictor_counters_decompose_rays(self, scene_code):
        from repro.analysis.experiments import scaled_predictor_config
        from repro.bvh import build_bvh
        from repro.core.simulate import simulate_predictor
        from repro.rays import generate_ao_workload
        from repro.scenes import get_scene

        scene = get_scene(scene_code, detail=0.2)
        bvh = build_bvh(scene.mesh)
        rays = generate_ao_workload(
            scene, bvh, width=8, height=8, spp=1, seed=1
        ).rays
        rays = rays.subset(np.arange(min(64, len(rays))))
        with telemetry.enabled_scope():
            telemetry.reset_telemetry()
            with telemetry.label_context(scene=scene_code):
                simulate_predictor(bvh, rays, scaled_predictor_config())
            reg = telemetry.get_registry()
            total = reg.total("predictor.rays")
            assert total == len(rays)
            # Every ray is exactly one of verified/mispredicted/unpredicted.
            assert (
                reg.total("predictor.verified")
                + reg.total("predictor.mispredicted")
                + reg.total("predictor.unpredicted")
            ) == total
            assert (
                reg.total("predictor.verified")
                + reg.total("predictor.mispredicted")
            ) == reg.total("predictor.predicted")
            # The scene label rode along via the ambient context.
            assert reg.value(
                "predictor.rays", engine="wavefront", scene=scene_code
            ) == total

    def test_scalar_and_wavefront_publish_same_totals(self):
        from repro import reference
        from repro.analysis.experiments import scaled_predictor_config
        from repro.bvh import build_bvh
        from repro.rays import generate_ao_workload
        from repro.scenes import get_scene
        from repro.trace import TraversalStats, trace_occlusion_batch

        scene = get_scene("SP", detail=0.2)
        bvh = build_bvh(scene.mesh)
        rays = generate_ao_workload(
            scene, bvh, width=8, height=8, spp=1, seed=1
        ).rays
        hits = {}
        tracers = (
            ("scalar", reference.trace_occlusion_batch),
            ("wavefront", trace_occlusion_batch),
        )
        for engine, trace in tracers:
            with telemetry.enabled_scope():
                telemetry.reset_telemetry()
                stats = TraversalStats()
                trace(bvh, rays, stats=stats)
                reg = telemetry.get_registry()
                assert reg.total("trace.rays") == len(rays)
                assert reg.value(
                    "trace.rays", engine=engine, stage="occlusion"
                ) == len(rays)
                assert reg.total("trace.node_fetches") == stats.node_fetches
                hits[engine] = reg.total("trace.hits")
        # The engines produce bit-identical *results*; fetch counts may
        # differ (traversal order), but the published hits must agree.
        assert hits["scalar"] == hits["wavefront"]

    def test_runner_payload_validates_clean(self):
        from repro.telemetry.runner import (
            TelemetryPreset,
            run_telemetry_workload,
        )

        preset = TelemetryPreset(
            scene="SP", detail=0.2, width=8, height=8, spp=1,
            sim_rays=64, rt_rays=64,
        )
        payload = run_telemetry_workload(preset)
        assert payload["schema"] == TELEMETRY_SCHEMA
        assert validate_telemetry(payload) == []
        json.dumps(payload)
        # The runner restores the pre-run switch state (off here).
        assert not telemetry.enabled()

    def test_validate_catches_broken_payloads(self):
        from repro.telemetry.runner import (
            TelemetryPreset,
            run_telemetry_workload,
        )

        preset = TelemetryPreset(
            scene="SP", detail=0.2, width=8, height=8, spp=1,
            sim_rays=64, rt_rays=64,
        )
        payload = run_telemetry_workload(preset)
        broken = json.loads(json.dumps(payload))
        for entry in broken["metrics"]["counters"]:
            if entry["name"] == "predictor.verified":
                entry["value"] += 1
        problems = validate_telemetry(broken)
        assert problems
        del broken["spans"]
        assert any("spans" in p for p in validate_telemetry(broken))
