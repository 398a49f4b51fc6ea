"""Benchmark harness tests: artifact schema, I/O, and the exact gate."""

import copy
import json
import os
from dataclasses import asdict

import pytest

from repro import get_scene
from repro.bench import (
    BENCH_SCHEMA,
    PRESETS,
    QUICK_PRESET,
    BenchPreset,
    compare_payloads,
    load_payload,
    run_benchmarks,
    write_payload,
)
from repro.bench.harness import (
    GATED_FIELDS,
    check_against_baselines,
    regime_problems,
    summarize,
)
from repro.bvh import build_bvh, compute_stats
from repro.errors import TraversalError

#: One tiny scene, tiny image: keeps the end-to-end test fast.
TEST_PRESET = BenchPreset(
    name="testrun",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
)

#: The predictor families on the same tiny workload (too small to be in
#: the paper's regime; the regime checks run on the committed baseline).
PREDICTOR_TEST_PRESET = BenchPreset(
    name="predtest",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    benchmarks=("rt_timing", "predictor_sim"),
)

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baselines",
)


def baseline(name):
    return load_payload(os.path.join(BASELINE_DIR, f"BENCH_{name}.json"))


def record(payload, family, scene="SB"):
    return next(
        r for r in payload["results"]
        if r["benchmark"] == family and r["scene"] == scene
    )


@pytest.fixture(scope="module")
def payload():
    return run_benchmarks(TEST_PRESET)


class TestArtifact:
    def test_schema_and_shape(self, payload):
        assert payload["schema"] == BENCH_SCHEMA == "repro-bench/7"
        assert payload["name"] == "testrun"
        assert payload["scenes"] == ["SB"]
        assert payload["preset"] == asdict(TEST_PRESET)
        assert set(payload) == {"schema", "name", "preset", "scenes", "results"}
        # 2 traversal benchmarks x 1 scene, production only.
        assert [r["benchmark"] for r in payload["results"]] == [
            "occlusion_trace", "closest_trace",
        ]
        for rec in payload["results"]:
            assert set(rec) == {
                "benchmark", "scene", "rays", "wall_time_s", "rays_per_sec",
                "node_fetches", "tri_fetches", "extra",
            }
            assert rec["rays"] > 0
            assert rec["wall_time_s"] >= 0
            assert rec["node_fetches"] > 0

    def test_counters_deterministic_across_runs(self, payload):
        second = run_benchmarks(TEST_PRESET)
        for first, again in zip(payload["results"], second["results"]):
            for name in GATED_FIELDS:
                assert first[name] == again[name]

    def test_json_round_trip(self, payload, tmp_path):
        path = write_payload(payload, str(tmp_path))
        assert path.endswith("BENCH_testrun.json")
        assert load_payload(path) == json.loads(json.dumps(payload))

    def test_load_rejects_foreign_schema(self, payload, tmp_path):
        bad = dict(payload, schema="other/9")
        path = write_payload(bad, str(tmp_path))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_payload(path)

    def test_load_rejects_older_schema(self, payload, tmp_path):
        for schema in ("repro-bench/1", "repro-bench/6"):
            path = write_payload(dict(payload, schema=schema), str(tmp_path))
            with pytest.raises(ValueError, match="re-baseline"):
                load_payload(path)

    def test_no_telemetry_section_when_disabled(self, payload):
        # The module fixture runs with telemetry off; the artifact must
        # not grow a telemetry section in that mode.
        assert "telemetry" not in payload

    def test_telemetry_section_when_enabled(self):
        from repro import telemetry

        with telemetry.enabled_scope():
            telemetry.reset_telemetry()
            enabled_payload = run_benchmarks(TEST_PRESET)
        section = enabled_payload["telemetry"]
        names = {c["name"] for c in section["metrics"]["counters"]}
        assert "trace.node_fetches" in names
        assert any(
            c["labels"].get("scene") == "SB"
            for c in section["metrics"]["counters"]
        )
        assert section["spans"]

    def test_summarize_mentions_speedups(self):
        text = summarize(baseline("predictor"))
        assert "cycles 14847 -> 13126 (1.131x speedup)" in text
        assert "verified 31.8%" in text

    def test_predictor_families_record_cycles_and_rates(self):
        pred = run_benchmarks(PREDICTOR_TEST_PRESET)
        assert [r["benchmark"] for r in pred["results"]] == [
            "rt_timing", "rt_timing_predictor", "predictor_sim",
            "predictor_sim_w8",
        ]
        rays = {r["rays"] for r in pred["results"]}
        assert rays == {36}  # every ray, no prefix cap
        assert "verified_rate" not in record(pred, "rt_timing")["extra"]
        assert record(pred, "rt_timing_predictor")["extra"]["cycles"] > 0
        for family in ("predictor_sim", "predictor_sim_w8"):
            assert set(record(pred, family)["extra"]) == {
                "verified_rate", "memory_savings", "predicted_rate",
                "baseline_node_fetches",
            }
        assert compare_payloads(pred, pred) == []


class TestRegressionGate:
    def test_identical_payloads_pass(self, payload):
        assert compare_payloads(payload, payload) == []

    def test_counter_drift_fails(self, payload):
        # Exact: a single extra fetch fails.
        current = copy.deepcopy(payload)
        current["results"][0]["node_fetches"] += 1
        problems = compare_payloads(current, payload)
        assert problems == [
            f"occlusion_trace/SB: node_fetches changed "
            f"{payload['results'][0]['node_fetches']} -> "
            f"{current['results'][0]['node_fetches']}"
        ]

    @pytest.mark.parametrize("name", ["rays", "tri_fetches"])
    def test_other_counters_gate_exactly(self, payload, name):
        current = copy.deepcopy(payload)
        current["results"][1][name] -= 1
        problems = compare_payloads(current, payload)
        assert any(f"closest_trace/SB: {name} changed" in p for p in problems)

    def test_missing_record_fails(self, payload):
        current = copy.deepcopy(payload)
        current["results"] = current["results"][1:]
        problems = compare_payloads(current, payload)
        assert problems == ["occlusion_trace/SB: record missing from current run"]

    def test_wall_time_is_not_gated(self, payload):
        current = copy.deepcopy(payload)
        for rec in current["results"]:
            rec["wall_time_s"] *= 10
            rec["rays_per_sec"] /= 10
        assert compare_payloads(current, payload) == []

    def test_missing_baseline_reported(self, payload, tmp_path):
        problems = check_against_baselines(payload, str(tmp_path))
        assert problems and "no committed baseline" in problems[0]

    def test_check_against_committed_baseline_dir(self, payload, tmp_path):
        write_payload(payload, str(tmp_path))
        assert check_against_baselines(payload, str(tmp_path)) == []

    def test_check_rejects_older_baseline_schema(self, payload, tmp_path):
        write_payload(dict(payload, schema="repro-bench/6"), str(tmp_path))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            check_against_baselines(payload, str(tmp_path))


#: Build-benchmark variant of the test preset: the SAH build plus refit.
BUILD_TEST_PRESET = BenchPreset(
    name="buildtest",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    benchmarks=("bvh_build",),
)


@pytest.fixture(scope="module")
def build_payload():
    return run_benchmarks(BUILD_TEST_PRESET)


class TestBuildArtifact:
    def test_record_matrix(self, build_payload):
        records = build_payload["results"]
        assert [r["benchmark"] for r in records] == [
            "bvh_build_sah", "bvh_refit",
        ]
        for rec in records:
            assert rec["rays"] > 0  # triangle count
            assert rec["node_fetches"] == 0

    def test_tree_shape_matches_records(self, build_payload):
        mesh = get_scene("SB", detail=BUILD_TEST_PRESET.detail).mesh
        tree = build_bvh(mesh)
        stats = compute_stats(tree)
        assert record(build_payload, "bvh_build_sah")["extra"] == {
            "nodes": float(tree.num_nodes),
            "max_depth": float(stats.max_depth),
            "sah_cost": round(stats.sah_cost, 6),
            "levels": float(len(tree.levels())),
        }

    def test_summarize_mentions_build(self, build_payload):
        text = summarize(build_payload)
        assert "bvh_build_sah" in text
        assert "SAH" in text


class TestBuildRegressionGate:
    def test_identical_payloads_pass(self, build_payload):
        assert compare_payloads(build_payload, build_payload) == []

    def test_tree_shape_drift_fails(self, build_payload):
        current = copy.deepcopy(build_payload)
        record(current, "bvh_build_sah")["extra"]["nodes"] += 2
        problems = compare_payloads(current, build_payload)
        assert any("bvh_build_sah/SB: nodes changed" in p for p in problems)

    def test_sah_cost_gates_exactly(self, build_payload):
        current = copy.deepcopy(build_payload)
        record(current, "bvh_build_sah")["extra"]["sah_cost"] += 1e-6
        problems = compare_payloads(current, build_payload)
        assert any("sah_cost changed" in p for p in problems)

    def test_missing_scene_fails(self, build_payload):
        current = copy.deepcopy(build_payload)
        current["results"] = []
        problems = compare_payloads(current, build_payload)
        assert len(problems) == 2
        assert all("record missing" in p for p in problems)


class TestPredictorGate:
    """``--check`` on the predictor preset, tampered from its baseline."""

    def test_changed_cycles_fail(self):
        base = baseline("predictor")
        current = copy.deepcopy(base)
        record(current, "rt_timing_predictor", "LR")["extra"]["cycles"] += 1
        assert compare_payloads(current, base) == [
            "rt_timing_predictor/LR: cycles changed 5598.0 -> 5599.0"
        ]

    @pytest.mark.parametrize(
        "family, name",
        [("predictor_sim", "verified_rate"), ("predictor_sim", "memory_savings"),
         ("rt_timing", "l2_hit_rate"), ("rt_timing_predictor", "predicted_rate")],
    )
    def test_changed_rate_fails(self, family, name):
        base = baseline("predictor")
        current = copy.deepcopy(base)
        record(current, family, "CK")["extra"][name] += 1e-6
        problems = compare_payloads(current, base)
        assert problems == [
            f"{family}/CK: {name} changed "
            f"{record(base, family, 'CK')['extra'][name]} -> "
            f"{record(current, family, 'CK')['extra'][name]}"
        ]

    def test_dropped_extra_fails(self):
        base = baseline("predictor")
        current = copy.deepcopy(base)
        del record(current, "predictor_sim", "SP")["extra"]["predicted_rate"]
        problems = compare_payloads(current, base)
        assert problems and "predicted_rate changed" in problems[0]

    def test_committed_baseline_in_regime(self):
        assert regime_problems(baseline("predictor")) == []

    @pytest.mark.parametrize(
        "family", ["rt_timing_predictor", "predictor_sim", "predictor_sim_w8"]
    )
    def test_zero_verified_fails(self, family):
        current = baseline("predictor")
        record(current, family, "CK")["extra"]["verified_rate"] = 0.0
        assert regime_problems(current) == [f"{family}/CK: no ray verified"]

    @pytest.mark.parametrize("cycles", [9360.0, 9999.0])
    def test_predictor_cycles_not_below_baseline_fail(self, cycles):
        current = baseline("predictor")
        record(current, "rt_timing_predictor", "CK")["extra"]["cycles"] = cycles
        problems = regime_problems(current)
        assert problems == [
            f"rt_timing_predictor/CK: {int(cycles)} cycles, not below the "
            "9360 without the predictor"
        ]

    @pytest.mark.parametrize("savings", [0.0, -0.01])
    def test_memory_savings_not_positive_fail(self, savings):
        current = baseline("predictor")
        record(current, "predictor_sim", "SP")["extra"]["memory_savings"] = savings
        assert regime_problems(current) == [
            f"predictor_sim/SP: memory savings {savings} <= 0"
        ]

    def test_window8_memory_savings_not_positive_fail(self):
        current = baseline("predictor")
        record(current, "predictor_sim_w8", "CK")["extra"]["memory_savings"] = 0.0
        assert regime_problems(current) == [
            "predictor_sim_w8/CK: memory savings 0.0 <= 0"
        ]

    def test_check_reports_regime_and_record_problems(self, tmp_path):
        base = baseline("predictor")
        write_payload(base, str(tmp_path))
        current = copy.deepcopy(base)
        record(current, "predictor_sim", "LR")["extra"]["verified_rate"] = 0.0
        problems = check_against_baselines(current, str(tmp_path))
        assert problems[0] == "predictor_sim/LR: no ray verified"
        assert problems[1].startswith("predictor_sim/LR: verified_rate changed")


class TestCommittedBaselines:
    """The artifacts CI gates on must stay loadable and well-formed."""

    @pytest.mark.parametrize("name", ["quick", "full", "predictor", "build"])
    def test_baseline_loads(self, name):
        payload = baseline(name)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["results"]

    @pytest.mark.parametrize("name", ["full", "predictor", "build"])
    def test_baseline_matches_preset(self, name):
        payload = baseline(name)
        assert payload["preset"] == json.loads(json.dumps(asdict(PRESETS[name])))
        assert payload["scenes"] == list(PRESETS[name].scenes)

    def test_quick_baseline_matches_preset(self):
        payload = baseline("quick")
        assert payload["preset"] == json.loads(json.dumps(asdict(QUICK_PRESET)))
        assert payload["scenes"] == list(QUICK_PRESET.scenes)

    def test_predictor_baseline_pins_figure12_cycles(self):
        payload = baseline("predictor")
        cycles = {
            (r["benchmark"], r["scene"]): int(r["extra"]["cycles"])
            for r in payload["results"] if "cycles" in r["extra"]
        }
        assert cycles == {
            ("rt_timing", "SP"): 14847, ("rt_timing_predictor", "SP"): 13126,
            ("rt_timing", "LR"): 6805, ("rt_timing_predictor", "LR"): 5598,
            ("rt_timing", "CK"): 9360, ("rt_timing_predictor", "CK"): 7470,
        }

    def test_predictor_baseline_has_every_record_of_the_preset(self):
        payload = baseline("predictor")
        assert {(r["benchmark"], r["scene"]) for r in payload["results"]} == {
            (benchmark, code)
            for benchmark in ("rt_timing", "rt_timing_predictor",
                              "predictor_sim", "predictor_sim_w8")
            for code in PRESETS["predictor"].scenes
        }

    def test_predictor_baseline_pins_window8_fetches(self):
        # Computed by the window loop that verified one batch per window,
        # before the simulation speculated; the gate keeps them exact.
        payload = baseline("predictor")
        fetches = {
            r["scene"]: (r["node_fetches"], r["tri_fetches"])
            for r in payload["results"] if r["benchmark"] == "predictor_sim_w8"
        }
        assert fetches == {
            "SP": (83456, 25905), "LR": (45462, 18131), "CK": (62506, 12461),
        }


#: Tiny bench preset: two scenes, so a failure in the second one
#: follows a completed first one.
TINY_BENCH = BenchPreset(
    name="resilience-test",
    scenes=("SB", "SP"),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
)


class TestBenchResilience:
    """``repro bench`` is a gate: a failing scene fails the run."""

    def test_legacy_path_unchanged_without_resilience(self):
        payload = run_benchmarks(TINY_BENCH)
        assert "resilience" not in payload
        assert {r["scene"] for r in payload["results"]} == {"SB", "SP"}

    def test_failure_propagates_instead_of_degrading(self, monkeypatch):
        import repro.bench.harness as harness

        real = harness._workload_records

        def failing(preset, code, scene):
            if code == "SP":
                raise TraversalError("injected")
            return real(preset, code, scene)

        monkeypatch.setattr(harness, "_workload_records", failing)
        with pytest.raises(TraversalError, match="injected"):
            run_benchmarks(TINY_BENCH)


class TestSchemaBump:
    def test_bench_schema_is_v7_only(self, tmp_path):
        import repro.bench

        assert BENCH_SCHEMA == "repro-bench/7"
        assert not hasattr(repro.bench, "ACCEPTED_SCHEMAS")
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"schema": "repro-bench/6", "results": []}))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_payload(str(path))
