"""Benchmark harness tests: artifact schema, I/O, and the regression gate."""

import copy
import json
import os

import pytest

from repro.bench import (
    ACCEPTED_SCHEMAS,
    BENCH_SCHEMA,
    QUICK_PRESET,
    BenchPreset,
    compare_payloads,
    load_payload,
    run_benchmarks,
    write_payload,
)
from repro.bench.harness import check_against_baselines, summarize

#: One tiny scene, tiny image: keeps the end-to-end test fast while still
#: exercising every benchmark and both engines.
TEST_PRESET = BenchPreset(
    name="testrun",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    sim_rays=32,
    repeats=1,
)


@pytest.fixture(scope="module")
def payload():
    return run_benchmarks(TEST_PRESET)


class TestArtifact:
    def test_schema_and_shape(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["name"] == "testrun"
        assert payload["scenes"] == ["SB"]
        # 3 benchmarks x 1 scene x 2 engines.
        assert len(payload["results"]) == 6
        for record in payload["results"]:
            assert record["engine"] in ("scalar", "wavefront")
            assert record["rays"] > 0
            assert record["wall_time_s"] >= 0
            assert record["node_fetches"] >= 0

    def test_speedups_derived_for_all_benchmarks(self, payload):
        speed = payload["derived"]["speedup_wavefront_over_scalar"]
        assert set(speed) == {"occlusion_trace", "closest_trace", "predictor_sim"}
        for per_scene in speed.values():
            assert set(per_scene) == {"SB"}
            assert per_scene["SB"] > 0

    def test_counters_deterministic_across_runs(self, payload):
        def key(r):
            return (r["benchmark"], r["scene"], r["engine"])

        second = run_benchmarks(TEST_PRESET)
        first = {key(r): r for r in payload["results"]}
        for record in second["results"]:
            base = first[key(record)]
            assert record["node_fetches"] == base["node_fetches"]
            assert record["tri_fetches"] == base["tri_fetches"]

    def test_json_round_trip(self, payload, tmp_path):
        path = write_payload(payload, str(tmp_path))
        assert path.endswith("BENCH_testrun.json")
        assert load_payload(path) == json.loads(json.dumps(payload))

    def test_load_rejects_foreign_schema(self, payload, tmp_path):
        bad = dict(payload, schema="other/9")
        path = write_payload(bad, str(tmp_path))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_payload(path)

    def test_load_accepts_previous_schema(self, payload, tmp_path):
        # Baselines written as repro-bench/1 (before the telemetry
        # section existed) must stay readable by the regression gate.
        assert "repro-bench/1" in ACCEPTED_SCHEMAS
        old = dict(payload, schema="repro-bench/1")
        old.pop("telemetry", None)
        path = write_payload(old, str(tmp_path))
        assert load_payload(path)["schema"] == "repro-bench/1"

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

    def test_summarize_mentions_speedups(self, payload):
        text = summarize(payload)
        assert "occlusion_trace" in text
        assert "testrun" in text


class TestRegressionGate:
    def test_identical_payloads_pass(self, payload):
        assert compare_payloads(payload, payload) == []

    def test_speedup_regression_fails(self, payload):
        current = copy.deepcopy(payload)
        speed = current["derived"]["speedup_wavefront_over_scalar"]
        speed["occlusion_trace"]["SB"] = (
            payload["derived"]["speedup_wavefront_over_scalar"]["occlusion_trace"]["SB"]
            * 0.5
        )
        problems = compare_payloads(current, payload, tolerance=0.2)
        assert any("speedup regressed" in p for p in problems)

    def test_small_drift_within_tolerance_passes(self, payload):
        current = copy.deepcopy(payload)
        speed = current["derived"]["speedup_wavefront_over_scalar"]
        speed["closest_trace"]["SB"] *= 0.95
        assert compare_payloads(current, payload, tolerance=0.2) == []

    def test_counter_drift_fails(self, payload):
        current = copy.deepcopy(payload)
        current["results"][0]["node_fetches"] = (
            payload["results"][0]["node_fetches"] * 2 + 100
        )
        problems = compare_payloads(current, payload, tolerance=0.2)
        assert any("drifted" in p for p in problems)

    def test_missing_record_fails(self, payload):
        current = copy.deepcopy(payload)
        current["results"] = current["results"][1:]
        problems = compare_payloads(current, payload)
        assert any("missing" in p for p in problems)

    def test_missing_baseline_reported(self, payload, tmp_path):
        problems = check_against_baselines(payload, str(tmp_path))
        assert problems and "no committed baseline" in problems[0]

    def test_check_against_committed_baseline_dir(self, payload, tmp_path):
        write_payload(payload, str(tmp_path))
        assert check_against_baselines(payload, str(tmp_path)) == []


#: Build-benchmark variant of the test preset: one scene, every method,
#: both build engines, plus the refit pass.
BUILD_TEST_PRESET = BenchPreset(
    name="buildtest",
    scenes=("SB",),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    sim_rays=0,
    repeats=1,
    benchmarks=("bvh_build",),
)


@pytest.fixture(scope="module")
def build_payload():
    return run_benchmarks(BUILD_TEST_PRESET)


class TestBuildArtifact:
    def test_record_matrix(self, build_payload):
        # 3 methods x 2 engines + refit x 2 engines.
        records = build_payload["results"]
        assert len(records) == 8
        benchmarks = {r["benchmark"] for r in records}
        assert benchmarks == {
            "bvh_build_sah", "bvh_build_median", "bvh_build_lbvh",
            "bvh_refit",
        }
        for record in records:
            assert record["engine"] in ("vector", "scalar")
            assert record["rays"] > 0  # triangle count
            assert record["node_fetches"] == 0

    def test_vector_records_carry_agreement_verdict(self, build_payload):
        for record in build_payload["results"]:
            if record["engine"] == "vector":
                assert record["extra"]["agrees_with_scalar"] == 1.0
            else:
                assert "agrees_with_scalar" not in record["extra"]

    def test_derived_section_shape(self, build_payload):
        section = build_payload["derived"]["bvh_build"]["SB"]
        assert section["engines_agree"] is True
        assert section["refit_speedup_vector_over_scalar"] > 0
        methods = section["methods"]
        assert set(methods) == {"sah", "median", "lbvh"}
        for row in methods.values():
            assert row["nodes"] > 0
            assert row["max_depth"] > 0
            assert row["speedup_vector_over_scalar"] > 0

    def test_tree_shape_matches_records(self, build_payload):
        # The derived section must be reconstructable from the records:
        # per method, nodes/depth/cost come from the vector record.
        section = build_payload["derived"]["bvh_build"]["SB"]
        by_key = {
            (r["benchmark"], r["engine"]): r for r in build_payload["results"]
        }
        for method, row in section["methods"].items():
            rec = by_key[(f"bvh_build_{method}", "vector")]
            assert row["nodes"] == int(rec["extra"]["nodes"])
            assert row["max_depth"] == int(rec["extra"]["max_depth"])
            assert row["sah_cost"] == rec["extra"]["sah_cost"]

    def test_summarize_mentions_build(self, build_payload):
        text = summarize(build_payload)
        assert "bvh_build SB" in text
        assert "agree=True" in text

    def test_scalar_rung_drops_vector_engine(self):
        # Timing only the scalar side times the scalar builders only:
        # no agreement verdict, no speedup.
        payload = run_benchmarks(BUILD_TEST_PRESET, engines=("scalar",))
        engines = {r["engine"] for r in payload["results"]}
        assert engines == {"scalar"}
        section = payload["derived"]["bvh_build"]["SB"]
        assert "engines_agree" not in section
        assert "speedup_vector_over_scalar" not in section["methods"]["sah"]


class TestBuildRegressionGate:
    def test_identical_payloads_pass(self, build_payload):
        assert compare_payloads(build_payload, build_payload) == []

    def test_engine_disagreement_fails(self, build_payload):
        current = copy.deepcopy(build_payload)
        current["derived"]["bvh_build"]["SB"]["engines_agree"] = False
        problems = compare_payloads(current, build_payload)
        assert any("no longer match the scalar oracle" in p for p in problems)

    def test_tree_shape_drift_fails(self, build_payload):
        current = copy.deepcopy(build_payload)
        row = current["derived"]["bvh_build"]["SB"]["methods"]["sah"]
        row["nodes"] += 2
        problems = compare_payloads(current, build_payload)
        assert any("nodes changed" in p for p in problems)

    def test_sah_cost_gates_exactly(self, build_payload):
        current = copy.deepcopy(build_payload)
        row = current["derived"]["bvh_build"]["SB"]["methods"]["sah"]
        row["sah_cost"] += 1e-6
        problems = compare_payloads(current, build_payload)
        assert any("sah_cost changed" in p for p in problems)

    def test_build_speedup_floor(self, build_payload):
        current = copy.deepcopy(build_payload)
        row = current["derived"]["bvh_build"]["SB"]["methods"]["sah"]
        row["speedup_vector_over_scalar"] = 0.01
        problems = compare_payloads(current, build_payload)
        assert any("vector speedup regressed" in p for p in problems)

    def test_refit_speedup_floor(self, build_payload):
        current = copy.deepcopy(build_payload)
        current["derived"]["bvh_build"]["SB"][
            "refit_speedup_vector_over_scalar"] = 0.01
        problems = compare_payloads(current, build_payload)
        assert any("refit speedup regressed" in p for p in problems)

    def test_missing_scene_fails(self, build_payload):
        current = copy.deepcopy(build_payload)
        del current["derived"]["bvh_build"]["SB"]
        problems = compare_payloads(current, build_payload)
        assert any("scene missing" in p for p in problems)


BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baselines",
)


class TestCommittedBaselines:
    """The artifacts CI gates on must stay loadable and well-formed."""

    @pytest.mark.parametrize("name", ["quick", "wavefront"])
    def test_baseline_loads(self, name):
        payload = load_payload(os.path.join(BASELINE_DIR, f"BENCH_{name}.json"))
        assert payload["schema"] in ACCEPTED_SCHEMAS
        assert payload["results"]

    def test_quick_baseline_matches_preset(self):
        payload = load_payload(os.path.join(BASELINE_DIR, "BENCH_quick.json"))
        assert payload["preset"]["scenes"] == list(QUICK_PRESET.scenes)
        assert payload["preset"]["seed"] == QUICK_PRESET.seed

    def test_full_baseline_meets_paper_target(self):
        # ISSUE acceptance criterion: >=5x rays/sec over the scalar
        # engine for batch occlusion tracing on the SP scene.
        payload = load_payload(os.path.join(BASELINE_DIR, "BENCH_wavefront.json"))
        speed = payload["derived"]["speedup_wavefront_over_scalar"]
        assert speed["occlusion_trace"]["SP"] >= 5.0

    def test_build_baseline_meets_speedup_target(self):
        # ISSUE acceptance criterion: the committed build baseline shows
        # >=3x vector-over-scalar construction speedup on the largest
        # scene (BI), with the engines agreeing on every scene.
        payload = load_payload(os.path.join(BASELINE_DIR, "BENCH_build.json"))
        section = payload["derived"]["bvh_build"]
        assert section["BI"]["methods"]["sah"][
            "speedup_vector_over_scalar"] >= 3.0
        for code, row in section.items():
            assert row["engines_agree"] is True, code
