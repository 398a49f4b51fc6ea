"""Unit tests for the results report generator and the run ledger."""

import json

import pytest

from repro import telemetry
from repro.analysis.report import (
    ARTIFACT_ORDER,
    build_report,
    collect_results,
    write_report,
)
from repro.analysis.sweep import SimulatePreset, run_simulation_sweep
from repro.bench.harness import BenchPreset, run_benchmarks, write_payload
from repro.telemetry.ledger import (
    LedgerError,
    build_ledger,
    compare_runs,
    counter_deltas,
    ledger_entry,
    render_counter_deltas,
    render_trends,
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


@pytest.fixture()
def results_dir(tmp_path):
    (tmp_path / "fig12_speedup.txt").write_text("Figure 12 data\nrow 1\n")
    (tmp_path / "tab01_scenes.txt").write_text("Table 1 data\n")
    (tmp_path / "custom_experiment.txt").write_text("extra data\n")
    (tmp_path / "notes.md").write_text("ignored\n")
    return tmp_path


class TestCollect:
    def test_collects_txt_only(self, results_dir):
        results = collect_results(results_dir)
        assert set(results) == {"fig12_speedup", "tab01_scenes", "custom_experiment"}

    def test_missing_dir_is_empty(self, tmp_path):
        assert collect_results(tmp_path / "nope") == {}


class TestBuild:
    def test_paper_order_preserved(self, results_dir):
        report = build_report(results_dir)
        assert report.index("Table 1") < report.index("Figure 12")

    def test_extras_appended(self, results_dir):
        report = build_report(results_dir)
        assert "custom_experiment" in report
        assert report.index("Other artifacts") > report.index("Figure 12")

    def test_missing_listed(self, results_dir):
        report = build_report(results_dir)
        assert "Missing artifacts" in report
        assert "limit study" in report

    def test_contents_included_verbatim(self, results_dir):
        report = build_report(results_dir)
        assert "Figure 12 data\nrow 1" in report

    def test_artifact_order_covers_all_benches(self):
        # Every bench id referenced by the harness must have a heading.
        ids = {artifact_id for artifact_id, _ in ARTIFACT_ORDER}
        assert len(ids) == len(ARTIFACT_ORDER)  # no duplicates
        assert "fig12_speedup" in ids
        assert "abl_timing_model" in ids


class TestWrite:
    def test_write_report(self, results_dir, tmp_path):
        out = tmp_path / "REPORT.md"
        write_report(results_dir, out)
        assert out.read_text().startswith("# Regenerated results")


class TestLedger:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        telemetry.disable()
        telemetry.reset_telemetry()
        yield
        telemetry.disable()
        telemetry.reset_telemetry()

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
