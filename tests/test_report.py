"""Unit tests for the results report generator."""

import pytest

from repro.analysis.report import (
    ARTIFACT_ORDER,
    build_report,
    collect_results,
    write_report,
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
