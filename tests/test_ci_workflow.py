"""The CI workflow stays in sync with what the repo actually provides.

These tests pin the contract between ``.github/workflows/ci.yml`` and
the codebase: job names, the tested Python range, the
benchmark gate invocations and their committed baselines, and that
every ``python -m repro`` command line still parses.  They parse the
YAML with PyYAML when it is available and fall back to structural text
checks otherwise, so the suite runs in environments without it.
"""

import os
import re
import shlex

import pytest

try:
    import yaml
except ImportError:  # pragma: no cover - PyYAML is present in dev envs
    yaml = None

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


@pytest.fixture(scope="module")
def workflow_text():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def workflow(workflow_text):
    if yaml is None:
        pytest.skip("PyYAML not installed")
    return yaml.safe_load(workflow_text)


class TestWorkflowStructure:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "test", "lint", "benchmark-smoke", "telemetry-smoke",
            "timing-smoke", "build-smoke",
        }

    def test_python_matrix_spans_supported_range(self, workflow):
        versions = workflow["jobs"]["test"]["strategy"]["matrix"]["python-version"]
        # pyproject declares requires-python >= 3.9; CI must cover both
        # ends of the supported range plus the newest release.
        assert "3.9" in versions
        assert "3.13" in versions

    def test_triggers_on_push_and_pr(self, workflow):
        # PyYAML 1.1 parses the bare `on:` key as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_hypothesis_examples_capped(self, workflow):
        assert "HYPOTHESIS_MAX_EXAMPLES" in workflow.get("env", {})

    def test_repro_command_lines_parse(self, workflow):
        # A flag deleted from the CLI but left in CI fails here, not on
        # the runner.
        from repro.__main__ import build_parser

        commands = []
        for job in workflow["jobs"].values():
            for step in job["steps"]:
                script = step.get("run", "").replace("\\\n", " ")
                commands += [
                    line.strip() for line in script.splitlines()
                    if line.strip().startswith("python -m repro ")
                ]
        assert len(commands) >= 5
        for command in commands:
            build_parser().parse_args(shlex.split(command)[3:])

    def test_concurrency_cancels_superseded_runs(self, workflow):
        group = workflow.get("concurrency", {})
        # A push to an open PR must cancel the run it supersedes; the
        # group key has to vary per ref or runs would cancel each other
        # across branches.
        assert "ref" in str(group.get("group", ""))
        assert "cancel-in-progress" in group


class TestBenchmarkGate:
    def test_smoke_job_runs_quick_check(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["benchmark-smoke"]["steps"]
        ]
        quick = [r for r in runs if "repro bench --preset quick" in r]
        assert quick, "benchmark-smoke must run the quick preset"
        assert any("--check" in r for r in quick)

    def test_smoke_job_gates_predictor_throughput(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["timing-smoke"]["steps"]
        ]
        gate = [r for r in runs if "repro bench --preset predictor" in r]
        assert gate, "timing-smoke must gate the predictor preset"
        assert any("--check" in r for r in gate)

    def test_smoke_job_runs_pipeline_sweep(self, workflow):
        steps = workflow["jobs"]["benchmark-smoke"]["steps"]
        bench = [
            s for s in steps if "pipeline_bench/run.py" in s.get("run", "")
        ]
        assert bench, "benchmark-smoke must run the pipeline sweep workload"
        # The sweep checks the functional simulator's hits against
        # trace_occlusion_batch; no other CI job runs it.
        assert "--workload sweep" in bench[0]["run"]

    def test_committed_predictor_baseline_exists_for_gate(self):
        baseline = os.path.join(
            os.path.dirname(WORKFLOW), "..", "..",
            "benchmarks", "baselines", "BENCH_predictor.json",
        )
        assert os.path.exists(baseline)

    def test_lint_job_uses_ruff(self, workflow):
        runs = [
            step.get("run", "") for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any(r.strip().startswith("ruff check") for r in runs)

    def test_committed_baseline_exists_for_gate(self, workflow_text):
        # A --check invocation is meaningless without the artifact it
        # compares against: every gated preset needs its baseline.
        presets = re.findall(
            r"repro bench --preset (\w+) --check", workflow_text
        )
        assert sorted(presets) == ["build", "predictor", "quick"]
        for preset in presets:
            baseline = os.path.join(
                REPO_ROOT, "benchmarks", "baselines", f"BENCH_{preset}.json"
            )
            assert os.path.exists(baseline), baseline

    def test_text_mentions_tier1_invocation(self, workflow_text):
        assert "python -m pytest -x -q" in workflow_text


class TestTimingGate:
    def test_smoke_job_runs_pipeline_bench(self, workflow):
        steps = workflow["jobs"]["timing-smoke"]["steps"]
        bench = [
            s for s in steps if "pipeline_bench/run.py" in s.get("run", "")
        ]
        assert bench, "timing-smoke must run the pipeline benchmark"
        run = bench[0]["run"]
        # Tier-1 never collects pipeline_bench/tests; this step must.
        assert "python -m pytest pipeline_bench/tests" in run
        assert "--workload fig12" in run
        installs = [
            s.get("run", "") for s in steps if "pip install" in s.get("run", "")
        ]
        assert any(".[dev]" in r for r in installs), "pytest is a dev extra"

    def test_uploads_artifact(self, workflow):
        paths = [
            step.get("with", {}).get("path", "")
            for step in workflow["jobs"]["timing-smoke"]["steps"]
        ]
        assert any("BENCH_predictor.json" in p for p in paths)


class TestBuildGate:
    def test_smoke_job_runs_build_preset_check(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["build-smoke"]["steps"]
        ]
        gate = [r for r in runs if "repro bench --preset build" in r]
        assert gate, "build-smoke must run the build preset"
        # --check fails the build on any tree-shape change.
        assert any("--check" in r for r in gate)

    def test_committed_build_baseline_exists_for_gate(self):
        baseline = os.path.join(
            os.path.dirname(WORKFLOW), "..", "..",
            "benchmarks", "baselines", "BENCH_build.json",
        )
        assert os.path.exists(baseline)

    def test_uploads_artifact(self, workflow):
        paths = [
            step.get("with", {}).get("path", "")
            for step in workflow["jobs"]["build-smoke"]["steps"]
        ]
        assert any("BENCH_build.json" in p for p in paths)


class TestTelemetryGate:
    def test_smoke_job_runs_quick_check(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["telemetry-smoke"]["steps"]
        ]
        assert any("repro telemetry --quick --check" in r for r in runs)

    def test_uploads_artifact(self, workflow):
        paths = [
            step.get("with", {}).get("path", "")
            for step in workflow["jobs"]["telemetry-smoke"]["steps"]
        ]
        assert any("telemetry.json" in p for p in paths)
        assert any("SIM_simulate.json" in p for p in paths)
