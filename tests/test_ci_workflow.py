"""The CI workflow stays in sync with what the repo actually provides.

These tests pin the contract between ``.github/workflows/ci.yml`` and
the codebase: job names, the tested Python range, hashed paths, the
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
            "chaos-smoke", "timing-smoke", "build-smoke",
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
        assert len(commands) >= 6
        for command in commands:
            build_parser().parse_args(shlex.split(command)[3:])

    def test_concurrency_cancels_superseded_runs(self, workflow):
        group = workflow.get("concurrency", {})
        # A push to an open PR must cancel the run it supersedes; the
        # group key has to vary per ref or runs would cancel each other
        # across branches.
        assert "ref" in str(group.get("group", ""))
        assert "cancel-in-progress" in group


class TestArtifactCache:
    def test_artifact_cache_env_points_at_cached_path(self, workflow):
        # Smoke jobs build the same seven BVHs; REPRO_ARTIFACT_CACHE
        # enables the content-addressed store and actions/cache persists
        # it across runs.
        assert workflow.get("env", {}).get("REPRO_ARTIFACT_CACHE")

    @pytest.mark.parametrize(
        "job", ["benchmark-smoke", "chaos-smoke", "timing-smoke"]
    )
    def test_smoke_jobs_restore_bvh_cache(self, workflow, job):
        cache_steps = [
            step for step in workflow["jobs"][job]["steps"]
            if "actions/cache" in step.get("uses", "")
        ]
        assert cache_steps, f"{job} must restore the BVH artifact cache"
        cache_path = workflow["env"]["REPRO_ARTIFACT_CACHE"]
        assert cache_steps[0]["with"]["path"] == cache_path
        # A store entry's bytes are a function of the serializer AND
        # the builder that produced the tree, so the key must
        # invalidate when either changes: io.py carries FORMAT_VERSION,
        # builder.py picks the builder and vector.py holds the frontier
        # builders (the scalar oracles in repro.reference never write
        # to the store).
        key = cache_steps[0]["with"]["key"]
        for module in (
            "src/repro/bvh/io.py",
            "src/repro/bvh/builder.py",
            "src/repro/bvh/vector.py",
        ):
            assert module in key, f"{job} cache key must hash {module}"

    def test_hashed_paths_exist(self, workflow_text):
        # hashFiles() silently skips a path that matches nothing, so a
        # moved or deleted module would drop out of a cache key unseen.
        calls = re.findall(r"hashFiles\(([^)]*)\)", workflow_text)
        assert calls
        for args in calls:
            for path in re.findall(r"'([^']+)'", args):
                assert os.path.exists(os.path.join(REPO_ROOT, path)), path

    def test_build_smoke_skips_bvh_cache(self, workflow):
        # The build job times BVH construction itself; restoring a
        # prebuilt store would be dead weight (the build preset never
        # consults it).
        cache_steps = [
            step for step in workflow["jobs"]["build-smoke"]["steps"]
            if "actions/cache" in step.get("uses", "")
        ]
        assert not cache_steps


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
        # run.py exits 2 while the workflow-wide artifact cache is set.
        assert workflow["env"]["REPRO_ARTIFACT_CACHE"]
        assert bench[0].get("env", {}).get("REPRO_ARTIFACT_CACHE") == ""

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


class TestChaosGate:
    def test_smoke_job_runs_supervised_sweep_with_faults(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["chaos-smoke"]["steps"]
        ]
        sweep = [r for r in runs if "repro simulate" in r]
        assert sweep, "chaos-smoke must run a repro simulate sweep"
        # The job only exercises the resilience layer if faults are
        # actually injected.
        assert any("--force-fail" in r for r in sweep)
        assert any("--chaos-rate" in r for r in sweep)
        # SB fails only its top rung's attempts, so a rung below the top
        # produces a result in CI.
        assert any(
            "--force-fail SB:2" in r and "--max-retries 1" in r for r in sweep
        )

    def test_smoke_job_checks_manifest(self, workflow):
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["chaos-smoke"]["steps"]
        ]
        # Exit 0 alone is not enough: the job must also assert the
        # partial-results manifest recorded the degradation honestly.
        assert any("manifest" in r for r in runs)
        check = next(r for r in runs if 'units["SB"]' in r)
        assert 'units["SB"]["rung"] == "predictor_off"' in check
        assert 'rows["SB"]["predictor_enabled"] is False' in check

    def test_uploads_artifact(self, workflow):
        paths = [
            step.get("with", {}).get("path", "")
            for step in workflow["jobs"]["chaos-smoke"]["steps"]
        ]
        assert any("SIM_chaos.json" in p for p in paths)


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
        # run.py exits 2 while the workflow-wide artifact cache is set.
        assert workflow["env"]["REPRO_ARTIFACT_CACHE"]
        assert bench[0].get("env", {}).get("REPRO_ARTIFACT_CACHE") == ""
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

    def test_smoke_job_runs_sharded_telemetry_simulate(self, workflow):
        # The distributed-aggregation path only exercises in CI if the
        # simulate sweep is actually sharded with telemetry on.
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["telemetry-smoke"]["steps"]
        ]
        sharded = [
            r for r in runs
            if "repro --telemetry simulate" in r and "--jobs 2" in r
        ]
        assert sharded, "telemetry-smoke must run a sharded --telemetry simulate"

    def test_smoke_job_asserts_merged_section(self, workflow):
        # Exit 0 is not enough: the job must check the merged telemetry
        # section exists, is non-empty, and covers both worker pids.
        runs = [
            step.get("run", "")
            for step in workflow["jobs"]["telemetry-smoke"]["steps"]
        ]
        checks = [r for r in runs if '"telemetry"' in r or "workers" in r]
        assert any("pid" in r for r in checks)

    def test_uploads_artifact(self, workflow):
        paths = [
            step.get("with", {}).get("path", "")
            for step in workflow["jobs"]["telemetry-smoke"]["steps"]
        ]
        assert any("telemetry.json" in p for p in paths)
        assert any("SIM_simulate.json" in p for p in paths)
