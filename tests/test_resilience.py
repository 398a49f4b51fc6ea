"""Tests for the resilient execution layer (``repro.resilience``).

Covers the three tentpole pieces — crash-consistent checkpointing, the
run supervisor (retry/backoff/deadline/budget), and the degradation
ladder — plus their integration with the simulate sweep and the chaos
machinery (``UnitFaultPlan``), and the bench harness's refusal to
degrade.
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.bench import run_benchmarks
from repro.bench.harness import BenchPreset
from repro.errors import (
    CheckpointError,
    InjectedFaultError,
    InputValidationError,
    MemoryBudgetError,
    OracleMismatchError,
    SceneLoadError,
    SimulationStallError,
    SweepFailedError,
    TraversalError,
    UnitTimeoutError,
)
from repro.faults import UnitFaultPlan
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    LADDER,
    PartialResultsManifest,
    ResilienceOptions,
    RetryPolicy,
    RunSupervisor,
    SweepCheckpoint,
    UnitEntry,
    atomic_write_json,
    classify_failure,
    next_rung,
    rungs_from,
)
from repro.resilience.supervisor import DEGRADE, FATAL, SKIP, TRANSIENT
from repro.resilience.sweep import (
    SimulatePreset,
    run_simulation_sweep,
    summarize_sweep,
)

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

TINY_SIM = SimulatePreset(
    name="resilience-test",
    scenes=("SB", "SP"),
    width=8,
    height=8,
    spp=1,
    detail=0.25,
    sim_rays=32,
)


def no_sleep(_delay):
    """Injectable sleep that records nothing and waits for nothing."""


def fast_options(**kwargs):
    kwargs.setdefault("sleep", no_sleep)
    return ResilienceOptions(**kwargs)


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_valid_json_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        atomic_write_json(str(path), {"b": 2, "a": [1, 2]})
        assert json.loads(path.read_text()) == {"a": [1, 2], "b": 2}
        assert not os.path.exists(str(path) + ".tmp")

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"long": "x" * 10000})
        atomic_write_json(path, {"short": 1})
        assert json.loads(open(path).read()) == {"short": 1}


class TestSweepCheckpoint:
    FP = {"kind": "test", "scenes": ("SB", "SP"), "seed": 1}

    def make(self, tmp_path):
        return SweepCheckpoint(
            str(tmp_path / "ck.json"), dict(self.FP), bench_schema="x/1"
        )

    def test_fresh_checkpoint_loads_nothing(self, tmp_path):
        ckpt = self.make(tmp_path)
        assert ckpt.load(resume=True) is False
        assert not ckpt.has("SB")

    def test_record_then_resume_round_trips(self, tmp_path):
        first = self.make(tmp_path)
        first.record("SB", {"value": 42})
        second = self.make(tmp_path)
        assert second.load(resume=True) is True
        assert second.has("SB")
        assert second.get("SB") == {"value": 42}
        assert second.hits == 1
        assert not second.has("SP")

    def test_fingerprint_tuple_vs_list_is_stable(self, tmp_path):
        # The fingerprint is canonicalized through JSON, so the tuples a
        # preset dataclass produces compare equal to the lists that come
        # back from disk.
        first = self.make(tmp_path)
        first.record("SB", {})
        listy = SweepCheckpoint(
            first.path, {"kind": "test", "scenes": ["SB", "SP"], "seed": 1}
        )
        assert listy.load(resume=True) is True

    def test_resume_false_discards_stale_file(self, tmp_path):
        first = self.make(tmp_path)
        first.record("SB", {})
        fresh = self.make(tmp_path)
        assert fresh.load(resume=False) is False
        assert not fresh.exists()

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        ckpt = self.make(tmp_path)
        with open(ckpt.path, "w") as handle:
            handle.write("{ torn")
        with pytest.raises(CheckpointError, match="unreadable"):
            ckpt.load(resume=True)

    def test_unknown_schema_raises(self, tmp_path):
        ckpt = self.make(tmp_path)
        atomic_write_json(ckpt.path, {"schema": "repro-checkpoint/999"})
        with pytest.raises(CheckpointError, match="schema"):
            ckpt.load(resume=True)

    def test_wrong_fingerprint_raises_with_diff(self, tmp_path):
        first = self.make(tmp_path)
        first.record("SB", {})
        other = SweepCheckpoint(
            first.path, {"kind": "test", "scenes": ("SB",), "seed": 2}
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            other.load(resume=True)

    def test_schema_constant_matches_written_file(self, tmp_path):
        ckpt = self.make(tmp_path)
        ckpt.record("SB", {})
        state = json.loads(open(ckpt.path).read())
        assert state["schema"] == CHECKPOINT_SCHEMA
        assert state["bench_schema"] == "x/1"


# ----------------------------------------------------------------------
# Degradation ladder and manifest
# ----------------------------------------------------------------------
class TestLadder:
    def test_ladder_shape(self):
        assert LADDER == ("wavefront", "predictor_off", "skip")

    def test_next_rung_descends_to_none(self):
        assert next_rung("wavefront") == "predictor_off"
        assert next_rung("predictor_off") == "skip"
        assert next_rung("skip") is None
        with pytest.raises(ValueError):
            next_rung("turbo")

    def test_rungs_from(self):
        assert rungs_from("wavefront") == LADDER
        assert rungs_from("predictor_off") == ("predictor_off", "skip")
        with pytest.raises(ValueError):
            rungs_from("scalar")

    def test_manifest_counts_and_flags(self):
        manifest = PartialResultsManifest()
        manifest.add(UnitEntry(unit="A", status="ok", rung="wavefront"))
        manifest.add(UnitEntry(unit="B", status="degraded", rung="predictor_off"))
        assert manifest.complete and not manifest.clean
        manifest.add(UnitEntry(unit="C", status="failed", rung="wavefront"))
        assert not manifest.complete
        counts = manifest.counts()
        assert (counts["ok"], counts["degraded"], counts["failed"]) == (1, 1, 1)
        assert "C: failed" in manifest.summary()

    def test_manifest_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            PartialResultsManifest().add(
                UnitEntry(unit="A", status="great", rung="wavefront")
            )


# ----------------------------------------------------------------------
# Failure classification and retry policy
# ----------------------------------------------------------------------
class TestClassification:
    @pytest.mark.parametrize("exc,expected", [
        (OracleMismatchError("x"), FATAL),
        (CheckpointError("x"), FATAL),
        (InjectedFaultError("x"), TRANSIENT),
        (UnitTimeoutError("x"), TRANSIENT),
        (OSError("x"), TRANSIENT),
        (MemoryError(), DEGRADE),
        (MemoryBudgetError("x"), DEGRADE),
        (SimulationStallError("x"), DEGRADE),
        (TraversalError("x"), DEGRADE),
        (SceneLoadError("x"), SKIP),
        (InputValidationError("x"), SKIP),
        (RuntimeError("x"), DEGRADE),
    ])
    def test_classify(self, exc, expected):
        assert classify_failure(exc) == expected


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            jitter=0.0,
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(n, rng) for n in (1, 2, 3, 4)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.3), pytest.approx(0.3),
        ]

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_max_s=1.0, jitter=0.25)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert 0.75 <= policy.delay_s(1, rng) <= 1.25

    def test_validation(self):
        with pytest.raises(InputValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(InputValidationError):
            RetryPolicy(jitter=2.0)

    def test_backoff_schedule_reproducible_across_supervisors(self):
        # Same seed + same unit name => identical jittered delays, no
        # matter which supervisor instance (or process) computes them.
        def schedule():
            supervisor = RunSupervisor(
                policy=RetryPolicy(seed=7, max_retries=3), sleep=no_sleep
            )
            rng = supervisor._unit_rng("SP")
            return [supervisor.policy.delay_s(n, rng) for n in (1, 2, 3)]

        assert schedule() == schedule()


# ----------------------------------------------------------------------
# The run supervisor
# ----------------------------------------------------------------------
class TestRunSupervisor:
    @staticmethod
    def make_fn_returning(results):
        """make_fn whose rung behaviour is table-driven.

        ``results[rung]`` is a value, an exception instance to raise, or
        a list consumed one element per attempt.
        """
        def make_fn(rung):
            spec = results.get(rung)
            if spec is None:
                return None

            def run():
                item = spec.pop(0) if isinstance(spec, list) else spec
                if isinstance(item, BaseException):
                    raise item
                return item

            return run

        return make_fn

    def test_clean_run_is_ok_at_start_rung(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        outcome = supervisor.run_unit(
            "SB", self.make_fn_returning({"wavefront": "done"})
        )
        assert outcome.value == "done"
        assert outcome.entry.status == "ok"
        assert outcome.entry.rung == "wavefront"
        assert outcome.produced

    def test_transient_failure_retries_then_succeeds(self):
        slept = []
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=2), sleep=slept.append
        )
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning(
                {"wavefront": [InjectedFaultError("boom"), "recovered"]}
            ),
        )
        assert outcome.value == "recovered"
        assert outcome.entry.status == "ok"
        assert outcome.entry.attempts == 2
        assert outcome.entry.retries == 1
        assert len(slept) == 1 and slept[0] > 0
        assert supervisor.counters["retries"] == 1

    def test_degradable_failure_drops_a_rung(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning({
                "wavefront": MemoryBudgetError("too big"),
                "predictor_off": "lighter",
            }),
        )
        assert outcome.value == "lighter"
        assert outcome.entry.status == "degraded"
        assert outcome.entry.rung == "predictor_off"
        assert supervisor.counters["degradations"] == 1
        assert "MemoryBudgetError" in outcome.entry.errors[0]

    def test_exhausted_transient_degrades(self):
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=1), sleep=no_sleep
        )
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning({
                "wavefront": InjectedFaultError("always"),
                "predictor_off": "ok then",
            }),
        )
        assert outcome.entry.status == "degraded"
        assert outcome.entry.attempts == 3  # 2 on wavefront + 1 below

    def test_skip_class_jumps_to_bottom(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning({
                "wavefront": SceneLoadError("corrupt asset"),
                # Never reached: skip-class failures do not descend.
                "predictor_off": "unreachable",
            }),
        )
        assert outcome.value is None
        assert outcome.entry.status == "skipped"
        assert outcome.entry.rung == "skip"
        assert not outcome.produced
        assert supervisor.counters["skips"] == 1

    def test_all_rungs_fail_ends_skipped(self):
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=0), sleep=no_sleep
        )
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning({
                "wavefront": RuntimeError("a"),
                "predictor_off": RuntimeError("b"),
            }),
        )
        assert outcome.entry.status == "skipped"
        assert len(outcome.entry.errors) == 2

    def test_fatal_failure_propagates(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        with pytest.raises(OracleMismatchError):
            supervisor.run_unit(
                "SB",
                self.make_fn_returning(
                    {"wavefront": OracleMismatchError("divergence")}
                ),
            )

    def test_no_degrade_raises_sweep_failed(self):
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=0), degrade=False, sleep=no_sleep
        )
        with pytest.raises(SweepFailedError) as excinfo:
            supervisor.run_unit(
                "SB",
                self.make_fn_returning({"wavefront": RuntimeError("bug")}),
            )
        assert excinfo.value.failed_units == ["SB"]
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_none_rung_is_stepped_over(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        outcome = supervisor.run_unit(
            "SB",
            self.make_fn_returning({
                # wavefront: None => not applicable, no attempt
                "predictor_off": "bottom value",
            }),
        )
        assert outcome.value == "bottom value"
        assert outcome.entry.rung == "predictor_off"
        assert outcome.entry.attempts == 1

    def test_wall_clock_deadline_times_out(self):
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=0),
            unit_timeout_s=0.05,
            sleep=no_sleep,
        )
        release = threading.Event()

        def make_fn(rung):
            def run():
                release.wait(2.0)
                return "too late"

            return run

        outcome = supervisor.run_unit("SB", make_fn)
        release.set()  # unblock the abandoned workers
        assert outcome.entry.status == "skipped"
        assert supervisor.counters["timeouts"] == 2
        assert all("UnitTimeoutError" in e for e in outcome.entry.errors)

    def test_deadline_passes_fast_units(self):
        supervisor = RunSupervisor(unit_timeout_s=5.0, sleep=no_sleep)
        outcome = supervisor.run_unit(
            "SB", self.make_fn_returning({"wavefront": "quick"})
        )
        assert outcome.value == "quick"
        assert outcome.entry.status == "ok"

    def test_memory_budget_degrades_heavy_rung(self):
        supervisor = RunSupervisor(
            policy=RetryPolicy(max_retries=0),
            memory_budget_mb=4.0,
            sleep=no_sleep,
        )

        def make_fn(rung):
            def run():
                if rung == "wavefront":
                    hog = np.ones(4 * 2**20, dtype=np.float64)  # 32 MiB
                    return float(hog[0])
                return "lean"

            return run

        outcome = supervisor.run_unit("SB", make_fn)
        assert outcome.value == "lean"
        assert outcome.entry.status == "degraded"
        assert "MemoryBudgetError" in outcome.entry.errors[0]

    def test_describe_is_json_safe(self):
        supervisor = RunSupervisor(sleep=no_sleep)
        supervisor.run_unit(
            "SB", self.make_fn_returning({"wavefront": "x"})
        )
        assert json.dumps(supervisor.describe())


# ----------------------------------------------------------------------
# Chaos machinery (UnitFaultPlan)
# ----------------------------------------------------------------------
class TestUnitFaultPlan:
    def test_force_fail_first_n_attempts(self):
        plan = UnitFaultPlan(force_fail={"SB": 2})
        with pytest.raises(InjectedFaultError):
            plan.check("SB")
        with pytest.raises(InjectedFaultError):
            plan.check("SB")
        plan.check("SB")  # third attempt passes
        plan.check("SP")  # other units unaffected
        assert plan.injected == 2

    def test_force_fail_always(self):
        plan = UnitFaultPlan(force_fail={"SB": -1})
        for _ in range(5):
            with pytest.raises(InjectedFaultError):
                plan.check("SB")

    def test_random_faults_deterministic_per_seed(self):
        def outcomes(seed):
            plan = UnitFaultPlan(seed=seed, rate=0.5)
            result = []
            for unit in ("SB", "SP", "CK") * 10:
                try:
                    plan.check(unit)
                    result.append(0)
                except InjectedFaultError:
                    result.append(1)
            return result

        assert outcomes(3) == outcomes(3)
        assert outcomes(3) != outcomes(4)

    def test_unit_streams_independent_of_order(self):
        # Interleaving other units' checks must not shift a unit's own
        # fault schedule.
        def sb_only():
            plan = UnitFaultPlan(seed=1, rate=0.5)
            return [self._check(plan, "SB") for _ in range(20)]

        def sb_interleaved():
            plan = UnitFaultPlan(seed=1, rate=0.5)
            result = []
            for _ in range(20):
                self._check(plan, "CK")
                result.append(self._check(plan, "SB"))
            return result

        assert sb_only() == sb_interleaved()

    @staticmethod
    def _check(plan, unit):
        try:
            plan.check(unit)
            return 0
        except InjectedFaultError:
            return 1

    def test_cross_process_reproducibility(self):
        # The schedule a different process computes from the same seed is
        # bit-identical to ours (satellite: no legacy global RNG state).
        snippet = (
            "from repro.faults import UnitFaultPlan\n"
            "from repro.errors import InjectedFaultError\n"
            "plan = UnitFaultPlan(seed=11, rate=0.4)\n"
            "out = []\n"
            "for unit in ('SB', 'SP', 'CK') * 8:\n"
            "    try:\n"
            "        plan.check(unit)\n"
            "        out.append(0)\n"
            "    except InjectedFaultError:\n"
            "        out.append(1)\n"
            "print(''.join(map(str, out)))\n"
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        plan = UnitFaultPlan(seed=11, rate=0.4)
        ours = "".join(
            str(self._check(plan, unit)) for unit in ("SB", "SP", "CK") * 8
        )
        assert result.stdout.strip() == ours

    def test_parse_force_fail(self):
        parsed = UnitFaultPlan.parse_force_fail(["SB", "SP:3"])
        assert parsed == {"SB": -1, "SP": 3}
        with pytest.raises(InputValidationError):
            UnitFaultPlan.parse_force_fail(["SB:lots"])
        with pytest.raises(InputValidationError):
            UnitFaultPlan.parse_force_fail([":3"])

    def test_rate_validation(self):
        with pytest.raises(InputValidationError):
            UnitFaultPlan(rate=1.5)


# ----------------------------------------------------------------------
# Bench harness integration
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Simulate sweep integration
# ----------------------------------------------------------------------
class TestSimulateSweep:
    def test_clean_sweep(self):
        payload = run_simulation_sweep(TINY_SIM, options=fast_options())
        assert payload["schema"] == "repro-sim-sweep/1"
        assert {r["scene"] for r in payload["results"]} == {"SB", "SP"}
        assert payload["resilience"]["manifest"]["complete"]
        summary = summarize_sweep(payload)
        assert "SB" in summary and "2 ok" in summary

    def test_degraded_scene_marked_predictor_off(self):
        # Fail SB's top rung; predictor_off succeeds.
        plan = UnitFaultPlan(force_fail={"SB": 1})
        payload = run_simulation_sweep(
            TINY_SIM, options=fast_options(max_retries=0), fault_plan=plan
        )
        units = {
            e["unit"]: e
            for e in payload["resilience"]["manifest"]["units"]
        }
        assert units["SB"]["status"] == "degraded"
        assert units["SB"]["rung"] == "predictor_off"
        rows = {r["scene"]: r for r in payload["results"]}
        assert rows["SB"]["predictor_enabled"] is False
        assert rows["SB"]["predicted_rate"] == 0.0
        assert rows["SP"]["predictor_enabled"] is True

    def test_kill_and_resume(self, tmp_path):
        ckpt_path = str(tmp_path / "sim.ckpt.json")
        with pytest.raises(SweepFailedError):
            run_simulation_sweep(
                TINY_SIM,
                options=fast_options(
                    checkpoint_path=ckpt_path, max_retries=0, degrade=False
                ),
                fault_plan=UnitFaultPlan(force_fail={"SP": -1}),
            )
        payload = run_simulation_sweep(
            TINY_SIM,
            options=fast_options(checkpoint_path=ckpt_path, resume=True),
        )
        units = {
            e["unit"]: e
            for e in payload["resilience"]["manifest"]["units"]
        }
        assert units["SB"]["status"] == "resumed"
        assert units["SP"]["status"] == "ok"
        assert len(payload["results"]) == 2

    def test_resume_reruns_only_missing_units(self, tmp_path):
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        full = run_simulation_sweep(
            TINY_SIM, options=fast_options(checkpoint_path=ckpt_path)
        )

        # Emulate a mid-sweep kill: drop SP from the persisted state.
        with open(ckpt_path) as handle:
            state = json.load(handle)
        assert set(state["completed"]) == {"SB", "SP"}
        del state["completed"]["SP"]
        with open(ckpt_path, "w") as handle:
            json.dump(state, handle)

        resumed = run_simulation_sweep(
            TINY_SIM,
            options=fast_options(checkpoint_path=ckpt_path, resume=True),
        )
        # SB came from the checkpoint, SP was re-run; the rows match the
        # uninterrupted sweep's, in scene order.
        statuses = {
            entry["unit"]: entry["status"]
            for entry in resumed["resilience"]["manifest"]["units"]
        }
        assert statuses == {"SB": "resumed", "SP": "ok"}
        assert resumed["results"] == full["results"]


# ----------------------------------------------------------------------
# Artifact schema
# ----------------------------------------------------------------------
class TestSchemaBump:
    def test_bench_schema_is_v7_only(self, tmp_path):
        import repro.bench
        from repro.bench import BENCH_SCHEMA, load_payload

        assert BENCH_SCHEMA == "repro-bench/7"
        assert not hasattr(repro.bench, "ACCEPTED_SCHEMAS")
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"schema": "repro-bench/6", "results": []}))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_payload(str(path))

    def test_resilient_payload_json_serializable(self):
        payload = run_simulation_sweep(
            TINY_SIM,
            options=fast_options(),
            fault_plan=UnitFaultPlan(rate=0.0),
        )
        assert payload["schema"] == "repro-sim-sweep/1"
        json.dumps(payload)
        section = payload["resilience"]
        assert section["enabled"] is True
        assert set(section) >= {
            "options", "supervisor", "manifest", "checkpoint", "chaos"
        }


# ----------------------------------------------------------------------
# Profiler stop diagnostic (satellite)
# ----------------------------------------------------------------------
class TestProfilerStopDiagnostic:
    def test_clean_stop_raises_nothing(self):
        from repro.telemetry.profiling import SamplingProfiler

        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        time.sleep(0.02)
        profiler.stop()
        assert profiler._thread is None

    def test_wedged_thread_is_diagnosed(self, monkeypatch, caplog):
        import logging

        from repro.telemetry.profiling import SamplingProfiler

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
        from repro.telemetry import profiling

        profiler = profiling.SamplingProfiler(interval_s=0.001)

        def never_joins(self, timeout=None):
            return None

        with pytest.raises(ValueError, match="workload bug"):
            with profiler.profile():
                monkeypatch.setattr(
                    threading.Thread, "join", never_joins
                )
                raise ValueError("workload bug")
