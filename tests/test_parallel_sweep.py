"""Process-sharded sweeps: determinism, resume composition, fingerprints.

``repro simulate --jobs N`` must be a pure throughput knob: every unit
is a pure function of the pinned preset, so a sharded sweep's artifact
has to match the serial artifact except for wall-clock timing fields.
These tests pin that contract, plus the interaction with checkpoints (a
mid-sweep kill resumes under ``--jobs``) and the artifact-cache
fingerprint (cached and uncached runs refuse to mix).
"""

import json

import pytest

from repro.bvh.cache import configure_artifact_cache
from repro.errors import CheckpointError
from repro.resilience import ResilienceOptions, SweepCheckpoint
from repro.resilience.sweep import (
    SimulatePreset,
    run_simulation_sweep,
    sim_fingerprint,
)

#: Two tiny scenes so sharding across 2 workers is non-trivial.
SIM_PRESET = SimulatePreset(
    name="partest",
    scenes=("SB", "CK"),
    width=8,
    height=8,
    spp=1,
    detail=0.25,
    sim_rays=64,
)

#: Fields that legitimately differ between runs (wall-clock derived).
TIMING_KEYS = frozenset({"total_backoff_s"})


def strip_timing(obj):
    """Drop wall-clock-derived fields so payloads compare structurally."""
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
def no_leaked_cache():
    configure_artifact_cache(None)
    yield
    configure_artifact_cache(None)


class TestResumeComposition:
    def test_jobs_resume_reruns_only_missing_units(self, tmp_path):
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        options = ResilienceOptions(checkpoint_path=ckpt_path)
        full = run_simulation_sweep(SIM_PRESET, options=options, jobs=1)

        # Emulate a mid-sweep kill: drop CK from the persisted state.
        with open(ckpt_path) as handle:
            state = json.load(handle)
        assert set(state["completed"]) == {"SB", "CK"}
        del state["completed"]["CK"]
        with open(ckpt_path, "w") as handle:
            json.dump(state, handle)

        resumed = run_simulation_sweep(
            SIM_PRESET,
            options=ResilienceOptions(checkpoint_path=ckpt_path, resume=True),
            jobs=2,
        )
        # SB came from the checkpoint, CK was re-run; the rows match the
        # uninterrupted sweep's.
        statuses = {
            entry["unit"]: entry["status"]
            for entry in resumed["resilience"]["manifest"]["units"]
        }
        assert statuses == {"SB": "resumed", "CK": "ok"}
        assert resumed["results"] == full["results"]

    def test_parent_checkpoints_sharded_units(self, tmp_path):
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        run_simulation_sweep(
            SIM_PRESET,
            options=ResilienceOptions(checkpoint_path=ckpt_path),
            jobs=2,
        )
        with open(ckpt_path) as handle:
            state = json.load(handle)
        assert set(state["completed"]) == {"SB", "CK"}


class TestSimulateSharding:
    def test_results_identical_to_serial(self):
        serial = run_simulation_sweep(SIM_PRESET, jobs=1)
        sharded = run_simulation_sweep(SIM_PRESET, jobs=2)
        # Simulation rows carry no timing fields: exact equality.
        assert serial["results"] == sharded["results"]
        assert serial["results"], "sweep produced no rows"

    def test_payload_matches_serial_modulo_timing(self):
        serial = run_simulation_sweep(SIM_PRESET, jobs=1)
        sharded = run_simulation_sweep(SIM_PRESET, jobs=2)
        assert strip_timing(serial) == strip_timing(sharded)

    def test_row_order_is_scene_order(self):
        payload = run_simulation_sweep(SIM_PRESET, jobs=2)
        # SB's row precedes CK's regardless of completion order.
        assert [r["scene"] for r in payload["results"]] == ["SB", "CK"]

    def test_checkpointed_sweep_matches_serial_modulo_timing(self, tmp_path):
        serial = run_simulation_sweep(
            SIM_PRESET,
            options=ResilienceOptions(checkpoint_path=str(tmp_path / "a.json")),
            jobs=1,
        )
        sharded = run_simulation_sweep(
            SIM_PRESET,
            options=ResilienceOptions(checkpoint_path=str(tmp_path / "b.json")),
            jobs=2,
        )
        a, b = strip_timing(serial), strip_timing(sharded)
        # Checkpoint paths differ by construction; everything else matches.
        a["resilience"]["checkpoint"].pop("path")
        b["resilience"]["checkpoint"].pop("path")
        assert a == b


class TestCacheFingerprint:
    def test_sim_fingerprint_tracks_cache_identity(self, tmp_path):
        bare = sim_fingerprint(SIM_PRESET)
        configure_artifact_cache(str(tmp_path))
        assert sim_fingerprint(SIM_PRESET) != bare

    def test_resume_refuses_to_mix_cached_and_uncached(self, tmp_path):
        # Checkpoint written with the cache enabled ...
        configure_artifact_cache(str(tmp_path / "cache"))
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        written = SweepCheckpoint(
            ckpt_path, sim_fingerprint(SIM_PRESET), bench_schema="x"
        )
        written.record("SB", {"row": None, "entry": {}})
        # ... must not resume with it disabled.
        configure_artifact_cache(None)
        reader = SweepCheckpoint(
            ckpt_path, sim_fingerprint(SIM_PRESET), bench_schema="x"
        )
        with pytest.raises(CheckpointError):
            reader.load(resume=True)
