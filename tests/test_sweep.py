"""The ``repro simulate`` sweep (``repro.analysis.sweep``) and its writer.

A sweep simulates each scene once, in order, and its payload holds one
row per scene; telemetry adds a section and changes nothing else.
"""

import json
import os
from dataclasses import replace

import pytest

from repro import telemetry
from repro.analysis.sweep import (
    SimulatePreset,
    atomic_write_json,
    run_simulation_sweep,
    summarize_sweep,
)

#: Two tiny scenes, so a sweep artifact has two scene rows.
SIM_PRESET = SimulatePreset(
    name="sweeptest",
    scenes=("SB", "CK"),
    width=8,
    height=8,
    spp=1,
    detail=0.25,
    sim_rays=64,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset_telemetry()
    yield
    telemetry.disable()
    telemetry.reset_telemetry()


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


class TestSimulateSweep:
    def test_clean_sweep(self):
        payload = run_simulation_sweep(SIM_PRESET)
        assert payload["schema"] == "repro-sim-sweep/2"
        assert [r["scene"] for r in payload["results"]] == ["SB", "CK"]
        assert "resilience" not in payload
        summary = summarize_sweep(payload)
        assert "SB" in summary and "CK" in summary

    def test_payload_json_round_trip(self):
        payload = run_simulation_sweep(SIM_PRESET)
        # The preset's scene tuple comes back as a list; nothing else
        # changes.
        expected = dict(payload)
        expected["preset"] = dict(payload["preset"], scenes=["SB", "CK"])
        assert json.loads(json.dumps(payload)) == expected

    def test_scene_aliases_are_stored_as_codes(self):
        aliased = run_simulation_sweep(
            replace(SIM_PRESET, scenes=("sponza", "sb"))
        )
        coded = run_simulation_sweep(replace(SIM_PRESET, scenes=("SP", "SB")))
        assert aliased == coded


    @pytest.mark.parametrize("scenes", [("SB", "sb"), ("SB", "SB")])
    def test_repeated_scene_rejected(self, scenes):
        with pytest.raises(ValueError, match="scene SB is listed more"):
            replace(SIM_PRESET, scenes=scenes)

class TestSweepTelemetry:
    def test_results_bit_identical_telemetry_on_off(self):
        off = run_simulation_sweep(SIM_PRESET)
        telemetry.enable(reset=True)
        on = run_simulation_sweep(SIM_PRESET)
        assert "telemetry" not in off
        on = dict(on)
        on.pop("telemetry")
        assert off == on
