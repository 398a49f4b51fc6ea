"""Multi-scene functional predictor sweeps (``repro simulate``).

``repro bench`` gates production code on pinned seeds; this sweep runs
the *functional* predictor simulation
(:func:`repro.core.simulate.simulate_predictor`) on each scene of a
preset and reports the paper's headline rates (predicted, verified,
memory savings) per scene.

Scenes run once each, in order.  The simulation is deterministic, so a
scene that raises would raise again: its error stops the sweep and
reaches the caller, and the CLI writes ``SIM_<name>.json`` only after
the last scene succeeded.  A sweep never reports a number for a scene
whose simulation failed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import List, Tuple

import numpy as np

from repro import telemetry
from repro.bvh import build_bvh
from repro.core.simulate import simulate_predictor
from repro.rays import generate_ao_workload
from repro.scenes import get_scene
from repro.scenes.registry import scene_code
from repro.telemetry.tracing import summarize_spans

#: Artifact schema for ``SIM_<name>.json``.
SIM_SCHEMA = "repro-sim-sweep/2"


@dataclass(frozen=True)
class SimulatePreset:
    """Pinned configuration of one simulation sweep.

    ``scenes`` holds registry codes: an alias or lower-case spelling
    (``"sponza"``, ``"sb"``) is stored as its code (``"SP"``, ``"SB"``),
    so a sweep names its rows the same however a scene was spelled.
    """

    name: str = "simulate"
    scenes: Tuple[str, ...] = ("SB", "SP", "CK")
    width: int = 24
    height: int = 24
    spp: int = 2
    seed: int = 1
    detail: float = 0.5
    sim_rays: int = 512
    in_flight: int = 32

    def __post_init__(self) -> None:
        # Checked before any scene runs: with no rays to simulate, a
        # scene would still succeed and write a row of zeros.
        for name in ("width", "height", "spp", "sim_rays", "in_flight"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # An unknown scene raises KeyError (exit 4) before any scene runs.
        codes = tuple(scene_code(code) for code in self.scenes)
        # A repeated scene would run twice and write two rows of one
        # name, which the ledger collapses into one.
        for i, code in enumerate(codes):
            if code in codes[:i]:
                raise ValueError(f"scene {code} is listed more than once")
        object.__setattr__(self, "scenes", codes)


def _scene_row(preset: SimulatePreset, code: str) -> dict:
    """Simulate one scene; returns its JSON-safe row."""
    with telemetry.label_context(scene=code):
        scene = get_scene(code, detail=preset.detail)
        bvh = build_bvh(scene.mesh)
        workload = generate_ao_workload(
            scene, bvh,
            width=preset.width, height=preset.height,
            spp=preset.spp, seed=preset.seed,
        )
        rays = workload.rays.subset(
            np.arange(min(preset.sim_rays, len(workload.rays)))
        )
        result = simulate_predictor(bvh, rays, in_flight=preset.in_flight)
    return {
        "scene": code,
        "predictor_enabled": True,
        "num_rays": result.num_rays,
        "predicted_rate": round(result.predicted_rate, 6),
        "verified_rate": round(result.verified_rate, 6),
        "hit_rate": round(result.hit_rate, 6),
        "memory_savings": round(result.memory_savings, 6),
        "node_savings": round(result.node_savings, 6),
        "guard_fallbacks": result.guard_fallbacks,
    }


def run_simulation_sweep(preset: SimulatePreset, progress=None) -> dict:
    """Simulate every scene of ``preset`` in order; returns the payload.

    A scene's error propagates unchanged and ends the sweep.
    """
    say = progress or (lambda msg: None)
    rows: List[dict] = []
    for code in preset.scenes:
        row = _scene_row(preset, code)
        say(
            f"[{code}] verified {row['verified_rate']:.1%} "
            f"memory savings {row['memory_savings']:+.1%}"
        )
        rows.append(row)
    payload = {
        "schema": SIM_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(preset.scenes),
        "results": rows,
    }
    if telemetry.enabled():
        tracer = telemetry.get_tracer()
        payload["telemetry"] = {
            "metrics": telemetry.get_registry().snapshot(),
            "spans": summarize_spans(tracer.events()),
            "dropped_events": tracer.dropped,
        }
    return payload


def summarize_sweep(payload: dict) -> str:
    """Short human-readable summary of a ``SIM_*.json`` artifact."""
    lines = [f"simulation sweep: {payload['name']} ({payload['schema']})"]
    for row in payload["results"]:
        lines.append(
            f"  {row['scene']:4s} "
            f"predicted {row['predicted_rate']:6.1%}  "
            f"verified {row['verified_rate']:6.1%}  "
            f"memory {row['memory_savings']:+7.1%}"
        )
    return "\n".join(lines)


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + rename).

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem rename, which POSIX guarantees atomic: a crash leaves
    the previous complete file or the new one, never a torn file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


__all__ = [
    "SIM_SCHEMA",
    "SimulatePreset",
    "atomic_write_json",
    "run_simulation_sweep",
    "summarize_sweep",
]
