"""Resilient multi-scene predictor-simulation sweeps (``repro simulate``).

``repro bench`` gates production code; this sweep runs the *functional*
predictor simulation (:func:`repro.core.simulate.simulate_predictor`)
across scenes and reports the paper's headline rates (predicted /
verified / memory savings) per scene.  Every scene is a supervised unit
on the degradation ladder, progress checkpoints after each scene, and
the emitted ``SIM_<name>.json`` artifact always carries a
partial-results manifest - a sweep with a broken scene still terminates
with an exit status of 0 and an honest account of what happened.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh import build_bvh
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.errors import InputValidationError
from repro.faults.injector import UnitFaultPlan
from repro.rays import generate_ao_workload
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.degrade import PartialResultsManifest, UnitEntry
from repro.resilience.supervisor import ResilienceOptions, RunSupervisor
from repro.scenes import get_scene
from repro.scenes.registry import scene_code
from repro.telemetry.tracing import summarize_spans

#: Artifact schema for ``SIM_<name>.json``.
SIM_SCHEMA = "repro-sim-sweep/1"


@dataclass(frozen=True)
class SimulatePreset:
    """Pinned configuration of one simulation sweep."""

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
        # Below 1, every unit would be skipped, degrade to predictor_off
        # or simulate no rays, and such a sweep still exits 0: reject it
        # before it starts.
        for name in ("width", "height", "spp", "sim_rays", "in_flight"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # An unknown scene would fail every attempt inside the sweep and
        # be skipped: reject it (KeyError, exit 4) before the sweep starts.
        for code in self.scenes:
            scene_code(code)


def _scene_result(preset: SimulatePreset, code: str, rung: str) -> dict:
    """Simulate one scene at one ladder rung; returns a JSON-safe row."""
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
        if rung == "predictor_off":
            result = simulate_baseline(bvh, rays)
        else:
            result = simulate_predictor(bvh, rays, in_flight=preset.in_flight)
    return {
        "scene": code,
        "predictor_enabled": rung != "predictor_off",
        "num_rays": result.num_rays,
        "predicted_rate": round(result.predicted_rate, 6),
        "verified_rate": round(result.verified_rate, 6),
        "hit_rate": round(result.hit_rate, 6),
        "memory_savings": round(result.memory_savings, 6),
        "node_savings": round(result.node_savings, 6),
        "guard_fallbacks": result.guard_fallbacks,
    }


def sim_fingerprint(preset: SimulatePreset) -> dict:
    """The configuration identity a checkpoint pins a sweep to."""
    return {"kind": "simulate", "preset": asdict(preset)}


def run_simulation_sweep(
    preset: SimulatePreset,
    options: Optional[ResilienceOptions] = None,
    fault_plan: Optional[UnitFaultPlan] = None,
    progress=None,
) -> dict:
    """Run the sweep; always returns a payload with a manifest.

    The ladder for a simulate unit: the predictor simulation, then the
    predictor-disabled baseline, then skip.  Units run in scene order;
    a unit the checkpoint already holds is resumed, not re-run.
    """
    say = progress or (lambda msg: None)
    options = options or ResilienceOptions()
    if fault_plan is not None:
        # A forced fault on a unit the sweep never runs injects nothing,
        # and the chaos run would pass without testing anything.
        unknown = sorted(set(fault_plan.force_fail) - set(preset.scenes))
        if unknown:
            raise InputValidationError(
                f"force_fail names unit(s) {', '.join(unknown)} outside "
                f"the sweep's scenes {', '.join(preset.scenes)}"
            )
    supervisor = RunSupervisor.from_options(options)
    manifest = PartialResultsManifest()
    checkpoint: Optional[SweepCheckpoint] = None
    if options.checkpoint_path:
        checkpoint = SweepCheckpoint(
            options.checkpoint_path,
            sim_fingerprint(preset),
            bench_schema=SIM_SCHEMA,
        )
        if checkpoint.load(resume=options.resume):
            say(
                f"resuming from {checkpoint.path} "
                f"({len(checkpoint.completed)} unit(s) already complete)"
            )

    rows: List[dict] = []
    for code in preset.scenes:
        if checkpoint is not None and checkpoint.has(code):
            stored = checkpoint.get(code)
            row = stored.get("row")
            entry = UnitEntry(
                unit=code, status="resumed",
                rung=stored.get("entry", {}).get("rung", "wavefront"),
                attempts=0,
            )
            telemetry.inc_counter("supervisor.checkpoint_hits", unit=code)
            say(f"[{code}] resumed from checkpoint (not re-run)")
        else:
            def make_fn(rung: str, code: str = code):
                def run() -> dict:
                    if fault_plan is not None:
                        fault_plan.check(code)
                    return _scene_result(preset, code, rung)

                return run

            outcome = supervisor.run_unit(code, make_fn, progress=say)
            row, entry = outcome.value, outcome.entry
            if row is not None:
                say(
                    f"[{code}] verified {row['verified_rate']:.1%} "
                    f"memory savings {row['memory_savings']:+.1%}"
                )
            if checkpoint is not None:
                checkpoint.record(code, {"row": row, "entry": entry.to_dict()})
        if row is not None:
            rows.append(row)
        manifest.add(entry)

    payload = {
        "schema": SIM_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(preset.scenes),
        "results": rows,
        "resilience": {
            "enabled": True,
            "options": options.describe(),
            "supervisor": supervisor.describe(),
            "manifest": manifest.to_dict(),
            "checkpoint": checkpoint.describe() if checkpoint else None,
            "chaos": fault_plan.describe() if fault_plan else None,
        },
    }
    if telemetry.enabled():
        tracer = telemetry.get_tracer()
        payload["telemetry"] = {
            "metrics": telemetry.get_registry().snapshot(),
            "spans": summarize_spans(tracer.events()),
            "dropped_events": tracer.dropped,
        }
    say(manifest.summary())
    return payload


def summarize_sweep(payload: dict) -> str:
    """Short human-readable summary of a ``SIM_*.json`` artifact."""
    lines = [f"simulation sweep: {payload['name']} ({payload['schema']})"]
    for row in payload["results"]:
        tag = "" if row.get("predictor_enabled", True) else "  [predictor off]"
        lines.append(
            f"  {row['scene']:4s} "
            f"predicted {row['predicted_rate']:6.1%}  "
            f"verified {row['verified_rate']:6.1%}  "
            f"memory {row['memory_savings']:+7.1%}{tag}"
        )
    counts = payload["resilience"]["manifest"]["counts"]
    lines.append(
        f"  units: {counts['ok']} ok, {counts['resumed']} resumed, "
        f"{counts['degraded']} degraded, {counts['skipped']} skipped"
    )
    return "\n".join(lines)


__all__ = [
    "SIM_SCHEMA",
    "SimulatePreset",
    "run_simulation_sweep",
    "sim_fingerprint",
    "summarize_sweep",
]
