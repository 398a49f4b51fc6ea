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

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.cache import cached_build_bvh, configure_artifact_cache, get_artifact_cache
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.faults.injector import UnitFaultPlan
from repro.rays import generate_ao_workload
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.degrade import PartialResultsManifest, UnitEntry
from repro.resilience.supervisor import ResilienceOptions, RunSupervisor
from repro.scenes import get_scene
from repro.telemetry import distributed

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


def _scene_result(preset: SimulatePreset, code: str, rung: str) -> dict:
    """Simulate one scene at one ladder rung; returns a JSON-safe row."""
    with telemetry.label_context(scene=code):
        scene = get_scene(code, detail=preset.detail)
        bvh = cached_build_bvh(scene.mesh)
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
    """The configuration identity a checkpoint pins a sweep to.

    When the BVH artifact cache is active, its identity joins the
    fingerprint so cached and uncached runs can never be mixed by
    ``--resume``.
    """
    fingerprint = {"kind": "simulate", "preset": asdict(preset)}
    cache = get_artifact_cache()
    if cache is not None:
        fingerprint["artifact_cache"] = cache.fingerprint()
    return fingerprint


def _supervised_unit_worker(
    preset: SimulatePreset,
    code: str,
    options: ResilienceOptions,
    fault_plan: Optional[UnitFaultPlan],
    cache_root: Optional[str],
    telemetry_on: bool = False,
    ambient_labels: Optional[Dict[str, str]] = None,
) -> dict:
    """One supervised scene unit in a ``--jobs`` worker process.

    The telemetry snapshot is captured after the supervisor settles, so
    a degraded or skipped unit still ships the partial metrics and
    spans its attempts recorded.
    """
    if cache_root:
        configure_artifact_cache(cache_root)
    distributed.init_worker(telemetry_on, ambient_labels)
    supervisor = RunSupervisor.from_options(options)

    def make_fn(rung: str):
        def run() -> dict:
            if fault_plan is not None:
                fault_plan.check(code)
            return _scene_result(preset, code, rung)

        return run

    outcome = supervisor.run_unit(code, make_fn)
    return {
        "row": outcome.value,
        "entry": outcome.entry.to_dict(),
        "supervisor": supervisor.describe(),
        "telemetry": distributed.capture_snapshot(unit=code),
    }


def run_simulation_sweep(
    preset: SimulatePreset,
    options: Optional[ResilienceOptions] = None,
    fault_plan: Optional[UnitFaultPlan] = None,
    progress=None,
    jobs: int = 1,
) -> dict:
    """Run the sweep; always returns a payload with a manifest.

    The ladder for a simulate unit: the predictor simulation, then the
    predictor-disabled baseline, then skip.
    With ``jobs > 1``, non-resumed units shard across worker processes
    (each supervising its own unit); the parent checkpoints them as
    they complete, so ``--jobs`` composes with ``--resume``.
    """
    say = progress or (lambda msg: None)
    options = options or ResilienceOptions()
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

    unit_rows: Dict[str, Optional[dict]] = {}
    unit_entries: Dict[str, UnitEntry] = {}
    pending: List[str] = []
    for code in preset.scenes:
        if checkpoint is not None and checkpoint.has(code):
            stored = checkpoint.get(code)
            unit_rows[code] = stored.get("row")
            prior = stored.get("entry", {})
            unit_entries[code] = UnitEntry(
                unit=code, status="resumed",
                rung=prior.get("rung", "wavefront"), attempts=0,
            )
            telemetry.inc_counter("supervisor.checkpoint_hits", unit=code)
            say(f"[{code}] resumed from checkpoint (not re-run)")
            continue
        pending.append(code)

    if jobs > 1 and len(pending) > 1:
        cache = get_artifact_cache()
        cache_root = cache.root if cache else None
        telemetry_on = telemetry.enabled()
        ambient = telemetry.current_labels() if telemetry_on else None
        workers = min(jobs, len(pending))
        say(f"sharding {len(pending)} scene unit(s) across {workers} workers")
        unit_snapshots: Dict[str, Optional[dict]] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _supervised_unit_worker, preset, code, options,
                    fault_plan, cache_root, telemetry_on, ambient,
                ): code
                for code in pending
            }
            for future in as_completed(futures):
                code = futures[future]
                outcome = future.result()
                unit_rows[code] = outcome["row"]
                unit_entries[code] = UnitEntry(**outcome["entry"])
                unit_snapshots[code] = outcome.get("telemetry")
                for counter, value in outcome["supervisor"].items():
                    if counter in supervisor.counters:
                        supervisor.counters[counter] += value
                supervisor.total_backoff_s += (
                    outcome["supervisor"]["total_backoff_s"]
                )
                if checkpoint is not None:
                    checkpoint.record(code, {
                        "row": outcome["row"],
                        "entry": outcome["entry"],
                    })
                say(f"[{code}] unit complete ({unit_entries[code].status})")
        # Scene-order merge: counters commute, gauge last-write-wins
        # does not, and scene order matches the serial semantics.
        for code in preset.scenes:
            distributed.absorb_snapshot(unit_snapshots.get(code))
    else:
        for code in pending:
            def make_fn(rung: str, code: str = code):
                def run() -> dict:
                    if fault_plan is not None:
                        fault_plan.check(code)
                    return _scene_result(preset, code, rung)

                return run

            outcome = supervisor.run_unit(code, make_fn, progress=say)
            unit_entries[code] = outcome.entry
            unit_rows[code] = outcome.value
            if outcome.value is not None:
                say(
                    f"[{code}] verified {outcome.value['verified_rate']:.1%} "
                    f"memory savings {outcome.value['memory_savings']:+.1%}"
                )
            if checkpoint is not None:
                checkpoint.record(code, {
                    "row": outcome.value,
                    "entry": outcome.entry.to_dict(),
                })

    rows: List[dict] = []
    for code in preset.scenes:
        row = unit_rows.get(code)
        if row is not None:
            rows.append(row)
        if code in unit_entries:
            manifest.add(unit_entries[code])

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
        section = {
            "metrics": telemetry.get_registry().snapshot(),
            "spans": distributed.merged_span_summary(),
            "dropped_events": distributed.total_dropped_events(),
        }
        workers_info = distributed.worker_summary()
        if workers_info:
            section["workers"] = workers_info
        payload["telemetry"] = section
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
