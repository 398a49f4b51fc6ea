"""Production calls on pinned seeds, gated exactly: ``BENCH_<name>.json``.

Each preset runs production calls serially on a pinned-seed workload,
one call per record, and writes ``BENCH_<name>.json`` (schema
``repro-bench/7``, documented in ``docs/BENCHMARKING.md``).  A record is
keyed by ``(benchmark, scene)`` and holds the deterministic result of
its call - ``rays``, ``node_fetches``, ``tri_fetches`` and the ``extra``
dict (cycles, rates, tree shapes) - next to its wall time.  The
preset's ``benchmarks`` selector picks the families:

* ``occlusion_trace`` / ``closest_trace`` - batch any-hit and
  closest-hit tracing of the scene's AO rays;
* ``rt_timing`` - the RT-unit timing model without (``rt_timing``) and
  with (``rt_timing_predictor``) the predictor;
* ``predictor_sim`` - the functional predictor simulation at the
  default window (``predictor_sim``) and at window 8
  (``predictor_sim_w8``), where it speculates its verifications;
* ``bvh_build`` - one build per method (``bvh_build_<method>``) and a
  refit of the SAH tree on a jittered mesh (``bvh_refit``).

``--check`` (:func:`check_against_baselines`) requires every baseline
record to reappear with equal deterministic fields, and every predictor
record to show the paper's regime: rays verified, fewer cycles with the
predictor than without, memory saved.  Wall time is recorded, never
gated.  With telemetry on (``repro --telemetry bench``) the artifact
gains a ``telemetry`` section (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.experiments import scaled_gpu_config, scaled_predictor_config
from repro.bvh import build_bvh, compute_stats, jitter_mesh, refit_bvh
from repro.core.simulate import DEFAULT_IN_FLIGHT, simulate_predictor
from repro.gpu import simulate_workload
from repro.rays import generate_ao_workload
from repro.scenes import get_scene
from repro.telemetry.tracing import summarize_spans
from repro.trace import TraversalStats, trace_closest_batch, trace_occlusion_batch

#: Artifact schema identifier; :func:`load_payload` reads no other.
BENCH_SCHEMA = "repro-bench/7"

#: The record fields ``--check`` compares for equality, ``extra`` key by key.
GATED_FIELDS = ("rays", "node_fetches", "tri_fetches", "extra")

#: Records of the functional predictor simulation, one per window.
SIM_BENCHMARKS = ("predictor_sim", "predictor_sim_w8")


@dataclass(frozen=True)
class BenchPreset:
    """A pinned benchmark configuration.

    Everything that shapes the workload is recorded here and embedded in
    the artifact, so a baseline is reproducible from its JSON alone.
    """

    name: str
    scenes: Tuple[str, ...]
    width: int
    height: int
    spp: int
    seed: int
    detail: float
    #: Which benchmark families to run (see the module docstring).
    benchmarks: Tuple[str, ...] = ("occlusion_trace", "closest_trace")
    #: Methods the ``bvh_build`` family builds, one record each.
    build_methods: Tuple[str, ...] = ("sah", "median", "lbvh")
    #: Per-triangle jitter of the ``bvh_refit`` mesh (seeded by ``seed``).
    build_jitter: float = 0.05


#: CI smoke preset: traversal of three small scenes.
QUICK_PRESET = BenchPreset(
    name="quick",
    scenes=("SB", "SP", "CK"),
    width=16,
    height=16,
    spp=2,
    seed=1,
    detail=0.4,
)

#: Traversal of all seven scenes at the default AO workload knobs.
FULL_PRESET = BenchPreset(
    name="full",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=64,
    height=64,
    spp=2,
    seed=1,
    detail=1.0,
)

#: The predictor in the paper's regime, on the Figure 12 shape: the
#: scaled GPU without and with the scaled predictor, and the functional
#: simulation at the default window and at window 8, over every ray.
PREDICTOR_PRESET = BenchPreset(
    name="predictor",
    scenes=("SP", "LR", "CK"),
    width=32,
    height=32,
    spp=4,
    seed=1,
    detail=1.0,
    benchmarks=("rt_timing", "predictor_sim"),
)

#: BVH construction and refit on all seven scenes.
BUILD_PRESET = BenchPreset(
    name="build",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=16,
    height=16,
    spp=1,
    seed=1,
    detail=1.0,
    benchmarks=("bvh_build",),
)

#: Presets addressable from the CLI (``repro bench --preset NAME``).
PRESETS = {
    p.name: p for p in (QUICK_PRESET, FULL_PRESET, PREDICTOR_PRESET, BUILD_PRESET)
}


@dataclass
class BenchRecord:
    """One timed production call on one scene."""

    benchmark: str
    scene: str
    rays: int
    wall_time_s: float
    rays_per_sec: float
    node_fetches: int
    tri_fetches: int
    extra: Dict[str, float]


def _timed(benchmark: str, scene: str, n: int, run: Callable, read: Callable):
    """Run ``run()`` once; returns its record and its result.

    ``read`` maps the result to ``(node_fetches, tri_fetches, extra)``.
    """
    t0 = time.perf_counter()
    out = run()
    wall = time.perf_counter() - t0
    node_fetches, tri_fetches, extra = read(out)
    record = BenchRecord(
        benchmark=benchmark,
        scene=scene,
        rays=n,
        wall_time_s=round(wall, 6),
        rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
        node_fetches=node_fetches,
        tri_fetches=tri_fetches,
        extra=extra,
    )
    return record, out


def _timing_fields(out, predictor: bool) -> Tuple[int, int, Dict[str, float]]:
    extra = {
        "cycles": float(out.cycles),
        "l1_hit_rate": round(out.l1_hit_rate, 6),
        "l2_hit_rate": round(out.l2_hit_rate, 6),
        "dram_row_hits": float(out.dram_row_hits),
        "dram_row_hit_rate": round(out.dram_row_hit_rate, 6),
        "hit_rate": round(out.hit_rate, 6),
    }
    if predictor:
        extra["predicted_rate"] = round(out.predicted_rate, 6)
        extra["verified_rate"] = round(out.verified_rate, 6)
    return out.node_fetches, out.tri_fetches, extra


def _sim_fields(result) -> Tuple[int, int, Dict[str, float]]:
    return result.predictor_node_fetches, result.predictor_tri_fetches, {
        "verified_rate": round(result.verified_rate, 6),
        "memory_savings": round(result.memory_savings, 6),
        "predicted_rate": round(result.predicted_rate, 6),
        "baseline_node_fetches": float(result.baseline_node_fetches),
    }


def _tree_fields(tree) -> Tuple[int, int, Dict[str, float]]:
    stats = compute_stats(tree)
    return 0, 0, {
        "nodes": float(tree.num_nodes),
        "max_depth": float(stats.max_depth),
        "sah_cost": round(stats.sah_cost, 6),
        "levels": float(len(tree.levels())),
    }


def _build_records(preset: BenchPreset, code: str, mesh) -> List[BenchRecord]:
    """One build per method, then a refit of the SAH tree."""
    n = len(mesh)
    records: List[BenchRecord] = []
    refit_base = None
    for method in preset.build_methods:
        record, tree = _timed(
            f"bvh_build_{method}", code, n,
            lambda: build_bvh(mesh, method=method), _tree_fields,
        )
        records.append(record)
        if method == "sah" or refit_base is None:
            refit_base = tree
    deformed = jitter_mesh(refit_base.mesh, preset.build_jitter, seed=preset.seed)
    record, _ = _timed(
        "bvh_refit", code, n, lambda: refit_bvh(refit_base, deformed),
        lambda out: (0, 0, {"nodes": float(out.num_nodes)}),
    )
    records.append(record)
    return records


def _workload_records(
    preset: BenchPreset, code: str, scene
) -> List[BenchRecord]:
    """The trace and predictor families on the scene's AO rays."""
    selected = preset.benchmarks
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(
        scene, bvh,
        width=preset.width, height=preset.height,
        spp=preset.spp, seed=preset.seed,
    ).rays
    records: List[BenchRecord] = []
    for benchmark, trace in (
        ("occlusion_trace", trace_occlusion_batch),
        ("closest_trace", trace_closest_batch),
    ):
        if benchmark in selected:
            stats = TraversalStats()
            record, _ = _timed(
                benchmark, code, len(rays),
                lambda: trace(bvh, rays, stats=stats),
                lambda _: (stats.node_fetches, stats.tri_fetches, {}),
            )
            records.append(record)
    if "rt_timing" in selected:
        for benchmark, config in (
            ("rt_timing", scaled_gpu_config()),
            ("rt_timing_predictor", scaled_gpu_config(scaled_predictor_config())),
        ):
            record, _ = _timed(
                benchmark, code, len(rays),
                lambda: simulate_workload(bvh, rays, config),
                lambda out: _timing_fields(out, config.predictor is not None),
            )
            records.append(record)
    if "predictor_sim" in selected:
        for benchmark, in_flight in (
            ("predictor_sim", DEFAULT_IN_FLIGHT), ("predictor_sim_w8", 8),
        ):
            record, _ = _timed(
                benchmark, code, len(rays),
                lambda: simulate_predictor(
                    bvh, rays, scaled_predictor_config(), in_flight=in_flight
                ),
                _sim_fields,
            )
            records.append(record)
    return records


def _scene_records(preset: BenchPreset, code: str, say) -> List[BenchRecord]:
    """Every selected benchmark on one scene."""
    say(f"[{code}] building scene (detail={preset.detail})")
    records: List[BenchRecord] = []
    with telemetry.label_context(scene=code):
        scene = get_scene(code, detail=preset.detail)
        if "bvh_build" in preset.benchmarks:
            records.extend(_build_records(preset, code, scene.mesh))
        if set(preset.benchmarks) - {"bvh_build"}:
            records.extend(_workload_records(preset, code, scene))
    for record in records:
        cycles = record.extra.get("cycles")
        say(
            f"[{code}] {record.benchmark:20s} {record.wall_time_s * 1e3:8.1f} ms"
            + (f"  cycles={int(cycles)}" if cycles is not None else "")
        )
    return records


def run_benchmarks(
    preset: BenchPreset,
    scenes: Optional[Sequence[str]] = None,
    progress=None,
) -> dict:
    """Run ``preset`` serially and return the artifact payload.

    Args:
        preset: the pinned configuration to run.
        scenes: optional scene-code override (subset runs for quick
            local iteration; the artifact records what actually ran).
        progress: optional callable receiving one-line status strings.
    """
    say = progress or (lambda msg: None)
    scene_codes = tuple(scenes) if scenes else preset.scenes
    records: List[BenchRecord] = []
    for code in scene_codes:
        records.extend(_scene_records(preset, code, say))
    payload = {
        "schema": BENCH_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(scene_codes),
        "results": [asdict(r) for r in records],
    }
    if telemetry.enabled():
        tracer = telemetry.get_tracer()
        payload["telemetry"] = {
            "metrics": telemetry.get_registry().snapshot(),
            "spans": summarize_spans(tracer.events()),
            "dropped_events": tracer.dropped,
        }
    return payload


def write_payload(payload: dict, out_dir: str) -> str:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{payload['name']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_payload(path: str) -> dict:
    """Load a ``BENCH_*.json`` artifact of schema :data:`BENCH_SCHEMA`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported benchmark schema {schema!r} "
            f"(expected {BENCH_SCHEMA}; re-baseline older artifacts)"
        )
    return payload


def _records(payload: dict) -> Dict[Tuple[str, str], dict]:
    return {(r["benchmark"], r["scene"]): r for r in payload.get("results", [])}


def _gated(record: dict) -> dict:
    """A record's :data:`GATED_FIELDS`, with ``extra`` flattened in."""
    values = {name: record[name] for name in GATED_FIELDS if name != "extra"}
    values.update(record["extra"])
    return values


def compare_payloads(current: dict, baseline: dict) -> List[str]:
    """Every baseline record must reappear with equal gated fields.

    Records are keyed by ``(benchmark, scene)``; :data:`GATED_FIELDS`
    are exact functions of the preset, so any difference is a behaviour
    change and needs a deliberate re-baseline.  Wall time is not gated.

    Returns:
        Human-readable regression messages; empty means the gate passes.
    """
    problems: List[str] = []
    current_records = _records(current)
    for key, base in _records(baseline).items():
        where = "/".join(key)
        record = current_records.get(key)
        if record is None:
            problems.append(f"{where}: record missing from current run")
            continue
        old, new = _gated(base), _gated(record)
        for name in dict.fromkeys([*old, *new]):
            if old.get(name) != new.get(name):
                problems.append(
                    f"{where}: {name} changed {old.get(name)} -> {new.get(name)}"
                )
    return problems


def regime_problems(payload: dict) -> List[str]:
    """Predictor records outside the paper's regime, one message each.

    Every scene's predictor runs must verify rays; the timing run must
    take fewer cycles than the same scene's run without the predictor,
    and the functional run must save memory.
    """
    problems: List[str] = []
    records = _records(payload)
    for (benchmark, code), record in records.items():
        extra = record["extra"]
        where = f"{benchmark}/{code}"
        if benchmark == "rt_timing_predictor" or benchmark in SIM_BENCHMARKS:
            if not extra["verified_rate"] > 0:
                problems.append(f"{where}: no ray verified")
        if benchmark == "rt_timing_predictor":
            base = records.get(("rt_timing", code))
            if base is not None and extra["cycles"] >= base["extra"]["cycles"]:
                problems.append(
                    f"{where}: {int(extra['cycles'])} cycles, not below the "
                    f"{int(base['extra']['cycles'])} without the predictor"
                )
        if benchmark in SIM_BENCHMARKS and not extra["memory_savings"] > 0:
            problems.append(
                f"{where}: memory savings {extra['memory_savings']} <= 0"
            )
    return problems


def check_against_baselines(payload: dict, baseline_dir: str) -> List[str]:
    """``--check``: the regime checks plus the committed baseline's gate.

    A missing baseline is reported as a problem: the gate must never
    silently pass because someone forgot to commit the artifact.
    """
    problems = regime_problems(payload)
    path = os.path.join(baseline_dir, f"BENCH_{payload['name']}.json")
    if not os.path.exists(path):
        return problems + [f"no committed baseline at {path}"]
    return problems + compare_payloads(payload, load_payload(path))


def summarize(payload: dict) -> str:
    """Short human-readable summary of an artifact (CLI output)."""
    lines = [f"benchmark artifact: {payload['name']} ({payload['schema']})"]
    records = _records(payload)
    for (benchmark, code), record in records.items():
        extra = record["extra"]
        line = (
            f"  {benchmark:20s} {code:3s} {record['wall_time_s'] * 1e3:9.1f} ms"
            f"  {record['rays_per_sec']:>12,.0f}/s"
        )
        if benchmark == "rt_timing_predictor" and ("rt_timing", code) in records:
            base = records[("rt_timing", code)]["extra"]["cycles"]
            line += (
                f"  cycles {int(base)} -> {int(extra['cycles'])} "
                f"({base / extra['cycles']:.3f}x speedup)"
            )
        elif "cycles" in extra:
            line += f"  cycles {int(extra['cycles'])}"
        if "verified_rate" in extra:
            line += f"  verified {extra['verified_rate']:.1%}"
        if "memory_savings" in extra:
            line += f"  memory {extra['memory_savings']:+.1%}"
        if "sah_cost" in extra:
            line += (
                f"  nodes {int(extra['nodes'])}  depth {int(extra['max_depth'])}"
                f"  SAH {extra['sah_cost']:.2f}"
            )
        lines.append(line)
    return "\n".join(lines)
