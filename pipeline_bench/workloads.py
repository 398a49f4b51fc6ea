"""The benchmark's three workloads, one pass each, driven through ``repro``.

Every pass builds its scenes, trees and rays from scratch and calls the
program only through public calls, each timed as one call of its layer
(see :data:`recorder.LAYERS`).  Counts are read from the returned
objects and every simulation result is checked against the occlusion
that ``trace_occlusion_batch`` reports for the same rays: prediction is
speculation, never approximation.

Why each workload exists is documented in ``README.md`` next to this
file; the shapes follow ``benchmarks/bench_fig12_speedup.py``,
``bench_tab08_hash.py`` and ``bench_fig14_goup.py``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Tuple

from recorder import PassRecorder
from repro import (
    build_bvh,
    generate_ao_workload,
    get_scene,
    morton_sort_rays,
    simulate_predictor,
    simulate_workload,
    validate_bvh,
)
from repro.analysis.experiments import scaled_gpu_config, scaled_predictor_config
from repro.analysis.stats import geometric_mean
from repro.bvh.validate import BVHValidationError
from repro.core.baseline import baseline_cache_info
from repro.geometry.ray import RayBatch
from repro.scenes.registry import SCENE_CODES
from repro.trace import trace_occlusion_batch


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload (viewport is ``width`` x ``width``)."""

    scenes: Tuple[str, ...]
    width: int
    spp: int
    detail: float = 1.0
    origin_bits: Tuple[int, ...] = ()
    go_up_levels: Tuple[int, ...] = ()
    windows: Tuple[int, ...] = ()


@dataclass
class PassOutput:
    """What one pass produced, read from the program's returned objects."""

    #: Sums of per-layer counts, keyed ``layer.quantity``.
    tally: Counter = field(default_factory=Counter)
    #: Every simulated statistic, in call order (the digest's input).
    records: List[dict] = field(default_factory=list)
    #: Per-call simulated speed-ups and memory savings.
    speedups: List[float] = field(default_factory=list)
    savings: List[float] = field(default_factory=list)
    #: Human-readable per-scene lines.
    notes: List[str] = field(default_factory=list)

    @property
    def ao_rays(self) -> int:
        """AO rays generated in the pass (the numerator of ``rays_per_s``)."""
        return self.tally["rays.ao_rays"]

    def digest(self) -> str:
        """SHA-256 over every simulated statistic of the pass."""
        text = json.dumps(self.records, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def predictor_speedup(self) -> float:
        return geometric_mean(self.speedups)

    @property
    def memory_savings(self) -> float:
        return sum(self.savings) / len(self.savings)


def morton_sorted(rays: RayBatch) -> RayBatch:
    """The Morton-sorted order of ``rays`` (Section 5.2's sorted variant)."""
    return rays.subset(morton_sort_rays(rays))


def _check_sim(rec: PassRecorder, what: str, rays: int, hits: int,
               batch: int, occluded: int) -> None:
    rec.check(f"{what}: rays", rays == batch, f"{rays} rays, batch of {batch}")
    rec.check(f"{what}: hits", hits == occluded,
              f"{hits} hits, trace_occlusion_batch found {occluded}")


def _prepare(rec: PassRecorder, out: PassOutput, code: str, seed: int,
             shape: Shape):
    """Scene, SAH tree, AO rays and their occlusion for one scene."""
    scene = rec.call("scenes", get_scene, code, detail=shape.detail)
    bvh = rec.call("bvh", build_bvh, scene.mesh)
    try:
        validate_bvh(bvh)
        problem = ""
    except BVHValidationError as exc:
        problem = str(exc)
    rec.check(f"{code}: validate_bvh", not problem, problem)
    workload = rec.call(
        "rays", generate_ao_workload, scene, bvh,
        width=shape.width, height=shape.width, spp=shape.spp, seed=seed,
    )
    rays = workload.rays
    occluded = int(rec.call("trace", trace_occlusion_batch, bvh, rays).sum())

    t = out.tally
    t["scenes.triangles"] += len(scene.mesh)
    t["bvh.nodes"] += bvh.num_nodes
    t["bvh.max_depth"] = max(t["bvh.max_depth"], bvh.max_depth())
    t["rays.primary"] += workload.num_primary
    t["rays.primary_hits"] += workload.num_primary_hits
    t["rays.ao_rays"] += len(rays)
    t["trace.occluded"] += occluded
    return bvh, rays, occluded


def _timing_sim(rec: PassRecorder, out: PassOutput, code: str, bvh,
                rays: RayBatch, occluded: int, order: str, variant: str,
                config):
    sim = rec.call("gpu", simulate_workload, bvh, rays, config,
                   span_args={"variant": variant})
    per_sm = sim.per_sm
    _check_sim(rec, f"{code} {order} {variant}", sim.rays,
               sum(r.hits for r in per_sm), len(rays), occluded)

    t = out.tally
    t[f"gpu.rays.{variant}"] += sim.rays
    t[f"gpu.cycles.{variant}"] += sim.cycles
    for name in ("warp_steps", "active_thread_steps", "l1_hits",
                 "l1_accesses", "l2_hits", "l2_accesses", "dram_row_hits",
                 "dram_accesses", "stack_spills", "guard_restarts"):
        t[f"gpu.{name}"] += sum(getattr(r, name) for r in per_sm)
    t["gpu.lane_slots"] += config.rt_unit.warp_size * sum(
        r.warp_steps for r in per_sm
    )
    if variant == "predictor":
        t["gpu.predictor_rays"] += sim.rays
        t["gpu.predicted"] += sum(r.predicted for r in per_sm)
        t["gpu.verified"] += sum(r.verified for r in per_sm)
        t["gpu.misprediction_accesses"] += sim.misprediction_accesses
    out.records.append({
        "scene": code, "order": order, "variant": variant,
        "cycles": sim.cycles, "per_sm": [asdict(r) for r in per_sm],
    })
    return sim


def _functional_sim(rec: PassRecorder, out: PassOutput, code: str, bvh,
                    rays: RayBatch, occluded: int, config, window: int) -> None:
    result = rec.call("core", simulate_predictor, bvh, rays, config,
                      in_flight=window, span_args={"window": window})
    _check_sim(rec, f"{code} window {window} {config.origin_bits}b/"
               f"L{config.go_up_level}", result.num_rays, result.hits,
               len(rays), occluded)

    t = out.tally
    t[f"core.rays.w{window}"] += result.num_rays
    t["core.rays"] += result.num_rays
    t["core.predicted"] += result.predicted
    t["core.verified"] += result.verified
    t["core.node_fetches"] += result.predictor_node_fetches
    t["core.tri_fetches"] += result.predictor_tri_fetches
    t["core.misprediction_fetches"] += (
        result.misprediction_node_fetches + result.misprediction_tri_fetches
    )
    t["core.guard_fallbacks"] += result.guard_fallbacks
    stats = asdict(result)
    stats.pop("outcomes")
    out.records.append({
        "scene": code, "window": window, "origin_bits": config.origin_bits,
        "go_up_level": config.go_up_level, **stats,
    })
    # The functional sim has no cycle model: its speed-up is in fetches.
    out.speedups.append(result.baseline_accesses / result.predictor_accesses)
    out.savings.append(result.memory_savings)


# ----------------------------------------------------------------------
def fig12(rec: PassRecorder, seed: int, shape: Shape) -> PassOutput:
    """Figure 12: baseline vs predictor RT-unit timing, both ray orders."""
    out = PassOutput()
    baseline = scaled_gpu_config()
    predictor = scaled_gpu_config(scaled_predictor_config())
    for code in shape.scenes:
        with rec.span("scene", scene=code):
            bvh, rays, occluded = _prepare(rec, out, code, seed, shape)
            for order in ("unsorted", "sorted"):
                batch = rays
                if order == "sorted":
                    batch = rec.call("rays", morton_sorted, rays)
                base = _timing_sim(rec, out, code, bvh, batch, occluded,
                                   order, "baseline", baseline)
                pred = _timing_sim(rec, out, code, bvh, batch, occluded,
                                   order, "predictor", predictor)
                speedup = base.cycles / pred.cycles
                out.speedups.append(speedup)
                out.savings.append(1.0 - pred.total_accesses / base.total_accesses)
                out.notes.append(
                    f"{code} {order:8s} speedup {speedup:.4f} "
                    f"verified {pred.verified_rate:.4f}"
                )
    return out


def sweep(rec: PassRecorder, seed: int, shape: Shape) -> PassOutput:
    """Table 8 / Figure 14 shaped design-space sweep of the functional sim."""
    out = PassOutput()
    for code in shape.scenes:
        with rec.span("scene", scene=code):
            bvh, rays, occluded = _prepare(rec, out, code, seed, shape)
            for bits in shape.origin_bits:
                for level in shape.go_up_levels:
                    config = scaled_predictor_config(
                        origin_bits=bits, go_up_level=level
                    )
                    for window in shape.windows:
                        _functional_sim(rec, out, code, bvh, rays, occluded,
                                        config, window)
    out.tally["core.baseline_memo_hits"] = baseline_cache_info()["hits"]
    return out


def bigscene(rec: PassRecorder, seed: int, shape: Shape) -> PassOutput:
    """Paper-depth trees: every scene at high detail, one predictor run."""
    out = PassOutput()
    config = scaled_predictor_config()
    for code in shape.scenes:
        with rec.span("scene", scene=code):
            bvh, rays, occluded = _prepare(rec, out, code, seed, shape)
            for window in shape.windows:
                _functional_sim(rec, out, code, bvh, rays, occluded, config,
                                window)
    out.tally["core.baseline_memo_hits"] = baseline_cache_info()["hits"]
    return out


PassFn = Callable[[PassRecorder, int, Shape], PassOutput]

#: name -> (pass function, measured shape, warm-up / test shape).
#: fig12 needs ~4 K rays per scene before every scene verifies any ray;
#: sweep and bigscene are sized so that a 30 s run fits 2-4 passes.
WORKLOADS: Dict[str, Tuple[PassFn, Shape, Shape]] = {
    "fig12": (
        fig12,
        Shape(scenes=("SP", "LR", "CK"), width=32, spp=4),
        Shape(scenes=("SP",), width=8, spp=1, detail=0.2),
    ),
    "sweep": (
        sweep,
        Shape(scenes=("SP", "LR", "CK"), width=28, spp=4,
              origin_bits=(3, 5), go_up_levels=(1, 3), windows=(8, 256)),
        Shape(scenes=("SP",), width=8, spp=1, detail=0.2,
              origin_bits=(4,), go_up_levels=(2,), windows=(8, 256)),
    ),
    "bigscene": (
        bigscene,
        Shape(scenes=tuple(SCENE_CODES), width=24, spp=2, detail=8.0,
              windows=(8,)),
        Shape(scenes=("SP", "LR"), width=8, spp=1, detail=0.2, windows=(8,)),
    ),
}
