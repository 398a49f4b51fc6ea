"""Pipeline benchmark for the ``repro`` reproduction, from scene to result.

Run from the repository root::

    python3 pipeline_bench/run.py --workload fig12 --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client:
passes run in series, each from ``get_scene`` to the last simulation
result, with the program's caches cold.  Passes repeat until the next
one would end after ``--seconds``; at least one runs.  Pass and set-up
times are scaled to reference host speed by ``hostspeed.HostSpeed``,
which probes the host while they run.  ``--trace 1`` alternates
untraced and traced passes (at least one of each), writes the traced
passes' spans to ``pipeline_bench/traces/`` as Chrome trace JSON and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation succeeded, 1 when a call raised or an output
check failed, and 2 when the environment would make the measurement
unrepresentative.  ``README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import PASS_INTERVAL_S, HostSpeed
from recorder import BENCH, LAYERS, PassRecorder, write_chrome_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")

#: Environment switches that turn on program-internal hooks or caches
#: shared between passes; a measured run refuses to start with them.
REFUSED_ENV = ("REPRO_TELEMETRY", "REPRO_ARTIFACT_CACHE")
#: AO sampling seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Seconds between host-speed probes during set-up, which is short.
SETUP_INTERVAL_S = 0.01

END_TO_END_UNITS = {
    "rays_per_s": "rays/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "predictor_speedup": "x",
    "memory_savings": "fraction",
}

_LAYER_FIELDS = {"self_s": "s", "share": "fraction", "calls": "count",
                 "failed": "count"}
PER_LAYER_UNITS = {
    f"{layer}.{name}": unit
    for layer in LAYERS for name, unit in _LAYER_FIELDS.items()
}
PER_LAYER_UNITS.update({
    "bench.self_s": "s",
    "bench.tracing_overhead": "fraction",
    "bench.host_speed": "fraction",
    "gpu.ns_per_ray_baseline": "ns/ray",
    "gpu.ns_per_ray_predictor": "ns/ray",
    "gpu.ns_per_warp_step": "ns/step",
    "gpu.warp_steps": "count",
    "gpu.cycles_baseline": "cycles",
    "gpu.cycles_predictor": "cycles",
    "gpu.predicted_rate": "fraction",
    "gpu.verified_rate": "fraction",
    "gpu.verify_success": "fraction",
    "gpu.l1_hit_rate": "fraction",
    "gpu.l2_hit_rate": "fraction",
    "gpu.dram_row_hit_rate": "fraction",
    "gpu.simt_efficiency": "fraction",
    "gpu.misprediction_accesses": "count",
    "gpu.stack_spills": "count",
    "gpu.guard_restarts": "count",
    "core.ns_per_ray_w8": "ns/ray",
    "core.ns_per_ray_w256": "ns/ray",
    "core.predicted_rate": "fraction",
    "core.verified_rate": "fraction",
    "core.verify_success": "fraction",
    "core.node_fetches": "count",
    "core.tri_fetches": "count",
    "core.misprediction_fetches": "count",
    "core.guard_fallbacks": "count",
    "core.baseline_memo_hits": "count",
    "trace.ns_per_ray": "ns/ray",
    "trace.occluded_ratio": "fraction",
    "scenes.ns_per_tri": "ns/tri",
    "scenes.triangles": "count",
    "bvh.ns_per_tri": "ns/tri",
    "bvh.nodes": "count",
    "bvh.max_depth": "levels",
    "rays.ns_per_ray": "ns/ray",
    "rays.ao_rays": "count",
    "rays.primary_hit_ratio": "fraction",
})


def load_program() -> None:
    """Put this checkout's ``src/`` first on ``sys.path`` and import it.

    The benchmark measures the program next to it and nothing else: an
    installed ``repro`` elsewhere must not stand in for a missing one.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"pipeline_bench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pipeline_bench: imported repro from {repro.__file__}")


def _per_ns(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
def warm_up(workload: str) -> None:
    """One small untimed pass: pulls in lazy imports and first-call costs."""
    from repro.core.baseline import clear_baseline_cache
    from workloads import WORKLOADS

    fn, _, small = WORKLOADS[workload]
    rec = PassRecorder(-1, trace=False)
    fn(rec, DEFAULT_SEED, small)
    clear_baseline_cache()
    if rec.failed:
        raise RuntimeError(f"warm-up pass failed: {rec.check_failures}")


def measure_setup(workload: str, probes: int) -> float:
    """Median seconds from process start until a pass could begin.

    Each probe is a fresh interpreter running this file's imports and
    warm-up under :class:`HostSpeed`.  It prints ``ready``, its host
    speed and its probe seconds when the first pass could start; its
    wall time less the probes is scaled to reference host speed.
    """
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload]
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline().split()
            wall_s = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if line[:1] != ["ready"] or len(line) != 3 or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        speed, overhead_s = float(line[1]), float(line[2])
        samples.append((wall_s - overhead_s) * speed)
    return median(samples)


def layer_metrics(rec, out) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (failures are added per run)."""
    pass_s = rec.spans[0].duration
    own = rec.self_times()
    t = out.tally
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own[layer]
        metrics[f"{layer}.share"] = own[layer] / pass_s
        metrics[f"{layer}.calls"] = rec.calls[layer]
    metrics["bench.self_s"] = own[BENCH]
    metrics.update({
        "gpu.ns_per_ray_baseline": _per_ns(
            rec.layer_seconds("gpu", variant="baseline"), t["gpu.rays.baseline"]),
        "gpu.ns_per_ray_predictor": _per_ns(
            rec.layer_seconds("gpu", variant="predictor"),
            t["gpu.rays.predictor"]),
        "gpu.ns_per_warp_step": _per_ns(own["gpu"], t["gpu.warp_steps"]),
        "gpu.warp_steps": t["gpu.warp_steps"],
        "gpu.cycles_baseline": t["gpu.cycles.baseline"],
        "gpu.cycles_predictor": t["gpu.cycles.predictor"],
        "gpu.predicted_rate": _frac(t["gpu.predicted"], t["gpu.predictor_rays"]),
        "gpu.verified_rate": _frac(t["gpu.verified"], t["gpu.predictor_rays"]),
        "gpu.verify_success": _frac(t["gpu.verified"], t["gpu.predicted"]),
        "gpu.l1_hit_rate": _frac(t["gpu.l1_hits"], t["gpu.l1_accesses"]),
        "gpu.l2_hit_rate": _frac(t["gpu.l2_hits"], t["gpu.l2_accesses"]),
        "gpu.dram_row_hit_rate": _frac(t["gpu.dram_row_hits"],
                                       t["gpu.dram_accesses"]),
        "gpu.simt_efficiency": _frac(t["gpu.active_thread_steps"],
                                     t["gpu.lane_slots"]),
        "gpu.misprediction_accesses": t["gpu.misprediction_accesses"],
        "gpu.stack_spills": t["gpu.stack_spills"],
        "gpu.guard_restarts": t["gpu.guard_restarts"],
        "core.ns_per_ray_w8": _per_ns(rec.layer_seconds("core", window=8),
                                      t["core.rays.w8"]),
        "core.ns_per_ray_w256": _per_ns(rec.layer_seconds("core", window=256),
                                        t["core.rays.w256"]),
        "core.predicted_rate": _frac(t["core.predicted"], t["core.rays"]),
        "core.verified_rate": _frac(t["core.verified"], t["core.rays"]),
        "core.verify_success": _frac(t["core.verified"], t["core.predicted"]),
        "core.node_fetches": t["core.node_fetches"],
        "core.tri_fetches": t["core.tri_fetches"],
        "core.misprediction_fetches": t["core.misprediction_fetches"],
        "core.guard_fallbacks": t["core.guard_fallbacks"],
        "core.baseline_memo_hits": t["core.baseline_memo_hits"],
        "trace.ns_per_ray": _per_ns(own["trace"], t["rays.ao_rays"]),
        "trace.occluded_ratio": _frac(t["trace.occluded"], t["rays.ao_rays"]),
        "scenes.ns_per_tri": _per_ns(own["scenes"], t["scenes.triangles"]),
        "scenes.triangles": t["scenes.triangles"],
        "bvh.ns_per_tri": _per_ns(own["bvh"], t["scenes.triangles"]),
        "bvh.nodes": t["bvh.nodes"],
        "bvh.max_depth": t["bvh.max_depth"],
        "rays.ns_per_ray": _per_ns(own["rays"], t["rays.ao_rays"]),
        "rays.ao_rays": t["rays.ao_rays"],
        "rays.primary_hit_ratio": _frac(t["rays.primary_hits"],
                                        t["rays.primary"]),
    })
    return metrics


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               shape=None) -> Tuple[list, list, List[Tuple[float, float]]]:
    """Run passes until the next would end after ``seconds``.

    Returns the recorders of every pass, and the outputs and
    ``(host seconds, host speed)`` of the passes that completed.
    Tracing alternates untraced and traced passes, starting untraced.
    Untraced passes run under :class:`HostSpeed`, whose probe time is
    not pass time; traced passes are not probed (speed 1.0), so their
    spans hold only the program and the benchmark.
    """
    from repro.core.baseline import clear_baseline_cache
    from workloads import WORKLOADS

    fn, measured, _ = WORKLOADS[workload]
    shape = shape or measured
    recorders, outputs, pass_seconds = [], [], []
    start = time.perf_counter()
    while True:
        pass_id = len(recorders)
        rec = PassRecorder(pass_id, trace=trace and pass_id % 2 == 1)
        recorders.append(rec)
        clear_baseline_cache()
        gc.collect()
        host = HostSpeed(None if rec.trace else PASS_INTERVAL_S)
        try:
            with host, rec.span("pass", workload=workload, seed=seed):
                began = time.perf_counter()
                out = fn(rec, seed, shape)
                wall_s = time.perf_counter() - began
        except Exception as exc:
            traceback.print_exc()
            if not sum(rec.failed_calls.values()):  # outside a layer call
                rec.check("pass completes", False,
                          f"{type(exc).__name__}: {exc}")
            break
        pass_seconds.append((wall_s - host.overhead_s, host.speed))
        if outputs:
            rec.check("simulated statistics repeat",
                      out.digest() == outputs[0].digest(),
                      "digest differs from the first pass")
        outputs.append(out)
        if trace and pass_id == 0:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + median(wall for wall, _ in pass_seconds) > seconds:
            break
    return recorders, outputs, pass_seconds


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  shape=None, setup_probes: int = SETUP_PROBES,
                  trace_dir: str = TRACE_DIR) -> Tuple[dict, int]:
    """Measure ``workload``; return the result object and the exit code."""
    setup_s = None if trace else measure_setup(workload, setup_probes)
    recorders, outputs, pass_seconds = run_passes(
        workload, seed, seconds, trace, shape
    )
    attempted = sum(rec.attempted for rec in recorders)
    failed = sum(rec.failed for rec in recorders)
    for rec in recorders:
        for problem in rec.check_failures:
            print(f"pipeline_bench: check failed: {problem}", file=sys.stderr)

    done = [(rec, out, wall, speed) for rec, out, (wall, speed)
            in zip(recorders, outputs, pass_seconds)]
    untraced = [(out, wall, speed) for rec, out, wall, speed in done
                if not rec.trace]
    traced = [(rec, out, wall) for rec, out, wall, _ in done if rec.trace]
    print(f"# {workload} seed={seed} passes={len(done)} "
          f"pass_s={[round(wall, 3) for _, _, wall, _ in done]} "
          f"host_speed={[round(speed, 3) for _, _, _, speed in done]}")
    if outputs:
        print(f"# digest {outputs[0].digest()}")
        for note in outputs[0].notes:
            print(f"# {note}")

    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if trace and untraced and traced:
        per_pass = [layer_metrics(rec, out) for rec, out, _ in traced]
        metrics = {name: median([m[name] for m in per_pass])
                   for name in per_pass[0]}
        for layer in LAYERS:
            metrics[f"{layer}.failed"] = sum(
                rec.failed_calls[layer] for rec in recorders
            )
        metrics["bench.tracing_overhead"] = (
            median([wall for _, _, wall in traced])
            / median([wall for _, wall, _ in untraced]) - 1.0
        )
        metrics["bench.host_speed"] = median([speed for *_, speed in untraced])
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
        write_chrome_trace(path, [rec for rec, _, _ in traced])
        print(f"# trace written to {path}")
        units = PER_LAYER_UNITS
    elif not trace and untraced:
        first = untraced[0][0]
        metrics = {
            "rays_per_s": median([out.ao_rays / (wall * speed)
                                  for out, wall, speed in untraced]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "success_rate": 1.0 - failed / attempted,
            "predictor_speedup": first.predictor_speedup,
            "memory_savings": first.memory_savings,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, 0 if failed == 0 else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="AO sampling seed (default %(default)s)")
    parser.add_argument("--seconds", type=_seconds, default=30.0,
                        help="measuring time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"pipeline_bench: unset {', '.join(refused)}: passes must run "
              "with telemetry off and no artifact cache", file=sys.stderr)
        return 2
    with HostSpeed(SETUP_INTERVAL_S) as host:
        load_program()
        args = parse_args(argv)
        warm_up(args.workload)
    if args.setup_probe:
        print(f"ready {host.speed!r} {host.overhead_s!r}", flush=True)
        return 0
    result, code = run_benchmark(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
