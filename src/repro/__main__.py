"""Command-line interface: ``python -m repro <command>``.

Commands:
    scenes            list the benchmark scenes with their statistics
    quick SCENE       baseline-vs-predictor headline numbers for a scene
    limit SCENE       run the Figure 2 limit study on a scene
    faults SCENE      differential fault-injection oracle for a scene
    bench             production code on pinned seeds, BENCH_*.json
                      artifacts; --check gates them exactly
    simulate          resilient multi-scene predictor sweep, SIM_*.json
    telemetry         instrumented run, telemetry.json + summary
    report            stitch results/*.txt into REPORT.md; --ledger builds
                      a run ledger over BENCH_*/SIM_*.json artifacts and
                      --compare diffs two runs (regression gate)

Resilience (``simulate``): ``--resume`` continues a sweep from its
checkpoint without re-running completed scenes; ``--supervise`` /
``--max-retries`` / ``--unit-timeout`` / ``--memory-budget`` run each
scene under the run supervisor (retry with backoff, then the
wavefront -> predictor-off -> skip degradation ladder); ``--no-degrade``
fails the sweep instead of degrading; ``--chaos-rate`` /
``--force-fail`` inject synthetic unit faults for chaos testing.  ``bench``
has none of these: a gate fails, it never degrades.  See
docs/ROBUSTNESS.md.

The global ``--telemetry`` flag (or ``REPRO_TELEMETRY=1``) switches on
metric/span collection for any command; the ``telemetry`` subcommand
always collects and writes the artifact (see docs/OBSERVABILITY.md).

The CLI is a thin veneer over the library; the benchmark harness under
``benchmarks/`` regenerates the paper's full tables and figures.

Failures map to distinct exit codes (see :mod:`repro.errors`): 3 scene
loading, 4 invalid input, 5 traversal integrity, 6 watchdog, 7 oracle
mismatch, 8 checkpoint, 9 unit timeout, 10 memory budget, 11 escaped
injected fault, 12 sweep failed, 70 unexpected internal error.
Structured errors print a one-line actionable message instead of a
traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro import telemetry
from repro.analysis.experiments import (
    scaled_gpu_config,
    scaled_predictor_config,
)
from repro.analysis.tables import format_table
from repro.bvh import build_bvh, compute_stats
from repro.errors import EXIT_INTERNAL, ReproError, exit_code_for
from repro.rays import generate_ao_workload
from repro.scenes import SCENE_CODES, get_scene


def _cmd_scenes(args: argparse.Namespace) -> int:
    rows = []
    for code in SCENE_CODES:
        scene = get_scene(code, detail=args.detail)
        stats = compute_stats(build_bvh(scene.mesh))
        rows.append(
            [code, scene.name, scene.num_triangles, stats.num_nodes,
             stats.max_depth, f"{stats.total_bytes / 1024:.0f}KB"]
        )
    print(format_table(
        ["Code", "Name", "Triangles", "BVH nodes", "Depth", "Footprint"], rows
    ))
    return 0


def _cmd_quick(args: argparse.Namespace) -> int:
    from repro.gpu import simulate_workload

    scene = get_scene(args.scene, detail=args.detail)
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(
        scene, bvh, width=args.size, height=args.size, spp=args.spp, seed=1
    ).rays
    baseline = simulate_workload(bvh, rays, scaled_gpu_config())
    predicted = simulate_workload(
        bvh, rays, scaled_gpu_config(scaled_predictor_config())
    )
    print(f"{scene.name}: {len(rays)} AO rays")
    print(f"  baseline : {baseline.cycles} cycles")
    print(f"  predictor: {predicted.cycles} cycles "
          f"(predicted {predicted.predicted_rate:.0%}, "
          f"verified {predicted.verified_rate:.0%})")
    print(f"  speedup  : {baseline.cycles / predicted.cycles:.3f}x")
    print(f"  accesses : {1 - predicted.total_accesses / baseline.total_accesses:+.1%}")
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import run_limit_study

    scene = get_scene(args.scene, detail=args.detail)
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(
        scene, bvh, width=args.size, height=args.size, spp=args.spp, seed=1
    ).rays
    rays = rays.subset(np.arange(min(args.rays, len(rays))))
    study = run_limit_study(bvh, rays, scaled_predictor_config())
    rows = [
        [kind.value, result.verified_rate, result.memory_savings]
        for kind, result in study.items()
    ]
    print(format_table(["Configuration", "Verified", "Memory savings"], rows,
                       title=f"Limit study: {scene.name} ({len(rays)} rays)"))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.faults import FaultConfig, run_differential_oracle

    # Validate the fault settings before paying for scene + BVH setup.
    fault_config = FaultConfig(
        seed=args.seed, table_rate=args.rate, ray_rate=args.rate
    )
    scene = get_scene(args.scene, detail=args.detail)
    bvh = build_bvh(scene.mesh, validate=True)
    rays = generate_ao_workload(
        scene, bvh, width=args.size, height=args.size, spp=args.spp, seed=1
    ).rays
    rays = rays.subset(np.arange(min(args.rays, len(rays))))
    report = run_differential_oracle(
        bvh,
        rays,
        fault_config=fault_config,
        in_flight=args.in_flight,
        perturb_rays=args.perturb_rays,
        scene=scene.name,
    )
    print(report.summary())
    # A mismatch is the one result this command exists to catch; raise
    # the structured error so main() maps it to its exit code.
    report.raise_on_mismatch()
    return 0


def _resilience_from_args(args: argparse.Namespace, default_checkpoint: str):
    """Build (ResilienceOptions | None, UnitFaultPlan | None) from CLI flags.

    Supervision turns on when any resilience flag is present.
    """
    from repro.faults import UnitFaultPlan
    from repro.resilience import ResilienceOptions

    fault_plan = None
    if args.chaos_rate > 0.0 or args.force_fail:
        fault_plan = UnitFaultPlan(
            seed=args.chaos_seed,
            rate=args.chaos_rate,
            force_fail=UnitFaultPlan.parse_force_fail(args.force_fail or []),
        )
    requested = (
        args.supervise
        or args.resume
        or args.no_degrade
        or args.checkpoint is not None
        or args.max_retries is not None
        or args.unit_timeout is not None
        or args.memory_budget is not None
        or fault_plan is not None
    )
    if not requested:
        return None, None
    options = ResilienceOptions(
        checkpoint_path=args.checkpoint or default_checkpoint,
        resume=args.resume,
        max_retries=1 if args.max_retries is None else args.max_retries,
        unit_timeout_s=args.unit_timeout,
        memory_budget_mb=args.memory_budget,
        degrade=not args.no_degrade,
        seed=args.chaos_seed,
    )
    return options, fault_plan


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience", "supervised execution, checkpoint/resume, chaos testing"
    )
    group.add_argument("--supervise", action="store_true",
                       help="run each scene under the supervisor with the "
                       "degradation ladder (implied by the flags below)")
    group.add_argument("--resume", action="store_true",
                       help="continue from the sweep checkpoint; completed "
                       "scenes are not re-run")
    group.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file (default: <out>/<artifact>"
                       ".checkpoint.json)")
    group.add_argument("--max-retries", type=int, default=None,
                       dest="max_retries", metavar="N",
                       help="retries per ladder rung for transient failures "
                       "(default 1)")
    group.add_argument("--unit-timeout", type=float, default=None,
                       dest="unit_timeout", metavar="SECONDS",
                       help="wall-clock deadline per scene attempt")
    group.add_argument("--memory-budget", type=float, default=None,
                       dest="memory_budget", metavar="MB",
                       help="peak-allocation budget per scene attempt")
    group.add_argument("--no-degrade", action="store_true", dest="no_degrade",
                       help="fail the sweep (exit 12) instead of walking the "
                       "degradation ladder")
    group.add_argument("--chaos-rate", type=float, default=0.0,
                       dest="chaos_rate", metavar="P",
                       help="per-attempt probability of an injected unit fault")
    group.add_argument("--chaos-seed", type=int, default=0, dest="chaos_seed",
                       help="seed for injected-fault and backoff schedules")
    group.add_argument("--force-fail", action="append", default=None,
                       dest="force_fail", metavar="UNIT[:COUNT]",
                       help="force scene UNIT to fail its first COUNT "
                       "attempts (COUNT omitted = always); repeatable")


def _add_artifact_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--artifact-cache", default=None, metavar="DIR",
                        dest="artifact_cache",
                        help="content-addressed BVH cache directory "
                        "(also via REPRO_ARTIFACT_CACHE); repeated runs "
                        "skip redundant SAH builds")


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench import PRESETS, run_benchmarks, write_payload
    from repro.bench.harness import check_against_baselines, summarize
    from repro.bvh.cache import configure_artifact_cache

    configure_artifact_cache(args.artifact_cache)
    payload = run_benchmarks(
        PRESETS[args.preset], scenes=args.scenes, progress=print
    )
    print(summarize(payload))
    path = write_payload(payload, args.out)
    print(f"wrote {path}")
    if args.trace_out:
        import json

        events = telemetry.get_tracer().chrome_trace()
        directory = os.path.dirname(args.trace_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
            handle.write("\n")
        print(f"wrote {args.trace_out} (open in chrome://tracing or Perfetto)")
    if args.check:
        problems = check_against_baselines(payload, args.baselines)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("check passed: every baseline record reappeared unchanged")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import os

    from repro.bvh.cache import configure_artifact_cache
    from repro.resilience.checkpoint import atomic_write_json
    from repro.resilience.sweep import (
        SimulatePreset,
        run_simulation_sweep,
        summarize_sweep,
    )

    configure_artifact_cache(args.artifact_cache)
    scenes = tuple(args.scenes) if args.scenes else tuple(SCENE_CODES)
    preset = SimulatePreset(
        name=args.name,
        scenes=scenes,
        width=args.size,
        height=args.size,
        spp=args.spp,
        detail=args.detail,
        sim_rays=args.rays,
        in_flight=args.in_flight,
    )
    default_checkpoint = os.path.join(
        args.out, f"SIM_{preset.name}.checkpoint.json"
    )
    options, fault_plan = _resilience_from_args(args, default_checkpoint)
    payload = run_simulation_sweep(
        preset, options=options, fault_plan=fault_plan, progress=print,
        jobs=args.jobs,
    )
    print(summarize_sweep(payload))
    path = os.path.join(args.out, f"SIM_{preset.name}.json")
    atomic_write_json(path, payload)
    print(f"wrote {path}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry.runner import (
        TelemetryPreset,
        run_telemetry_workload,
        summarize_telemetry,
        write_telemetry,
    )
    from repro.telemetry.schema import validate_telemetry

    preset = TelemetryPreset(
        scene=args.scene,
        detail=args.detail,
        width=args.size,
        height=args.size,
        spp=args.spp,
        sim_rays=args.rays,
        rt_rays=args.rays,
    )
    if args.quick:
        preset = preset.scaled_for_quick()
    payload = run_telemetry_workload(preset, profile=args.profile)
    print(summarize_telemetry(payload))
    path = write_telemetry(payload, args.out)
    print(f"wrote {path}")
    if args.trace_out:
        events = payload["trace_events"]
        import json
        import os

        directory = os.path.dirname(args.trace_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
            handle.write("\n")
        print(f"wrote {args.trace_out} (open in chrome://tracing or Perfetto)")
    if args.check:
        problems = validate_telemetry(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print("telemetry artifact valid (schema "
              f"{payload['schema']})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.compare:
        from repro.telemetry.ledger import (
            compare_runs,
            counter_deltas,
            load_artifact,
            render_counter_deltas,
        )

        old_path, new_path = args.compare
        old = load_artifact(old_path)
        new = load_artifact(new_path)
        print(f"comparing {old_path} (old) -> {new_path} (new)")
        print(render_counter_deltas(counter_deltas(old, new)))
        problems = compare_runs(old, new, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"regression check passed (tolerance {args.tolerance:.0%})")
        return 0
    if args.ledger:
        from repro.telemetry.ledger import build_ledger, render_trends

        ledger = build_ledger(args.ledger)
        rendered = render_trends(ledger)
        print(rendered)
        if args.ledger_out:
            import json
            import os

            directory = os.path.dirname(args.ledger_out)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(args.ledger_out, "w", encoding="utf-8") as handle:
                json.dump(ledger, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.ledger_out}")
        return 0
    from repro.analysis.report import write_report

    write_report(args.results, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--detail", type=float, default=1.0,
                        help="scene triangle-budget multiplier")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect metrics/spans during the command "
                        "(same as REPRO_TELEMETRY=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenes", help="list benchmark scenes")

    quick = sub.add_parser("quick", help="headline numbers for one scene")
    quick.add_argument("scene", nargs="?", default="SP")
    quick.add_argument("--size", type=int, default=48)
    quick.add_argument("--spp", type=int, default=4)

    limit = sub.add_parser("limit", help="Figure 2 limit study for one scene")
    limit.add_argument("scene", nargs="?", default="SP")
    limit.add_argument("--size", type=int, default=32)
    limit.add_argument("--spp", type=int, default=2)
    limit.add_argument("--rays", type=int, default=2000)

    faults = sub.add_parser(
        "faults",
        help="differential fault-injection oracle for one scene",
        description="Corrupt predictor-table entries while tracing and "
        "assert per-ray occlusion matches the no-predictor baseline.",
    )
    faults.add_argument("scene", nargs="?", default="SP")
    faults.add_argument("--size", type=int, default=24)
    faults.add_argument("--spp", type=int, default=2)
    faults.add_argument("--rays", type=int, default=1500)
    faults.add_argument("--rate", type=float, default=0.1,
                        help="per-lookup table corruption probability")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--in-flight", type=int, default=32, dest="in_flight",
                        help="delayed-update window (smaller = more predictions)")
    faults.add_argument("--perturb-rays", action="store_true",
                        help="also inject NaN/inf/zero-direction rays")

    bench = sub.add_parser(
        "bench",
        help="run production code on pinned seeds, emit BENCH_*.json",
        description="Run the benchmark harness (repro.bench) serially on a "
        "pinned-seed preset and write a BENCH_<preset>.json artifact; with "
        "--check, exit 1 unless every record of the committed baseline "
        "reappears with equal rays, fetch counters and extras, and every "
        "predictor record verifies rays, saves cycles and saves memory.  "
        "Wall time is recorded, never gated.",
    )
    bench.add_argument("--preset", choices=("quick", "full", "predictor",
                                            "build"),
                       default="full",
                       help="'quick' and 'full' time traversal; 'predictor' "
                       "runs the RT-unit timing model without and with the "
                       "predictor plus the functional simulation on the "
                       "Figure 12 shape; 'build' times BVH construction and "
                       "refit (default: full)")
    bench.add_argument("--scenes", nargs="+", metavar="CODE",
                       help="restrict to these scene codes")
    bench.add_argument("--out", default="benchmarks/results",
                       help="directory for the BENCH_*.json artifact")
    bench.add_argument("--baselines", default="benchmarks/baselines",
                       help="directory holding committed baseline artifacts")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 on any change against the baseline or a "
                       "predictor record outside the paper's regime")
    # SUPPRESS keeps the global --telemetry value when the per-command
    # flag is absent (subparser defaults would otherwise clobber it).
    bench.add_argument("--telemetry", action="store_true",
                       default=argparse.SUPPRESS,
                       help="collect metrics during the run and embed a "
                       "telemetry section in the BENCH artifact")
    bench.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write the run's Chrome trace to this JSON file; "
                       "requires --telemetry")
    _add_artifact_cache_arg(bench)

    simulate = sub.add_parser(
        "simulate",
        help="resilient multi-scene predictor sweep, emit SIM_*.json",
        description="Run the functional predictor simulation across scenes "
        "under the run supervisor: per-scene checkpointing, retry with "
        "backoff, and the graceful-degradation ladder.  The SIM_<name>.json "
        "artifact always carries a partial-results manifest.",
    )
    simulate.add_argument("--name", default="simulate",
                          help="sweep name (artifact is SIM_<name>.json)")
    simulate.add_argument("--scenes", nargs="+", metavar="CODE",
                          help="scene codes (default: all scenes)")
    simulate.add_argument("--size", type=int, default=24)
    simulate.add_argument("--spp", type=int, default=2)
    simulate.add_argument("--rays", type=int, default=512,
                          help="rays simulated per scene")
    simulate.add_argument("--in-flight", type=int, default=32,
                          dest="in_flight",
                          help="delayed-update window for the predictor")
    simulate.add_argument("--out", default="results",
                          help="directory for the SIM_*.json artifact")
    simulate.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes sharding the scene units "
                          "(results are deterministic: the artifact matches "
                          "--jobs 1)")
    _add_artifact_cache_arg(simulate)
    _add_resilience_args(simulate)

    tele = sub.add_parser(
        "telemetry",
        help="instrumented run: telemetry.json artifact + summary",
        description="Run one scene through the instrumented pipeline with "
        "telemetry enabled and write a repro-telemetry/1 JSON artifact "
        "(metrics snapshot, span summaries, phase timings, Chrome trace).",
    )
    tele.add_argument("--scene", default="SP", help="scene code (default SP)")
    tele.add_argument("--quick", action="store_true",
                      help="CI smoke shape: 16x16, 256 rays")
    tele.add_argument("--size", type=int, default=32)
    tele.add_argument("--spp", type=int, default=2)
    tele.add_argument("--rays", type=int, default=1024,
                      help="rays for the predictor/RT-unit stages")
    tele.add_argument("--out", default="results/telemetry.json",
                      help="artifact path")
    tele.add_argument("--trace-out", default=None, dest="trace_out",
                      help="also write a standalone Chrome trace JSON here")
    tele.add_argument("--profile", action="store_true",
                      help="attach the sampling profiler (adds overhead)")
    tele.add_argument("--check", action="store_true",
                      help="validate the artifact against the schema; "
                      "exit 1 on problems")

    report = sub.add_parser(
        "report",
        help="collect results/ into REPORT.md, or index/compare artifacts",
        description="Default mode stitches results/*.txt into REPORT.md. "
        "--ledger indexes BENCH_*.json / SIM_*.json artifacts into a "
        "repro-ledger/1 run ledger with per-scene trend tables; "
        "--compare OLD NEW prints telemetry counter deltas between two "
        "artifacts and exits 1 if the regression gate fires.",
    )
    report.add_argument("--results", default="results")
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--ledger", nargs="+", metavar="PATH", default=None,
                        help="artifact files or directories to index into "
                        "a run ledger (trend tables, oldest run first)")
    report.add_argument("--ledger-out", default=None, dest="ledger_out",
                        metavar="FILE",
                        help="also write the repro-ledger/1 JSON here")
    report.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        default=None,
                        help="diff two artifacts: counter deltas plus the "
                        "regression gate (exit 1 on regression)")
    report.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed relative rate drift when --compare "
                        "diffs SIM artifacts (default 0.2); BENCH artifacts "
                        "compare exactly")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    if args.telemetry:
        telemetry.enable()
    handlers = {
        "scenes": _cmd_scenes,
        "quick": _cmd_quick,
        "limit": _cmd_limit,
        "faults": _cmd_faults,
        "bench": _cmd_bench,
        "simulate": _cmd_simulate,
        "telemetry": _cmd_telemetry,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except (KeyError, ValueError) as exc:
        # e.g. an unknown scene code from the registry; keep the message
        # actionable (it lists the valid codes) and skip the traceback.
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
