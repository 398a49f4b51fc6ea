"""Tests for the pipeline benchmark's own code, at tiny input sizes.

Run from the repository root with ``python -m pytest pipeline_bench/tests``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import hostspeed
import pytest
import run
import workloads
from recorder import BENCH, LAYERS, PassRecorder

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def small(workload):
    return workloads.WORKLOADS[workload][2]


@pytest.fixture
def tiny_run(tmp_path):
    def tiny(workload, trace=False, seed=3):
        return run.run_benchmark(workload, seed, seconds=1e-3, trace=trace,
                                 shape=small(workload), setup_probes=1,
                                 trace_dir=str(tmp_path))

    return tiny


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_tiny_pass_emits_every_metric(tiny_run, workload, trace, section):
    result, code = tiny_run(workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name in ("rays_per_s", "setup_s", "peak_rss_mb", "success_rate",
                     "predictor_speedup"):
            assert result["metrics"][name]["value"] > 0
    else:
        calls = {layer: result["metrics"][f"{layer}.calls"]["value"]
                 for layer in LAYERS}
        called = {"fig12": {"scenes", "bvh", "rays", "trace", "gpu"},
                  "sweep": {"scenes", "bvh", "rays", "trace", "core"},
                  "bigscene": {"scenes", "bvh", "rays", "trace", "core"}}
        assert {layer for layer, n in calls.items() if n} == called[workload]


def test_forced_check_failure_raises_failure_rate_and_exit_code(tiny_run,
                                                               monkeypatch):
    real = workloads.simulate_predictor

    def lying_simulation(*args, **kwargs):
        result = real(*args, **kwargs)
        result.hits += 1
        return result

    monkeypatch.setattr(workloads, "simulate_predictor", lying_simulation)
    result, code = tiny_run("sweep")
    windows = len(small("sweep").windows)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == windows
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(
        1.0 - windows / result["attempted"]
    )


def test_raising_call_counts_as_failed_call(tiny_run, monkeypatch):
    def broken_build(mesh):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "build_bvh", broken_build)
    result, code = tiny_run("bigscene")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1


def test_self_times_sum_to_pass_time():
    rec = PassRecorder(0, trace=True)
    with rec.span("pass"):
        out = workloads.fig12(rec, 1, small("fig12"))
    pass_span = rec.spans[0]
    assert pass_span.parent is None
    assert all(span.pass_id == 0 for span in rec.spans)
    own = rec.self_times()
    assert set(own) == set(LAYERS) | {BENCH}
    assert sum(own.values()) == pytest.approx(pass_span.duration, rel=1e-9)
    metrics = run.layer_metrics(rec, out)
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    assert shares + metrics["bench.self_s"] / pass_span.duration == pytest.approx(1.0)


def test_digest_repeats_for_a_seed_and_follows_it():
    def digest(seed):
        return workloads.sweep(PassRecorder(0, False), seed,
                               small("sweep")).digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_refuses_program_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert run.main(["--workload", "sweep"]) == 2


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "pipeline_bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "pipeline_bench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_is_reference_over_probe_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe_kernel",
                        lambda: _spin(2 * hostspeed.REFERENCE_PROBE_S))
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(0.005) as host:
        _spin(0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= 10
    assert host.speed == pytest.approx(0.5, rel=0.1)
    assert host.overhead_s >= sum(host.samples)


def test_unprobed_host_speed_is_one():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(None) as host:
        _spin(0.02)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert (host.samples, host.overhead_s, host.speed) == ([], 0.0, 1.0)
