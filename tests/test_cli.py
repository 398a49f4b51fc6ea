"""Unit tests for the ``python -m repro`` CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main


class TestCLI:
    def test_scenes_command(self, capsys):
        assert main(["--detail", "0.3", "scenes"]) == 0
        out = capsys.readouterr().out
        for code in ("SB", "SP", "LE", "LR", "FR", "BI", "CK"):
            assert code in out

    def test_quick_command(self, capsys):
        assert main(["--detail", "0.3", "quick", "FR", "--size", "12", "--spp", "1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "predictor" in out

    def test_limit_command(self, capsys):
        assert main([
            "--detail", "0.3", "limit", "FR",
            "--size", "10", "--spp", "1", "--rays", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "oracle_lookup" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_faults_command(self, capsys):
        assert main([
            "--detail", "0.2", "faults", "SP",
            "--size", "12", "--spp", "1", "--rays", "250",
            "--rate", "0.15", "--in-flight", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "faults injected" in out

    def test_faults_command_with_ray_perturbation(self, capsys):
        assert main([
            "--detail", "0.2", "faults", "FR",
            "--size", "10", "--spp", "1", "--rays", "150",
            "--rate", "0.2", "--in-flight", "16", "--perturb-rays",
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_scene_exits_with_input_code(self, capsys):
        from repro.errors import EXIT_INPUT

        assert main(["quick", "ZZ"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_fault_rate_exits_with_input_code(self, capsys):
        from repro.errors import EXIT_INPUT

        assert main([
            "--detail", "0.2", "faults", "SP", "--rate", "7",
        ]) == EXIT_INPUT
        assert "table_rate" in capsys.readouterr().err

    def test_report_command(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig12_speedup.txt").write_text("data\n")
        out = tmp_path / "REPORT.md"
        assert main(["report", "--results", str(results), "--output", str(out)]) == 0
        assert out.exists()
        assert "Figure 12" in out.read_text()

    @pytest.mark.parametrize("contents", [None, {}, {"notes.md": "x\n"}],
                             ids=["missing", "empty", "no-txt"])
    def test_report_without_artifacts_exits_4(self, contents, capsys,
                                              tmp_path):
        # A typo in --results must not replace a real report with one
        # that lists every artifact as missing.
        from repro.errors import EXIT_INPUT

        results = tmp_path / "results"
        if contents is not None:
            results.mkdir()
            for name, text in contents.items():
                (results / name).write_text(text)
        out = tmp_path / "REPORT.md"
        out.write_text("the previous report\n")
        assert main(["report", "--results", str(results),
                     "--output", str(out)]) == EXIT_INPUT
        assert str(results) in capsys.readouterr().err
        assert out.read_text() == "the previous report\n"

    def test_telemetry_command(self, capsys, tmp_path):
        import json

        from repro import telemetry

        out = tmp_path / "telemetry.json"
        trace = tmp_path / "trace.json"
        assert main([
            "telemetry", "--scene", "SP", "--quick", "--check",
            "--out", str(out), "--trace-out", str(trace),
        ]) == 0
        captured = capsys.readouterr()
        assert "telemetry artifact valid" in captured.out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-telemetry/1"
        assert json.loads(trace.read_text())["traceEvents"]
        # The subcommand force-enables for its run only.
        assert not telemetry.enabled()

    def test_global_telemetry_flag_enables(self, capsys):
        from repro import telemetry

        try:
            assert main([
                "--detail", "0.2", "--telemetry", "quick", "SP",
                "--size", "8", "--spp", "1",
            ]) == 0
            assert telemetry.enabled()
            names = {
                c["name"]
                for c in telemetry.get_registry().snapshot()["counters"]
            }
            assert "trace.rays" in names
        finally:
            telemetry.disable()
            telemetry.reset_telemetry()


def _run_repro(*argv, cwd=None):
    """Invoke the installed CLI exactly as a user would: a subprocess.

    Exit codes are an external contract; asserting them in-process via
    ``main()`` would miss anything ``sys.exit`` / argparse do on the way
    out.
    """
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


class TestExitCodeContract:
    """Every structured error maps to its documented, stable exit code."""

    def test_every_error_class_has_documented_code(self):
        import inspect

        import repro.errors as errors_mod
        from repro.errors import ReproError

        documented = {
            value
            for name, value in vars(errors_mod).items()
            if name.startswith("EXIT_")
        }
        for _, cls in inspect.getmembers(errors_mod, inspect.isclass):
            if issubclass(cls, ReproError):
                assert cls.exit_code in documented, cls
                # The docstring table is the user-facing contract; every
                # constant must appear in it.
        doc = errors_mod.__doc__
        for name, value in vars(errors_mod).items():
            if name.startswith("EXIT_"):
                assert f"\n{value:<6d}" in doc or f"\n{value}  " in doc, (
                    f"{name}={value} missing from the exit-code table"
                )

    def test_exit_code_for_covers_new_classes(self):
        from repro import errors

        cases = {
            errors.InputValidationError("x"): errors.EXIT_INPUT,
            errors.RayValidationError("x"): errors.EXIT_INPUT,
            errors.TraversalError("x"): errors.EXIT_TRAVERSAL,
            errors.SimulationStallError("x"): errors.EXIT_WATCHDOG,
            errors.OracleMismatchError("x"): errors.EXIT_ORACLE,
            KeyError("x"): errors.EXIT_INPUT,
            ValueError("x"): errors.EXIT_INPUT,
            RuntimeError("x"): errors.EXIT_INTERNAL,
        }
        for exc, expected in cases.items():
            assert errors.exit_code_for(exc) == expected, exc

    def test_usage_error_exits_2(self):
        from repro.errors import EXIT_USAGE

        result = _run_repro("frobnicate")
        assert result.returncode == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["faults", "SP", "--size", "8", "--spp", "1", "--rays", "32"],
        ["simulate", "--scenes", "SB", "--size", "8", "--rays", "32",
         "--out", "{tmp}"],
        ["telemetry", "--quick", "--out", "{tmp}/telemetry.json"],
    ], ids=["faults", "simulate", "telemetry"])
    def test_engine_flag_is_gone(self, argv, tmp_path, capsys):
        # One traversal engine in production: the flag that picked the
        # scalar one is an unknown argument now.
        from repro.errors import EXIT_USAGE

        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(["--detail", "0.2", *argv, "--engine", "scalar"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--tolerance", "0.2"], ["--resume"], ["--quick"],
        ["--artifact-cache", "{tmp}/bvh"],
    ], ids=["jobs", "tolerance", "resume", "quick", "artifact-cache"])
    def test_removed_bench_flags_exit_2(self, flag, tmp_path, capsys):
        # repro bench runs serially and gates exactly: no sharding, no
        # supervision, no tolerance, one preset selector, and every tree
        # comes from build_bvh.
        from repro.errors import EXIT_USAGE

        flag = [arg.format(tmp=tmp_path) for arg in flag]
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--preset", "quick", "--scenes", "SB",
                  "--out", str(tmp_path), *flag])
        assert excinfo.value.code == EXIT_USAGE
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--artifact-cache", "{tmp}/bvh"], ["--jobs", "2"], ["--supervise"],
        ["--resume"], ["--checkpoint", "{tmp}/SIM_simulate.checkpoint.json"],
        ["--max-retries", "1"], ["--unit-timeout", "5"],
        ["--memory-budget", "100"], ["--no-degrade"], ["--chaos-rate", "0.1"],
        ["--chaos-seed", "7"], ["--force-fail", "SB"],
    ], ids=["artifact-cache", "jobs", "supervise", "resume", "checkpoint",
            "max-retries", "unit-timeout", "memory-budget", "no-degrade",
            "chaos-rate", "chaos-seed", "force-fail"])
    def test_removed_simulate_flags_exit_2(self, flag, tmp_path, capsys):
        # Every scene builds its tree with build_bvh (there is no on-disk
        # tree store to point at), and the sweep runs each scene once, in
        # one process: no retries, deadlines, budgets, checkpoints or
        # injected unit faults.
        from repro.errors import EXIT_USAGE

        flag = [arg.format(tmp=tmp_path) for arg in flag]
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenes", "SB", "--size", "8", "--rays",
                  "32", "--out", str(tmp_path), *flag])
        assert excinfo.value.code == EXIT_USAGE
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "SIM_simulate.json").exists()

    @pytest.mark.parametrize("flag", [
        ["--compare", "{tmp}/a.json", "{tmp}/b.json"], ["--tolerance", "0.2"],
    ], ids=["compare", "tolerance"])
    def test_removed_report_flags_exit_2(self, flag, tmp_path, capsys):
        # repro report only stitches results/*.txt: BENCH artifacts are
        # gated by bench --check, results/ by its committed files.
        from repro.errors import EXIT_USAGE

        flag = [arg.format(tmp=tmp_path) for arg in flag]
        out = tmp_path / "REPORT.md"
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--output", str(out), *flag])
        assert excinfo.value.code == EXIT_USAGE
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_bench_trace_out_requires_telemetry(self, tmp_path, capsys):
        # Without telemetry no span is recorded, so the trace would hold
        # nothing; the preset must not run at all.
        from repro import telemetry
        from repro.errors import EXIT_INPUT

        assert not telemetry.enabled()
        trace = tmp_path / "trace.json"
        assert main(["bench", "--preset", "quick", "--scenes", "SB",
                     "--out", str(tmp_path), "--trace-out", str(trace)]
                    ) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--trace-out requires --telemetry" in captured.err
        assert "building scene" not in captured.out
        assert not trace.exists()
        assert not (tmp_path / "BENCH_quick.json").exists()

    def test_bench_check_fails_on_changed_record(self, tmp_path, capsys):
        out, base = tmp_path / "out", tmp_path / "base"
        argv = ["bench", "--preset", "quick", "--scenes", "SB",
                "--out", str(out), "--baselines", str(base), "--check"]
        # No committed baseline: the gate fails rather than passing.
        assert main(argv) == 1
        assert "no committed baseline" in capsys.readouterr().err
        base.mkdir()
        artifact = json.loads((out / "BENCH_quick.json").read_text())
        (base / "BENCH_quick.json").write_text(json.dumps(artifact))
        assert main(argv) == 0
        artifact["results"][0]["node_fetches"] += 1
        (base / "BENCH_quick.json").write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "REGRESSION: occlusion_trace/SB: node_fetches changed" in err

    def test_unknown_scene_exits_4(self):
        from repro.errors import EXIT_INPUT

        result = _run_repro("quick", "ZZ", "--size", "8", "--spp", "1")
        assert result.returncode == EXIT_INPUT
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_invalid_fault_rate_exits_4(self):
        from repro.errors import EXIT_INPUT

        result = _run_repro("--detail", "0.2", "faults", "SP", "--rate", "7")
        assert result.returncode == EXIT_INPUT

    def test_non_finite_detail_exits_4(self):
        from repro.errors import EXIT_INPUT

        result = _run_repro("--detail", "inf", "scenes")
        assert result.returncode == EXIT_INPUT
        assert "positive finite" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "flag, field",
        [("--size", "width"), ("--spp", "spp"), ("--rays", "sim_rays"),
         ("--in-flight", "in_flight")],
        ids=["size", "spp", "rays", "in-flight"],
    )
    def test_simulate_count_below_one_exits_4(self, tmp_path, flag, field):
        # Rejected before any scene runs: a scene would otherwise simulate
        # no rays, and the sweep would still exit 0.
        from repro.errors import EXIT_INPUT

        counts = {"--size": "8", "--rays": "32", flag: "0"}
        result = _run_repro(
            "--detail", "0.2", "simulate", "--scenes", "SB",
            *(arg for pair in counts.items() for arg in pair),
            "--out", str(tmp_path),
        )
        assert result.returncode == EXIT_INPUT
        assert f"{field} must be >= 1" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "SIM_simulate.json").exists()

    @pytest.mark.parametrize("argv", [
        ["faults", "SP", "--size", "8", "--spp", "1", "--rays", "0"],
        ["faults", "SP", "--size", "8", "--spp", "1", "--rays", "-5"],
        ["limit", "SP", "--size", "8", "--spp", "1", "--rays", "0"],
        ["telemetry", "--size", "8", "--rays", "-3",
         "--out", "{tmp}/telemetry.json"],
    ], ids=["faults-0", "faults-negative", "limit-0", "telemetry-negative"])
    def test_rays_below_one_exits_4(self, argv, tmp_path, monkeypatch):
        # Rejected before the scene is built; otherwise the command runs
        # on no rays and exits 0 ("differential oracle: OK | 0 rays", a
        # table of zeros, a telemetry payload).
        import repro.__main__ as cli
        import repro.scenes
        from repro.errors import EXIT_INPUT

        def no_scene(*args, **kwargs):
            raise AssertionError("scene built before --rays was checked")

        monkeypatch.setattr(cli, "get_scene", no_scene)
        monkeypatch.setattr(repro.scenes, "get_scene", no_scene)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["--detail", "0.2", *argv]) == EXIT_INPUT
        assert not (tmp_path / "telemetry.json").exists()

    def test_simulate_unknown_scene_exits_4(self, tmp_path):
        # Rejected before any scene runs, so a typo at the end of the list
        # costs none of the scenes before it.
        from repro.errors import EXIT_INPUT

        result = _run_repro(
            "--detail", "0.2", "simulate", "--scenes", "XX",
            "--size", "8", "--rays", "32", "--out", str(tmp_path),
        )
        assert result.returncode == EXIT_INPUT
        assert "unknown scene 'XX'" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "SIM_simulate.json").exists()

    def test_simulate_repeated_scene_exits_4(self, tmp_path, capsys,
                                             monkeypatch):
        # `sb` is SB again: rejected before any scene runs, where it
        # would otherwise simulate SB twice and write two SB rows.
        from repro.analysis import sweep
        from repro.errors import EXIT_INPUT

        def no_scene(*args, **kwargs):
            raise AssertionError("scene built before the list was checked")

        monkeypatch.setattr(sweep, "get_scene", no_scene)
        assert main([
            "--detail", "0.2", "simulate", "--scenes", "SB", "sb",
            "--size", "8", "--rays", "32", "--out", str(tmp_path),
        ]) == EXIT_INPUT
        assert "scene SB is listed more than once" in capsys.readouterr().err
        assert not list(tmp_path.glob("SIM_*.json"))

    def test_successful_sweep_exits_0_with_manifest(self, tmp_path):
        result = _run_repro(
            "--detail", "0.2", "simulate", "--scenes", "SB", "CK",
            "--size", "8", "--rays", "32",
            "--out", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "SIM_simulate.json").read_text())
        assert payload["scenes"] == ["SB", "CK"]
        rows = payload["results"]
        assert [row["scene"] for row in rows] == ["SB", "CK"]
        assert all(row["num_rays"] == 32 for row in rows)

    @pytest.mark.parametrize("detail", ["0", "-1", "nan"])
    def test_simulate_bad_detail_exits_4(self, detail, tmp_path, capsys):
        # A scene that cannot be built ends the sweep: exit 4, no artifact.
        from repro.errors import EXIT_INPUT

        assert main([
            "--detail", detail, "simulate", "--scenes", "SB", "--size", "8",
            "--rays", "32", "--out", str(tmp_path),
        ]) == EXIT_INPUT
        assert "error: detail must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unexpected_error_exits_70(self, tmp_path, capsys, monkeypatch):
        # A bug is not a result: the sweep stops, main() prints the
        # traceback and exits 70, which no failed gate (exit 1) shares.
        import repro.analysis.sweep as sweep
        from repro.errors import EXIT_INTERNAL

        def broken(*args, **kwargs):
            raise ZeroDivisionError("simulated bug")

        monkeypatch.setattr(sweep, "simulate_predictor", broken)
        assert main([
            "--detail", "0.2", "simulate", "--scenes", "SB", "--size", "8",
            "--rays", "32", "--out", str(tmp_path),
        ]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "ZeroDivisionError: simulated bug" in err
        assert not list(tmp_path.iterdir())
