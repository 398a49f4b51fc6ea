"""The public API surface: every exported name exists and is importable."""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.scenes",
    "repro.bvh",
    "repro.rays",
    "repro.trace",
    "repro.core",
    "repro.gpu",
    "repro.energy",
    "repro.render",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_headline_api_one_liner(self):
        """The README's import line must keep working."""
        from repro import (  # noqa: F401
            GPUConfig,
            PredictorConfig,
            build_bvh,
            generate_ao_workload,
            get_scene,
            simulate_workload,
        )

    def test_no_unexpected_export_collisions(self):
        """Top-level names must map to the same objects as the submodules."""
        import repro
        from repro.core.predictor import PredictorConfig
        from repro.gpu.config import GPUConfig

        assert repro.PredictorConfig is PredictorConfig
        assert repro.GPUConfig is GPUConfig


class TestSingleTraversalEngine:
    """Production code has one traversal engine and no switch to pick it.

    The scalar oracles live in :mod:`repro.reference`, which only the
    tests import.
    """

    CALLS = [
        ("repro.trace", "trace_occlusion_batch"),
        ("repro.trace", "trace_closest_batch"),
        ("repro.rays", "generate_ao_workload"),
        ("repro.rays.shadows", "generate_shadow_workload"),
        ("repro.rays.reflection", "generate_reflection_rays"),
        ("repro.render", "render_ao"),
        ("repro.core.simulate", "simulate_predictor"),
        ("repro.core.simulate", "simulate_baseline"),
        ("repro.faults", "run_differential_oracle"),
    ]

    @pytest.mark.parametrize("module,name", CALLS)
    def test_calls_take_no_engine(self, module, name):
        func = getattr(importlib.import_module(module), name)
        assert "engine" not in inspect.signature(func).parameters

    def test_presets_have_no_engine_field(self):
        from repro.resilience.sweep import SimulatePreset
        from repro.telemetry.runner import TelemetryPreset

        for preset in (SimulatePreset, TelemetryPreset):
            assert "engine" not in {f.name for f in dataclasses.fields(preset)}

    def test_trace_exports_no_engine_switch(self):
        import repro.trace

        for name in ("ENGINES", "resolve_engine", "DEFAULT_ENGINE"):
            assert not hasattr(repro.trace, name), name
            assert name not in repro.trace.__all__

    def test_reference_imported_only_by_tests(self):
        import repro

        root = pathlib.Path(repro.__file__).parent
        importers = set()
        for path in root.rglob("*.py"):
            rel = path.relative_to(root.parent)
            package = list(rel.parent.parts)
            if package[:2] == ["repro", "reference"]:
                continue  # the package importing its own modules
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1]
                    module = ".".join(
                        (base if node.level else []) + [node.module or ""]
                    ).strip(".")
                    names = [module] + [
                        f"{module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    n == "repro.reference" or n.startswith("repro.reference.")
                    for n in names
                ):
                    importers.add(rel.as_posix())
        assert importers == set()


class TestOneEnginePerStage:
    """BVH build, refit and RT-unit timing have one engine each, too.

    Their scalar twins sit beside the traversal oracles in
    :mod:`repro.reference`, under the production names; the AST scan
    above keeps that package out of production.
    """

    CALLS = [
        ("repro.bvh", "build_bvh"),
        ("repro.bvh", "refit_bvh"),
        ("repro.bvh", "cached_build_bvh"),
        ("repro.bvh", "BVHArtifactCache.get_or_build"),
        ("repro.gpu", "simulate_workload"),
    ]

    @pytest.mark.parametrize("module,name", CALLS)
    def test_calls_take_no_engine(self, module, name):
        func = importlib.import_module(module)
        for attr in name.split("."):
            func = getattr(func, attr)
        assert "engine" not in inspect.signature(func).parameters

    GONE = {
        "repro.bvh": ("BUILD_ENGINES", "REFIT_ENGINES", "BinnedSAHBuilder",
                      "MedianSplitBuilder", "LBVHBuilder"),
        "repro.gpu": ("RT_ENGINES", "RTUnit", "make_rt_unit"),
    }

    @pytest.mark.parametrize("package", GONE)
    def test_packages_export_no_second_engine(self, package):
        module = importlib.import_module(package)
        for name in self.GONE[package]:
            assert not hasattr(module, name), f"{package}.{name}"
            assert name not in module.__all__


class TestSerialSimulation:
    """No process sharding below the sweep level, no private L2s."""

    def test_simulate_workload_has_no_sm_jobs(self):
        from repro.gpu import simulate_workload

        assert "sm_jobs" not in inspect.signature(simulate_workload).parameters

    def test_gpu_config_has_no_shared_l2(self):
        from repro.gpu import GPUConfig

        assert "shared_l2" not in {f.name for f in dataclasses.fields(GPUConfig)}

    def test_bench_runs_serially(self):
        from repro.bench import BenchPreset, run_benchmarks

        assert list(inspect.signature(run_benchmarks).parameters) == [
            "preset", "scenes", "progress",
        ]
        assert len(dataclasses.fields(BenchPreset)) == 10
