"""Unit tests for the analysis utilities and experiment context."""


import pytest

from repro.analysis import (
    ExperimentContext,
    format_table,
    geometric_mean,
    pearson_correlation,
    scaled_gpu_config,
    scaled_predictor_config,
)
from repro.analysis.correlate import hardware_proxy_rays_per_cycle
from repro.analysis.experiments import (
    ConfigMetrics,
    WorkloadParams,
    sweep_config_metrics,
)
from repro.analysis.stats import speedup


class TestStats:
    def test_geometric_mean_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_pearson_perfect(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_inverse(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson_correlation([1, 1], [1, 2])

    def test_speedup(self):
        assert speedup(200, 100) == 2.0
        with pytest.raises(ValueError):
            speedup(100, 0)


class TestFormatTable:
    def test_basic(self):
        out = format_table(["Scene", "Speedup"], [["SP", 1.234], ["LR", 0.9]])
        lines = out.splitlines()
        assert "Scene" in lines[0]
        assert "1.234" in lines[2]
        assert "0.900" in lines[3]

    def test_title(self):
        out = format_table(["A"], [[1]], title="Table X")
        assert out.splitlines()[0] == "Table X"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [[1]])

    def test_alignment(self):
        out = format_table(["name", "v"], [["x", 1.0], ["longer", 2.0]])
        lines = out.splitlines()
        # All rows have equal width.
        assert len(set(len(l) for l in lines[1:])) == 1


class TestScaledConfigs:
    def test_predictor_defaults(self):
        pc = scaled_predictor_config()
        assert pc.origin_bits == 4
        assert pc.go_up_level == 2
        assert pc.nodes_per_entry == 2
        assert pc.extra_warps == 4
        assert pc.num_entries == 1024  # the paper's table geometry

    def test_predictor_overrides(self):
        pc = scaled_predictor_config(go_up_level=5)
        assert pc.go_up_level == 5
        assert pc.origin_bits == 4

    def test_gpu_defaults(self):
        gpu = scaled_gpu_config()
        assert gpu.predictor is None
        assert gpu.num_sms == 2
        assert gpu.memory.l1.size_bytes == 4 * 1024

    def test_gpu_with_predictor(self):
        pc = scaled_predictor_config()
        gpu = scaled_gpu_config(pc)
        assert gpu.predictor is pc


class TestProxy:
    def test_more_work_less_throughput(self):
        fast = hardware_proxy_rays_per_cycle(1000, 20.0, 10, incoherent=False)
        slow = hardware_proxy_rays_per_cycle(1000, 60.0, 20, incoherent=False)
        assert fast > slow

    def test_incoherent_penalty(self):
        coherent = hardware_proxy_rays_per_cycle(1000, 30.0, 15, incoherent=False)
        incoherent = hardware_proxy_rays_per_cycle(1000, 30.0, 15, incoherent=True)
        assert incoherent < coherent

    def test_validation(self):
        with pytest.raises(ValueError):
            hardware_proxy_rays_per_cycle(0, 30.0, 15, False)


class TestExperimentContext:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext()

    # Use a tiny workload so this stays fast.
    PARAMS = WorkloadParams(width=12, height=12, spp=1, seed=2, detail=0.3)

    def test_scene_cached(self, context):
        a = context.scene("SP", detail=0.3)
        b = context.scene("SP", detail=0.3)
        assert a is b

    def test_bvh_cached(self, context):
        assert context.bvh("SP", detail=0.3) is context.bvh("SP", detail=0.3)

    def test_workload_cached(self, context):
        a = context.workload("SP", self.PARAMS)
        assert a is context.workload("SP", self.PARAMS)

    def test_rays_sorted_variant(self, context):
        plain = context.rays("SP", self.PARAMS)
        sorted_ = context.rays("SP", self.PARAMS, sort=True)
        assert len(plain) == len(sorted_)

    def test_simulation_cached(self, context):
        a = context.baseline("SP", self.PARAMS)
        b = context.baseline("SP", self.PARAMS)
        assert a is b

    def test_speedup_positive(self, context):
        s = context.speedup("SP", params=self.PARAMS)
        assert s > 0.0

    def test_sweep_config_metrics_simulates_in_given_context(self, monkeypatch):
        import repro.analysis.experiments as experiments

        ctx = ExperimentContext()
        params = WorkloadParams(width=8, height=8, spp=1, detail=0.25)
        configs = [
            scaled_predictor_config(), scaled_predictor_config(go_up_level=1)
        ]
        metrics = sweep_config_metrics(configs, ["SB"], params, ctx=ctx)
        assert list(metrics) == [(config, "SB") for config in configs]

        # Every simulation landed in ctx: neither a repeat call nor ctx
        # itself simulates again.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated outside the given context")

        monkeypatch.setattr(experiments, "simulate_workload", no_simulation)
        assert sweep_config_metrics(configs, ["SB"], params, ctx=ctx) == metrics
        base = ctx.baseline("SB", params)
        for config in configs:
            pred = ctx.predicted("SB", config, params)
            assert metrics[config, "SB"] == ConfigMetrics(
                speedup=base.cycles / pred.cycles,
                predicted_rate=pred.predicted_rate,
                verified_rate=pred.verified_rate,
            )
