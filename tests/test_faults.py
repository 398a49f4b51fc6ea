"""Fault-injection framework and speculation-safety guard tests.

The central invariant (the paper's Section 3 contract, made executable):
no corrupted predictor state may ever change which rays report
occlusion.  Everything here either injects faults and asserts that
invariant, or exercises an individual guard directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh import build_bvh
from repro.core import PredictorConfig, RayPredictor
from repro.core.table import PredictorTable
from repro.errors import (
    EXIT_ORACLE,
    EXIT_TRAVERSAL,
    EXIT_WATCHDOG,
    OracleMismatchError,
    SimulationStallError,
    TraversalError,
    exit_code_for,
)
from repro.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultInjector,
    FaultyPredictor,
    run_differential_oracle,
)
from repro.gpu import GPUConfig, simulate_workload
from repro.gpu.config import RTUnitConfig
from repro.rays import generate_ao_workload
from repro.scenes import SCENE_CODES, get_scene
from repro.trace.traversal import occlusion_any_hit, occlusion_any_hit_tri


def _filled_table(num_entries=16, ways=2, nodes=(3, 5, 9, 12)):
    table = PredictorTable(num_entries=num_entries, ways=ways, hash_bits=8)
    for i, node in enumerate(nodes):
        table.update(i * 37, node)
    return table


class TestFaultInjectorTable:
    def test_determinism_same_seed_same_schedule(self):
        logs = []
        for _ in range(2):
            table = _filled_table()
            injector = FaultInjector(FaultConfig(seed=42, table_rate=1.0), num_nodes=64)
            for _ in range(20):
                injector.maybe_corrupt_table(table)
            logs.append([(r.kind, r.location, r.before, r.after) for r in injector.log])
        assert logs[0] == logs[1]
        assert len(logs[0]) == 20

    def test_different_seeds_differ(self):
        schedules = []
        for seed in (1, 2):
            table = _filled_table()
            injector = FaultInjector(FaultConfig(seed=seed, table_rate=1.0), num_nodes=64)
            for _ in range(20):
                injector.maybe_corrupt_table(table)
            schedules.append([(r.kind, r.location) for r in injector.log])
        assert schedules[0] != schedules[1]

    def test_rate_zero_never_injects(self):
        table = _filled_table()
        injector = FaultInjector(FaultConfig(seed=0, table_rate=0.0), num_nodes=64)
        for _ in range(100):
            assert injector.maybe_corrupt_table(table) is None
        assert injector.log == []

    def test_empty_table_is_noop(self):
        table = PredictorTable(num_entries=8, ways=2, hash_bits=8)
        injector = FaultInjector(FaultConfig(seed=0, table_rate=1.0), num_nodes=64)
        assert injector.corrupt_table_once(table) is None

    def test_every_kind_reachable_and_logged(self):
        table = _filled_table()
        injector = FaultInjector(FaultConfig(seed=7, table_rate=1.0), num_nodes=64)
        for _ in range(300):
            injector.corrupt_table_once(table)
        kinds = {r.kind for r in injector.log}
        assert kinds == set(FAULT_KINDS)

    def test_out_of_range_corruption_lands_in_table(self):
        table = _filled_table()
        injector = FaultInjector(
            FaultConfig(seed=3, table_rate=1.0, table_kinds=("out_of_range",)),
            num_nodes=64,
        )
        rec = injector.corrupt_table_once(table)
        assert rec.kind == "out_of_range"
        assert rec.after >= 64
        assert any(n >= 64 for n in table.iter_nodes())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(table_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(table_kinds=("bogus",))
        with pytest.raises(ValueError):
            FaultConfig(table_kinds=())


class TestFaultInjectorRaysAndGeometry:
    def test_perturb_rays_is_deterministic_and_logged(self, small_workload):
        rays = small_workload.rays
        batches = []
        for _ in range(2):
            injector = FaultInjector(FaultConfig(seed=5, ray_rate=0.2))
            batches.append(injector.perturb_rays(rays))
        np.testing.assert_array_equal(
            batches[0].origins, batches[1].origins
        )
        np.testing.assert_array_equal(
            batches[0].directions, batches[1].directions
        )
        # The original batch is untouched.
        assert np.isfinite(rays.origins).all()

    def test_perturbed_rays_fail_validation(self, small_workload):
        injector = FaultInjector(FaultConfig(seed=5, ray_rate=0.3))
        bad = injector.perturb_rays(small_workload.rays)
        filtered, report = bad.validate(mode="filter")
        assert not report.ok
        assert len(filtered) == len(bad) - report.num_invalid
        # Everything that survived is clean.
        _, recheck = filtered.validate(mode="report")
        assert recheck.ok

    def test_degrade_mesh_builds_and_traces(self, small_scene):
        injector = FaultInjector(FaultConfig(seed=9, geometry_rate=0.1))
        degraded = injector.degrade_mesh(small_scene.mesh)
        assert len(degraded) == len(small_scene.mesh)
        assert any(r.surface == "geometry" for r in injector.log)
        bvh = build_bvh(degraded, validate=True)
        ray_batch = generate_ao_workload(
            small_scene, bvh, width=6, height=6, spp=1, seed=2
        ).rays
        for ray in ray_batch:
            occlusion_any_hit(bvh, ray)  # must not raise


class TestSpeculationGuards:
    def test_predictor_drops_out_of_range_nodes(self, small_bvh):
        pred = RayPredictor(small_bvh, PredictorConfig())
        pred.table.update(123, 1)
        # Corrupt the only stored node to an out-of-range index.
        set_index, way = pred.table.occupied_slots()[0]
        pred.table.corrupt_node(set_index, way, 0, small_bvh.num_nodes + 7)
        assert pred.predict(123) is None
        assert pred.guards.invalid_nodes_dropped == 1
        assert pred.guards.predictions_rejected == 1

    def test_predictor_keeps_valid_nodes(self, small_bvh):
        pred = RayPredictor(small_bvh, PredictorConfig())
        pred.table.update(123, 1)
        assert pred.predict(123) == [1]
        assert pred.guards.total_guard_events == 0

    def test_train_with_invalid_triangle_is_dropped(self, small_bvh):
        pred = RayPredictor(small_bvh, PredictorConfig())
        assert pred.train(1, small_bvh.num_triangles + 5) == -1
        assert pred.train(1, -3) == -1
        assert pred.guards.invalid_training_dropped == 2
        assert pred.table.stats.updates == 0
        assert pred.trained_node_for(-1) == -1

    def test_traversal_rejects_bad_start_nodes(self, small_bvh, small_workload):
        ray = small_workload.rays[0]
        for bad in ([small_bvh.num_nodes], [-1], [0, 10**9]):
            with pytest.raises(TraversalError) as info:
                occlusion_any_hit_tri(small_bvh, ray, start_nodes=bad)
            err = info.value
            assert err.num_nodes == small_bvh.num_nodes
            assert err.bad_nodes
            assert exit_code_for(err) == EXIT_TRAVERSAL

    def test_traversal_accepts_valid_start_nodes(self, small_bvh, small_workload):
        ray = small_workload.rays[0]
        full = occlusion_any_hit_tri(small_bvh, ray, start_nodes=[0])
        assert full == occlusion_any_hit_tri(small_bvh, ray)


class TestWatchdog:
    def test_cycle_cap_fires_with_diagnostics(self, small_bvh, small_workload):
        config = GPUConfig(watchdog_cycles=10)
        with pytest.raises(SimulationStallError) as info:
            simulate_workload(small_bvh, small_workload.rays, config)
        err = info.value
        assert err.cycles > 10
        assert err.diagnostics["total_rays"] > 0
        assert "retired" in str(err)
        assert exit_code_for(err) == EXIT_WATCHDOG

    def test_generous_cap_does_not_fire(self, small_bvh, small_workload):
        rays = small_workload.rays.subset(np.arange(64))
        config = GPUConfig(watchdog_cycles=50_000_000)
        out = simulate_workload(small_bvh, rays, config)
        assert out.rays == 64
        assert out.guard_restarts == 0


class TestDifferentialOracle:
    def test_invariant_holds_under_table_faults(self, small_bvh, small_workload):
        report = run_differential_oracle(
            small_bvh,
            small_workload.rays,
            fault_config=FaultConfig(seed=1, table_rate=0.3),
            in_flight=16,
            scene="small",
        )
        assert report.ok
        assert report.faults_injected > 0
        assert report.num_rays == len(small_workload.rays)
        report.raise_on_mismatch()  # no-op when clean
        assert "OK" in report.summary()

    def test_invariant_holds_with_ray_perturbation(self, small_bvh, small_workload):
        report = run_differential_oracle(
            small_bvh,
            small_workload.rays,
            fault_config=FaultConfig(seed=2, table_rate=0.3, ray_rate=0.1),
            in_flight=16,
            perturb_rays=True,
            scene="small+rays",
        )
        assert report.ok
        assert report.rays_filtered > 0

    def test_mismatch_raises_structured_error(self):
        from repro.faults.oracle import DifferentialReport

        report = DifferentialReport(
            scene="x", num_rays=10, rays_filtered=0, faults_injected=1,
            guard_drops=0, guard_fallbacks=0, predicted=1, verified=0,
            mismatches=[3, 7],
        )
        assert not report.ok
        with pytest.raises(OracleMismatchError) as info:
            report.raise_on_mismatch()
        assert info.value.mismatched_rays == [3, 7]
        assert exit_code_for(info.value) == EXIT_ORACLE

    def test_faulty_predictor_in_timing_simulator(self, small_bvh, small_workload):
        """The corrupted-table proxy also drops into the GPU timing model."""
        rays = small_workload.rays
        config = PredictorConfig(origin_bits=3, direction_bits=2)
        predictor = FaultyPredictor(
            RayPredictor(small_bvh, config),
            FaultInjector(FaultConfig(seed=4, table_rate=0.5)),
        )
        # One resident warp per SM: rays retire and train the table
        # before later warps look it up, so the per-ray lookups hit.
        gpu = GPUConfig(predictor=config, rt_unit=RTUnitConfig(max_warps=1))
        out = simulate_workload(
            small_bvh, rays, gpu, predictors=[predictor, predictor]
        )
        baseline = simulate_workload(small_bvh, rays, gpu.baseline())
        assert out.predicted_rate > 0
        assert predictor.injector.log
        assert out.hit_rate == baseline.hit_rate

    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_acceptance_all_seven_scenes(self, code):
        """Acceptance criterion: >= 10% corruption, bit-identical occlusion."""
        scene = get_scene(code, detail=0.2)
        bvh = build_bvh(scene.mesh, validate=True)
        rays = generate_ao_workload(
            scene, bvh, width=16, height=16, spp=1, seed=3
        ).rays
        rays = rays.subset(np.arange(min(300, len(rays))))
        report = run_differential_oracle(
            bvh,
            rays,
            fault_config=FaultConfig(seed=11, table_rate=0.15),
            in_flight=16,
            scene=code,
        )
        assert report.ok, report.summary()
        assert report.faults_injected > 0


class TestOracleProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=0.1, max_value=0.9),
        in_flight=st.sampled_from([1, 8, 64]),
    )
    def test_randomized_fault_schedules_preserve_occlusion(
        self, seed, rate, in_flight
    ):
        """Property: any seedable fault schedule leaves occlusion intact."""
        scene = get_scene("FR", detail=0.15)
        bvh = build_bvh(scene.mesh)
        rays = generate_ao_workload(
            scene, bvh, width=8, height=8, spp=1, seed=1
        ).rays
        report = run_differential_oracle(
            bvh,
            rays,
            fault_config=FaultConfig(seed=seed, table_rate=rate),
            in_flight=in_flight,
            scene=f"FR/seed{seed}",
        )
        assert report.ok, report.summary()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_guarded_lookup_never_returns_invalid(self, seed):
        """Property: predict() output is always in-range, whatever the faults."""
        scene = get_scene("SP", detail=0.15)
        bvh = build_bvh(scene.mesh)
        pred = RayPredictor(bvh, PredictorConfig())
        injector = FaultInjector(FaultConfig(seed=seed, table_rate=1.0), bvh.num_nodes)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            pred.table.update(int(rng.integers(1 << 15)), int(rng.integers(bvh.num_nodes)))
            injector.corrupt_table_once(pred.table)
            nodes = pred.predict(int(rng.integers(1 << 15)))
            if nodes:
                assert all(0 <= n < bvh.num_nodes for n in nodes)
