"""Differential tests: the vectorized RT-unit vs the scalar oracle.

The vectorized engine (:mod:`repro.gpu.vec_rt_unit`) is a performance
rewrite, not a remodel: it must produce the *same* :class:`RTUnitResult`
as the scalar stepper kept in :mod:`repro.reference` — cycle counts,
every fetch/test counter, and the cache/DRAM statistics — for any
configuration.  These tests pin that contract on the shared test scene
across config variants, plus a Hypothesis property over small warp
shapes, on a registry scene at the Figure 12 shape, where the
predictor verifies and mispredicts, and on all seven registry scenes at
a wide-SIMT shape (one 1024-thread warp per SM, iteration barrier).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    build_bvh,
    generate_ao_workload,
    get_scene,
    morton_sort_rays,
    reference,
)
from repro.analysis.experiments import scaled_gpu_config, scaled_predictor_config
from repro.bvh.nodes import FlatBVH
from repro.core import PredictorConfig, RayPredictor
from repro.core.baseline import baseline_cache_info, clear_baseline_cache
from repro.errors import TraversalError
from repro.faults import FaultConfig, FaultInjector, FaultyPredictor
from repro.gpu import (
    GPUConfig,
    MemoryHierarchy,
    VectorRTUnit,
    simulate_workload,
)
from repro.gpu.config import CacheConfig, MemoryConfig, RTUnitConfig
from repro.gpu.rt_unit import _RESTART_SENTINEL
from repro.scenes import SCENE_CODES
from repro.trace import dfs

PC = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)

#: The RT unit each engine label builds: production and its oracle.
UNITS = {"vector": VectorRTUnit, "scalar": reference.RTUnit}


def run_engine(engine, bvh, rays, predictor_config=None, predictor=None,
               **gpu_overrides):
    config = GPUConfig(num_sms=1, predictor=predictor_config, **gpu_overrides)
    memory = MemoryHierarchy(config.memory)
    unit = UNITS[engine](bvh, config, memory, predictor=predictor)
    return unit.run(rays)


class UnguardedPredictor(FaultyPredictor):
    """A per-ray predictor whose lookups skip the range guard.

    Corrupted (out-of-range or negative) table nodes reach the RT unit's
    speculative stack, so the stack-pop guard has to restart the ray.
    """

    predict = FaultyPredictor.predict_raw


class FixedPredictor:
    """A per-ray predictor double that predicts ``nodes`` for every ray."""

    def __init__(self, bvh, config, nodes):
        self.inner = RayPredictor(bvh, config)
        self.nodes = nodes

    def predict(self, ray_hash):
        return list(self.nodes)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def run_both(bvh, rays, predictor_config=None, **gpu_overrides):
    return tuple(
        run_engine(engine, bvh, rays, predictor_config, **gpu_overrides)
        for engine in ("scalar", "vector")
    )


class TestEngineEquivalence:
    """Scalar and vector engines agree on the full result dataclass."""

    def test_baseline_identical(self, small_bvh, small_workload):
        scalar, vector = run_both(small_bvh, small_workload.rays)
        assert scalar == vector

    def test_predictor_identical(self, small_bvh, small_workload):
        scalar, vector = run_both(small_bvh, small_workload.rays, PC)
        assert scalar == vector

    def test_predictor_no_repack_identical(self, small_bvh, small_workload):
        scalar, vector = run_both(
            small_bvh, small_workload.rays, PC.with_overrides(repack=False)
        )
        assert scalar == vector

    def test_warp_barrier_identical(self, small_bvh, small_workload):
        scalar, vector = run_both(
            small_bvh, small_workload.rays,
            rt_unit=RTUnitConfig(warp_barrier=True),
        )
        assert scalar == vector

    # 512 lanes make wide steps, with hundreds of lines each.
    @pytest.mark.parametrize("warp_size", [8, 32, 128, 512])
    def test_warp_sizes_identical(self, small_bvh, small_workload, warp_size):
        scalar, vector = run_both(
            small_bvh, small_workload.rays, PC,
            rt_unit=RTUnitConfig(warp_size=warp_size),
        )
        assert scalar == vector

    def test_tiny_caches_identical(self, small_bvh, small_workload):
        # Thrashing caches exercise the DRAM/bank-timing paths hard.
        memory = MemoryConfig(
            l1=CacheConfig(size_bytes=512, ways=2),
            l2=CacheConfig(size_bytes=2048, ways=2),
        )
        scalar, vector = run_both(
            small_bvh, small_workload.rays, PC, memory=memory
        )
        assert scalar == vector

    def test_tiny_stack_spills_identical(self, small_bvh, small_workload):
        scalar, vector = run_both(
            small_bvh, small_workload.rays,
            rt_unit=RTUnitConfig(stack_entries=4),
        )
        assert scalar == vector
        assert scalar.stack_spills > 0

    def test_tiny_stack_spills_with_predictor_identical(
        self, small_bvh, small_workload
    ):
        # Verification pops spill at the speculative stack's depth (the
        # restart sentinel and unpopped predictions count), not at the
        # depth the same nodes have in a traversal from the root.
        scalar, vector = run_both(
            small_bvh, small_workload.rays, PC,
            rt_unit=RTUnitConfig(stack_entries=4),
        )
        assert scalar == vector
        assert scalar.stack_spills > 0
        assert scalar.verified > 0

    def test_empty_leaves_identical(self, small_bvh, small_workload):
        # A leaf without triangles requests no lines; its thread waits
        # for the step's default completion instead.
        tri_count = small_bvh.tri_count.copy()
        tri_count[np.nonzero(small_bvh.left < 0)[0][::3]] = 0
        bvh = FlatBVH(
            small_bvh.lo, small_bvh.hi, small_bvh.left, small_bvh.right,
            small_bvh.first_tri, tri_count, small_bvh.parent, small_bvh.mesh,
            small_bvh.tri_indices,
        )
        scalar, vector = run_both(bvh, small_workload.rays, PC)
        assert scalar == vector
        assert scalar.hits > 0

    def test_guard_restarts_identical(self, small_bvh, small_workload):
        # One warp of 8 resident: rays retire and train the table before
        # later warps look it up, and half the lookups corrupt an entry.
        scalar, vector = (
            run_engine(
                engine, small_bvh, small_workload.rays, PC,
                predictor=UnguardedPredictor(
                    RayPredictor(small_bvh, PC),
                    FaultInjector(FaultConfig(
                        seed=5, table_rate=0.5,
                        table_kinds=("out_of_range", "negative"),
                    )),
                ),
                rt_unit=RTUnitConfig(warp_size=8, max_warps=1),
            )
            for engine in ("scalar", "vector")
        )
        assert scalar == vector
        assert scalar.guard_restarts > 0
        assert scalar.verified > 0

    def test_sentinel_valued_prediction_identical(self, small_bvh, small_workload):
        # A predicted node equal to the restart sentinel pops first and
        # restarts from the root with the rest of the speculative stack
        # still below: no later hit verifies, and a ray whose root pass
        # misses pops the remaining prediction and restarts again.
        restart_first = [_RESTART_SENTINEL, small_bvh.num_nodes - 1]
        scalar, vector = (
            run_engine(
                engine, small_bvh, small_workload.rays, PC,
                predictor=FixedPredictor(small_bvh, PC, restart_first),
            )
            for engine in ("scalar", "vector")
        )
        assert scalar == vector
        assert scalar.predicted == scalar.rays
        assert scalar.verified == 0

        then_invalid = [_RESTART_SENTINEL, small_bvh.num_nodes + 5]
        errors = []
        for engine in ("scalar", "vector"):
            with pytest.raises(TraversalError) as info:
                run_engine(
                    engine, small_bvh, small_workload.rays, PC,
                    predictor=FixedPredictor(small_bvh, PC, then_invalid),
                )
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @given(
        warp_size=st.integers(min_value=2, max_value=24),
        max_warps=st.integers(min_value=1, max_value=3),
        warp_barrier=st.booleans(),
        coalesce_window=st.sampled_from([0, 1, 4, 32]),
        n_rays=st.integers(min_value=1, max_value=48),
    )
    def test_property_small_warp_configs(
        self, small_bvh, small_workload, warp_size, max_warps, warp_barrier,
        coalesce_window, n_rays,
    ):
        rays = small_workload.rays.subset(range(n_rays))
        scalar, vector = run_both(
            small_bvh, rays, PC,
            rt_unit=RTUnitConfig(
                warp_size=warp_size,
                max_warps=max_warps,
                warp_barrier=warp_barrier,
                coalesce_window=coalesce_window,
            ),
        )
        assert scalar == vector


class TestPaperRegime:
    """The engines agree where the paper's mechanism is active.

    LR at a Figure 12 shape: 32-lane warps, the scaled configuration's
    2 SMs sharing an L2, AO rays in the unsorted and the Morton-sorted
    order.  The predictor verifies rays and pays for mispredictions,
    so equality here covers the verification paths.  Cycle counts are
    pinned as the scalar oracle computes them.
    """

    @pytest.fixture(scope="class")
    def lr(self):
        scene = get_scene("LR", detail=1.0)
        bvh = build_bvh(scene.mesh)
        rays = generate_ao_workload(
            scene, bvh, width=16, height=16, spp=4, seed=1
        ).rays
        return bvh, {"unsorted": rays, "sorted": rays.subset(morton_sort_rays(rays))}

    @pytest.mark.parametrize(
        "order, predictor, cycles",
        [
            ("unsorted", False, 2661),
            ("unsorted", True, 2511),
            ("sorted", False, 2939),
            ("sorted", True, 2351),
        ],
    )
    def test_engines_agree(self, lr, order, predictor, cycles):
        bvh, batches = lr
        config = scaled_gpu_config(scaled_predictor_config() if predictor else None)
        assert config.num_sms == 2
        assert config.rt_unit.warp_size == 32
        vector = simulate_workload(bvh, batches[order], config)
        scalar = reference.simulate_workload(bvh, batches[order], config)
        assert vector.per_sm == scalar.per_sm
        assert vector.cycles == cycles
        if predictor:
            assert sum(r.verified for r in vector.per_sm) > 0
            assert sum(r.misprediction_node_fetches for r in vector.per_sm) > 0

    @pytest.mark.parametrize("predictor", [False, True], ids=["base", "pred"])
    def test_root_chunk_seams(self, lr, monkeypatch, predictor):
        # Root traces are built in launches of 64 rays here, so each SM
        # run spans several launches and ends in a partial one.  The
        # cleared memo makes the runs trace them instead of copying.
        monkeypatch.setattr(dfs, "_ROOT_CHUNK", 64)
        clear_baseline_cache()
        bvh, batches = lr
        rays = batches["unsorted"].subset(np.arange(968))
        config = scaled_gpu_config(scaled_predictor_config() if predictor else None)
        vector = simulate_workload(bvh, rays, config)
        assert baseline_cache_info()["root_trace_misses"] == 2
        scalar = reference.simulate_workload(bvh, rays, config)
        assert [r.rays for r in vector.per_sm] == [488, 480]
        assert vector.per_sm == scalar.per_sm
        if predictor:
            assert config.predictor.repack
            assert sum(r.verified for r in vector.per_sm) > 0


class TestRootTraceMemo:
    """Root traces are memoized per (tree, ray batch, trace costs).

    A run that copies its root records from the memo must equal a run
    that traces them and the reference stepper.
    """

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_baseline_cache()
        yield
        clear_baseline_cache()

    def test_hit_equals_cold_run_and_reference(self, small_bvh, small_workload):
        # The Figure 12 pattern: baseline, then predictor, on one batch;
        # each of the two SMs' batches is traced once.
        rays = small_workload.rays
        config = GPUConfig(num_sms=2, predictor=PC, rt_unit=RTUnitConfig(warp_size=8))
        simulate_workload(small_bvh, rays, replace(config, predictor=None))
        warm = simulate_workload(small_bvh, rays, config)
        info = baseline_cache_info()
        assert (info["root_trace_misses"], info["root_trace_hits"]) == (2, 2)
        clear_baseline_cache()
        cold = simulate_workload(small_bvh, rays, config)
        assert baseline_cache_info()["root_trace_hits"] == 0
        assert warm.per_sm == cold.per_sm
        assert warm.per_sm == reference.simulate_workload(
            small_bvh, rays, config
        ).per_sm
        assert sum(r.verified for r in warm.per_sm) > 0

    def test_one_trace_per_sm(self, small_bvh, small_workload):
        # The Section 6.2.5 pattern at four SMs: the memo keeps every
        # SM's batch, so the predictor run copies all four.
        rays = small_workload.rays
        config = GPUConfig(num_sms=4, predictor=PC, rt_unit=RTUnitConfig(warp_size=8))
        simulate_workload(small_bvh, rays, replace(config, predictor=None))
        warm = simulate_workload(small_bvh, rays, config)
        info = baseline_cache_info()
        assert (info["root_trace_misses"], info["root_trace_hits"]) == (4, 4)
        assert info["root_traces"] == 4
        clear_baseline_cache()
        cold = simulate_workload(small_bvh, rays, config)
        assert baseline_cache_info()["root_trace_hits"] == 0
        assert warm.per_sm == cold.per_sm
        assert sum(r.verified for r in warm.per_sm) > 0

    @pytest.mark.parametrize(
        "field, value",
        [("box_test_latency", 5), ("tri_test_latency", 7),
         ("stack_entries", 6), ("stack_spill_penalty", 11)],
    )
    def test_each_trace_cost_keys_the_memo(
        self, small_bvh, small_workload, field, value
    ):
        # A 4-entry stack spills, so the spill penalty shows in cycles.
        rays = small_workload.rays
        base = RTUnitConfig(stack_entries=4)
        changed = replace(base, **{field: value})
        first = run_engine("vector", small_bvh, rays, PC, rt_unit=base)
        warm = run_engine("vector", small_bvh, rays, PC, rt_unit=changed)
        info = baseline_cache_info()
        assert (info["root_trace_misses"], info["root_trace_hits"]) == (2, 0)
        clear_baseline_cache()
        cold = run_engine("vector", small_bvh, rays, PC, rt_unit=changed)
        assert warm == cold
        assert cold != first

    def test_clear_empties_memo(self, small_bvh, small_workload):
        run_engine("vector", small_bvh, small_workload.rays)
        run_engine("vector", small_bvh, small_workload.rays)
        info = baseline_cache_info()
        assert (info["root_traces"], info["root_trace_hits"]) == (1, 1)
        clear_baseline_cache()
        info = baseline_cache_info()
        assert (info["root_traces"], info["root_trace_hits"],
                info["root_trace_misses"]) == (0, 0, 0)
        run_engine("vector", small_bvh, small_workload.rays)
        assert baseline_cache_info()["root_trace_misses"] == 1


class TestDeferredVerification:
    """Verification traces wait for the first step that needs one.

    That step traces every queued ray in one launch.  With a table
    trained by an earlier run, every source warp admitted at cycle 0 has
    predicted rays, so the first launch spans all of them.
    """

    @pytest.mark.parametrize("repack", [True, False], ids=["repack", "in_place"])
    def test_flush_spanning_source_warps_equals_reference(
        self, small_bvh, small_workload, monkeypatch, repack
    ):
        launches = []
        verify = VectorRTUnit._verify

        def recording(unit, st):
            launches.append(sorted(st.queue))
            verify(unit, st)

        monkeypatch.setattr(VectorRTUnit, "_verify", recording)
        config = PC.with_overrides(repack=repack)
        results = {}
        for engine in ("scalar", "vector"):  # launches: the vector's 2nd run
            predictor = RayPredictor(small_bvh, config)
            run_engine(engine, small_bvh, small_workload.rays, config,
                       predictor=predictor)
            launches.clear()
            results[engine] = run_engine(
                engine, small_bvh, small_workload.rays, config,
                predictor=predictor,
            )
        assert results["vector"] == results["scalar"]
        assert results["vector"].verified > 0
        assert results["vector"].misprediction_node_fetches > 0
        warps = [{r // 32 for r in rays} for rays in launches]
        assert len(warps[0]) > 1
        # Each predicted ray is traced once.
        traced = [r for rays in launches for r in rays]
        assert len(traced) == len(set(traced)) == results["vector"].predicted


class TestDeterminism:
    """Same seed + config ⇒ bit-identical runs, per engine and across."""

    @pytest.mark.parametrize("engine", UNITS)
    def test_repeat_runs_identical(self, small_bvh, small_workload, engine):
        a = run_engine(engine, small_bvh, small_workload.rays, PC)
        b = run_engine(engine, small_bvh, small_workload.rays, PC)
        assert a == b

    def test_simulate_workload_engines_agree(self, small_bvh, small_workload):
        config = GPUConfig(num_sms=2, predictor=PC)
        vec = simulate_workload(small_bvh, small_workload.rays, config)
        sca = reference.simulate_workload(small_bvh, small_workload.rays, config)
        assert vec.per_sm == sca.per_sm
        assert vec.cycles == sca.cycles
        assert vec.dram_row_hits == sca.dram_row_hits


#: Wide-SIMT shape: 2 SMs, one 1024-thread warp each, iteration barrier.
WIDE_SIMT = dict(
    num_sms=2,
    rt_unit=RTUnitConfig(warp_size=1024, max_warps=1, warp_barrier=True),
)


@pytest.fixture(scope="module")
def registry_workloads():
    """The first 2048 AO rays of each registry scene (detail 0.6, 32x32x2)."""
    out = {}
    for code in SCENE_CODES:
        scene = get_scene(code, detail=0.6)
        bvh = build_bvh(scene.mesh)
        rays = generate_ao_workload(
            scene, bvh, width=32, height=32, spp=2, seed=1
        ).rays
        out[code] = (bvh, rays.subset(np.arange(min(2048, len(rays)))))
    return out


class TestRegistryScenes:
    @pytest.mark.parametrize("predictor", [False, True], ids=["base", "pred"])
    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_per_sm_results_equal(self, registry_workloads, code, predictor):
        bvh, rays = registry_workloads[code]
        config = GPUConfig(
            predictor=PredictorConfig() if predictor else None, **WIDE_SIMT
        )
        vector = simulate_workload(bvh, rays, config)
        scalar = reference.simulate_workload(bvh, rays, config)
        assert vector.per_sm == scalar.per_sm
        assert vector.rays == len(rays)
