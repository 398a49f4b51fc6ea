"""Unit tests for the functional predictor simulation."""

import dataclasses

import pytest

from repro.core import PredictorConfig, simulate_predictor
from repro.core.simulate import PredictionOutcome


CFG = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)


class TestSimulationBasics:
    @pytest.fixture(scope="class")
    def result(self, small_bvh, small_workload):
        return simulate_predictor(
            small_bvh, small_workload.rays, CFG, keep_outcomes=True
        )

    def test_ray_accounting(self, result, small_workload):
        assert result.num_rays == len(small_workload)
        assert 0 <= result.verified <= result.predicted <= result.num_rays
        assert result.verified <= result.hits

    def test_rates_consistent(self, result):
        assert result.predicted_rate == result.predicted / result.num_rays
        assert result.verified_rate == result.verified / result.num_rays
        assert 0.0 <= result.hit_rate <= 1.0

    def test_some_predictions_happen(self, result):
        # The workload has thousands of rays; the table must train.
        assert result.predicted > 0
        assert result.verified > 0

    def test_outcomes_consistent_with_totals(self, result):
        outcomes = result.outcomes
        assert len(outcomes) == result.num_rays
        assert sum(o.predicted for o in outcomes) == result.predicted
        assert sum(o.verified for o in outcomes) == result.verified
        assert sum(o.node_fetches for o in outcomes) == result.predictor_node_fetches

    def test_verified_rays_skip_full_traversal(self, result):
        for o in result.outcomes:
            if o.verified:
                assert o.full_node_fetches == 0
                assert o.full_tri_fetches == 0
                assert o.hit

    def test_mispredicted_pay_both(self, result):
        mispredicted = [o for o in result.outcomes if o.predicted and not o.verified]
        assert mispredicted, "expected some mispredictions"
        for o in mispredicted:
            assert o.verify_node_fetches + o.verify_tri_fetches > 0 or o.predicted_nodes
            # The recovery traversal ran (unless the ray misses everything
            # instantly, it fetches something).
        total_mis = sum(o.verify_node_fetches for o in mispredicted)
        assert result.misprediction_node_fetches == total_mis

    def test_unpredicted_have_no_verify_cost(self, result):
        for o in result.outcomes:
            if not o.predicted:
                assert o.verify_node_fetches == 0
                assert o.predicted_nodes == 0

    def test_baseline_counts_positive(self, result):
        assert result.baseline_node_fetches > 0
        assert result.baseline_accesses >= result.baseline_node_fetches

    def test_table_traffic(self, result):
        assert result.table_lookups == result.num_rays
        assert result.table_updates == result.hits


class TestConcurrencyWindow:
    def test_window_one_is_most_informed(self, small_bvh, small_workload):
        # Immediate updates (in_flight=1) can only help prediction.
        delayed = simulate_predictor(small_bvh, small_workload.rays, CFG, in_flight=256)
        immediate = simulate_predictor(small_bvh, small_workload.rays, CFG, in_flight=1)
        assert immediate.predicted >= delayed.predicted * 0.9

    def test_invalid_window_raises(self, small_bvh, small_workload):
        with pytest.raises(ValueError):
            simulate_predictor(small_bvh, small_workload.rays, CFG, in_flight=0)

    def test_deterministic(self, small_bvh, small_workload):
        a = simulate_predictor(small_bvh, small_workload.rays, CFG)
        b = simulate_predictor(small_bvh, small_workload.rays, CFG)
        assert a.predictor_node_fetches == b.predictor_node_fetches
        assert a.verified == b.verified


#: Statistics shared by every pinned case: same rays, same baseline.
_PIN_COMMON = dict(
    num_rays=512, hits=295,
    baseline_node_fetches=5132, baseline_tri_fetches=3137,
    table_lookups=512, table_updates=295, guard_fallbacks=0,
)
#: (predicted, verified, predictor node/tri fetches, misprediction
#: node/tri fetches) per (table entries, node policy, in_flight), as
#: computed by the per-entry table.  At 1024 entries the table never
#: fills, so node eviction tells the policies apart; at 32 entries sets
#: evict entries, so the order of a window's trains shows.
_PINNED = {
    (1024, "lru", 1): (247, 82, 5184, 3471, 388, 348),
    (1024, "lru", 8): (219, 68, 5201, 3431, 352, 308),
    (1024, "lru", 256): (42, 14, 5113, 3161, 46, 28),
    (1024, "lfu", 1): (247, 82, 5186, 3471, 390, 348),
    (1024, "lfu", 8): (219, 68, 5203, 3431, 354, 308),
    (1024, "lfu", 256): (42, 14, 5113, 3161, 46, 28),
    (1024, "lru-k", 1): (247, 82, 5186, 3471, 390, 348),
    (1024, "lru-k", 8): (219, 68, 5203, 3431, 354, 308),
    (1024, "lru-k", 256): (42, 14, 5113, 3161, 46, 28),
    (32, "lru", 1): (192, 67, 5110, 3371, 270, 248),
    (32, "lru", 8): (162, 51, 5159, 3327, 243, 204),
    (32, "lru", 256): (35, 9, 5134, 3161, 43, 28),
}


class TestPinnedStatistics:
    """Every counter of the default (wavefront) engine, pinned exactly."""

    @pytest.mark.parametrize("entries,policy,in_flight", sorted(_PINNED))
    def test_statistics(self, small_bvh, small_workload, entries, policy,
                        in_flight):
        config = CFG.with_overrides(
            num_entries=entries, nodes_per_entry=2, node_policy=policy
        )
        result = simulate_predictor(
            small_bvh, small_workload.rays, config, in_flight=in_flight
        )
        got = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.name != "outcomes"
        }
        varying = dict(zip(
            ("predicted", "verified",
             "predictor_node_fetches", "predictor_tri_fetches",
             "misprediction_node_fetches", "misprediction_tri_fetches"),
            _PINNED[entries, policy, in_flight],
        ))
        assert got == {**_PIN_COMMON, **varying}


class TestSavingsMetrics:
    def test_memory_savings_definition(self, small_bvh, small_workload):
        result = simulate_predictor(small_bvh, small_workload.rays, CFG)
        expected = 1.0 - result.predictor_accesses / result.baseline_accesses
        assert abs(result.memory_savings - expected) < 1e-12

    def test_nodes_skipped_per_ray(self, small_bvh, small_workload):
        result = simulate_predictor(small_bvh, small_workload.rays, CFG)
        per_ray = result.nodes_skipped_per_ray()
        direct = (
            result.baseline_node_fetches - result.predictor_node_fetches
        ) / result.num_rays
        assert abs(per_ray - direct) < 1e-12


class TestPredictionOutcome:
    def test_fetch_totals(self):
        o = PredictionOutcome(
            verify_node_fetches=2, verify_tri_fetches=3,
            full_node_fetches=5, full_tri_fetches=7,
        )
        assert o.node_fetches == 7
        assert o.tri_fetches == 10
