"""Unit tests for the functional predictor simulation."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import scaled_predictor_config
from repro.bvh import build_bvh
from repro.core import PredictorConfig, RayPredictor, simulate_predictor
from repro.core.baseline import baseline_record
from repro.core.simulate import (
    DEFAULT_IN_FLIGHT,
    PredictionOutcome,
    SimulationResult,
)
from repro.faults import FaultConfig, FaultInjector, FaultyPredictor
from repro.rays import generate_ao_workload
from repro.scenes import SCENE_CODES, get_scene
from repro.trace.wavefront import wavefront_verify_batch

CFG = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


def window_loop_oracle(
    bvh, rays, config=None, in_flight=DEFAULT_IN_FLIGHT, keep_outcomes=False,
    predictor=None,
):
    """The plain window loop: one verification batch per window.

    ``simulate_predictor`` as it was before it speculated, verbatim minus
    its telemetry calls.  Production must equal it exactly: the result,
    and every call the predictor receives.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")
    pred = predictor if predictor is not None else RayPredictor(bvh, config)
    hashes = pred.hash_batch(rays.origins, rays.directions)

    n = len(rays)
    base = baseline_record(bvh, rays, "wavefront")

    predicted = np.zeros(n, dtype=bool)
    verified = np.zeros(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    predicted_nodes = np.zeros(n, dtype=np.int64)
    verify_nf = np.zeros(n, dtype=np.int64)
    verify_tf = np.zeros(n, dtype=np.int64)
    full_nf = np.zeros(n, dtype=np.int64)
    full_tf = np.zeros(n, dtype=np.int64)
    guard_fallbacks = 0

    for start in range(0, n, in_flight):
        stop = min(start + in_flight, n)
        w = slice(start, stop)
        sub = rays.subset(np.arange(start, stop))
        whashes = hashes[start:stop].tolist()

        seeds = [pred.predict(h) for h in whashes]
        counts = [len(nodes) if nodes else 0 for nodes in seeds]
        predicted_nodes[w] = counts
        predicted[w] = predicted_nodes[w] > 0

        ver_tri, ver_counts, guard_mask = wavefront_verify_batch(
            bvh, sub, seeds
        )
        guard_fallbacks += int(np.count_nonzero(guard_mask))
        win_verified = ver_tri >= 0
        verified[w] = win_verified
        verify_nf[w] = ver_counts.node_fetches
        verify_tf[w] = ver_counts.tri_fetches

        # Fallback for unverified rays (misprediction restart or no
        # prediction) served from the memoized whole-stream baseline.
        win_hit_tri = np.where(win_verified, ver_tri, base.hit_tri[w])
        full_nf[w] = np.where(win_verified, 0, base.node_fetches[w])
        full_tf[w] = np.where(win_verified, 0, base.tri_fetches[w])
        hit[w] = win_hit_tri >= 0

        # Policy feedback: these stored nodes were useful.
        for j in np.flatnonzero(win_verified).tolist():
            pred.confirm(whashes[j], pred.trained_node_for(int(ver_tri[j])))

        # Updates from this window commit only after the window drains.
        for j in np.flatnonzero(win_hit_tri >= 0).tolist():
            pred.train(whashes[j], int(win_hit_tri[j]))

    mis_mask = predicted & ~verified
    outcomes = None
    if keep_outcomes:
        outcomes = [
            PredictionOutcome(
                predicted=bool(predicted[i]),
                verified=bool(verified[i]),
                hit=bool(hit[i]),
                predicted_nodes=int(predicted_nodes[i]),
                verify_node_fetches=int(verify_nf[i]),
                verify_tri_fetches=int(verify_tf[i]),
                full_node_fetches=int(full_nf[i]),
                full_tri_fetches=int(full_tf[i]),
            )
            for i in range(n)
        ]
    return SimulationResult(
        num_rays=n,
        predicted=int(predicted.sum()),
        verified=int(verified.sum()),
        hits=int(hit.sum()),
        predictor_node_fetches=int(verify_nf.sum() + full_nf.sum()),
        predictor_tri_fetches=int(verify_tf.sum() + full_tf.sum()),
        baseline_node_fetches=int(base.node_fetches.sum()),
        baseline_tri_fetches=int(base.tri_fetches.sum()),
        misprediction_node_fetches=int(verify_nf[mis_mask].sum()),
        misprediction_tri_fetches=int(verify_tf[mis_mask].sum()),
        # One lookup per ray; one update per hitting ray.
        table_lookups=n,
        table_updates=int(hit.sum()),
        outcomes=outcomes,
        guard_fallbacks=guard_fallbacks,
    )


class RecordingPredictor:
    """Forwards to a predictor and logs every probe call, in order.

    Each entry holds the call's name, its arguments and what it
    returned, so two logs are equal only if the same table saw the same
    calls.
    """

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def predict(self, ray_hash):
        nodes = self.inner.predict(ray_hash)
        self.log.append(("predict", ray_hash, None if nodes is None else list(nodes)))
        return nodes

    def confirm(self, ray_hash, node):
        self.log.append(("confirm", ray_hash, node))
        self.inner.confirm(ray_hash, node)

    def train(self, ray_hash, hit_tri):
        node = self.inner.train(ray_hash, hit_tri)
        self.log.append(("train", ray_hash, hit_tri, node))
        return node

    def trained_node_for(self, hit_tri):
        node = self.inner.trained_node_for(hit_tri)
        self.log.append(("trained_node_for", hit_tri, node))
        return node

    def __getattr__(self, name):
        return getattr(self.inner, name)


class RawPredictor(RayPredictor):
    """A predictor whose lookups skip the range guard: corrupted table
    nodes reach verification, whose own guard must catch them."""

    def predict(self, ray_hash):
        return self.table.lookup(ray_hash)


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


#: Windows on both sides of the speculation rule; ``None`` is one window
#: holding the whole stream.
_WINDOWS = (1, 2, 7, 8, 64, 65, 256, None)


@st.composite
def _runs(draw):
    """A permuted subset of the fixture's AO rays, a table and a window.

    AO rays from neighbouring pixels share hashes; random rays rarely
    do, so nothing would be predicted.
    """
    size = draw(st.integers(min_value=1, max_value=512))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    keep_order = draw(st.booleans())
    ways = draw(st.integers(min_value=1, max_value=4))
    config = CFG.with_overrides(
        num_entries=ways * 2 ** draw(st.integers(min_value=0, max_value=6)),
        ways=ways,
        nodes_per_entry=draw(st.integers(min_value=1, max_value=3)),
        node_policy=draw(st.sampled_from(("lru", "lfu", "lru-k"))),
        go_up_level=draw(st.integers(min_value=0, max_value=3)),
    )
    window = draw(st.sampled_from(_WINDOWS))
    fault_seed = draw(st.none() | st.integers(min_value=0, max_value=2**16))
    return size, seed, keep_order, config, window, fault_seed


def _warm_corrupted_predictor(bvh, rays, config):
    """A :class:`RawPredictor` trained on ``rays``, then every stored node
    pushed out of range (deterministic, so two calls build equal tables)."""
    pred = RawPredictor(bvh, config)
    window_loop_oracle(bvh, rays, in_flight=64, predictor=pred)
    table = pred.table
    for set_index, way in table.occupied_slots():
        for slot in range(len(table.entry_nodes(set_index, way))):
            table.corrupt_node(set_index, way, slot, bvh.num_nodes + 7 + slot)
    return pred


class TestSpeculationIsExact:
    """Production equals the plain window loop on every field."""

    @settings(max_examples=MAX_EXAMPLES)
    @given(run=_runs())
    def test_matches_window_loop(self, small_bvh, small_workload, run):
        size, seed, keep_order, config, window, fault_seed = run
        order = np.random.default_rng(seed).permutation(len(small_workload))
        picked = order[:size]
        if keep_order:
            picked = np.sort(picked)
        rays = small_workload.rays.subset(picked)
        in_flight = window or size

        def predictor():
            # Faults corrupt the table between lookups, so the real
            # predictions stray from the guesses.
            pred = RayPredictor(small_bvh, config)
            if fault_seed is None:
                return pred
            faults = FaultConfig(seed=fault_seed, table_rate=0.3)
            return FaultyPredictor(pred, FaultInjector(faults))

        got = simulate_predictor(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=predictor(),
        )
        want = window_loop_oracle(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=predictor(),
        )
        assert got == want

    @pytest.fixture(scope="class")
    def registry_units(self):
        units = {}
        for code in SCENE_CODES:
            scene = get_scene(code, detail=0.3)
            bvh = build_bvh(scene.mesh)
            rays = generate_ao_workload(
                scene, bvh, width=16, height=16, spp=2, seed=1
            ).rays
            units[code] = bvh, rays
        return units

    @pytest.mark.parametrize("in_flight", [1, 8, 32, 256])
    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_registry_scene(self, registry_units, code, in_flight):
        bvh, rays = registry_units[code]
        config = scaled_predictor_config()
        got = simulate_predictor(
            bvh, rays, config, in_flight=in_flight, keep_outcomes=True
        )
        want = window_loop_oracle(
            bvh, rays, config, in_flight=in_flight, keep_outcomes=True
        )
        assert got == want
        # Window 256 trains too late on ~500 rays to verify anything.
        if in_flight <= 32:
            assert want.verified > 0


class TestPredictorSeesTheWindowLoopsCalls:
    """The caller's predictor receives exactly the window loop's calls."""

    @pytest.mark.parametrize("in_flight", [1, 8, 64, 65, 256])
    def test_call_log(self, small_bvh, small_workload, in_flight):
        config = CFG.with_overrides(num_entries=32, nodes_per_entry=2)
        rays = small_workload.rays
        got = RecordingPredictor(RayPredictor(small_bvh, config))
        want = RecordingPredictor(RayPredictor(small_bvh, config))
        assert simulate_predictor(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=got,
        ) == window_loop_oracle(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=want,
        )
        assert got.log == want.log
        assert any(entry[0] == "confirm" for entry in want.log)

    @pytest.mark.parametrize("in_flight", [8, 256])
    def test_pre_warmed_table(self, small_bvh, small_workload, in_flight):
        rays = small_workload.rays
        warm = rays.subset(np.arange(len(rays))[::-1])
        got = RecordingPredictor(RayPredictor(small_bvh, CFG))
        want = RecordingPredictor(RayPredictor(small_bvh, CFG))
        for pred in (got, want):
            window_loop_oracle(small_bvh, warm, in_flight=in_flight,
                               predictor=pred)
            pred.log.clear()
        assert simulate_predictor(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=got,
        ) == window_loop_oracle(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=want,
        )
        assert got.log == want.log

    @pytest.mark.parametrize("in_flight", [8, 65])
    def test_faulty_predictor_stream(self, small_bvh, small_workload, in_flight):
        # The injector draws from its random stream on every predict, so
        # one extra or missing lookup would shift every later fault.
        def faulty():
            injector = FaultInjector(FaultConfig(seed=11, table_rate=0.3))
            return injector, RecordingPredictor(
                FaultyPredictor(RayPredictor(small_bvh, CFG), injector)
            )

        (got_faults, got), (want_faults, want) = faulty(), faulty()
        rays = small_workload.rays
        assert simulate_predictor(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=got,
        ) == window_loop_oracle(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=want,
        )
        assert got.log == want.log
        assert got_faults.log == want_faults.log and want_faults.log
        assert got.inner.guards == want.inner.guards

    @pytest.mark.parametrize("in_flight", [1, 8, 64, 256])
    def test_corrupted_entries_trip_the_verify_guard(
        self, small_bvh, small_workload, in_flight
    ):
        config = CFG.with_overrides(nodes_per_entry=2)
        rays = small_workload.rays
        got, want = (
            RecordingPredictor(_warm_corrupted_predictor(small_bvh, rays, config))
            for _ in range(2)
        )
        result = simulate_predictor(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=got,
        )
        assert result.guard_fallbacks > 0
        assert result == window_loop_oracle(
            small_bvh, rays, in_flight=in_flight, keep_outcomes=True,
            predictor=want,
        )
        assert got.log == want.log
