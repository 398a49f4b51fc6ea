"""Per-ray parity of the production and reference predictor simulations.

The production simulator (:func:`repro.core.simulate.simulate_predictor`)
batches hashing, verification and the baseline fallback; the scalar
reference (:func:`repro.reference.simulate_predictor`) runs each ray in
exact paper order.  The contract is that per-ray *occlusion* is
bit-identical on every benchmark scene.  Aggregate predicted/verified
counts may differ slightly - the reference interleaves confirms within a
window - but what each ray reports back to the renderer may not.

The workload is shaped so the comparison covers the predicted path: a
coarse origin hash and a 16-ray window make a few hundred rays per scene
hit the table, and both verified and mispredicted rays occur on every
scene.  Both simulators must actually verify and mispredict, or "the
engines agree" would say nothing about the predictor.
"""

import numpy as np
import pytest

from repro import reference
from repro.analysis.experiments import scaled_predictor_config
from repro.bvh import build_bvh
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.rays import generate_ao_workload
from repro.scenes import SCENE_CODES, get_scene
from repro.trace import trace_occlusion_batch

DETAIL = 0.3
SIZE = 16
SPP = 4
IN_FLIGHT = 16
CONFIG = scaled_predictor_config(origin_bits=3)


def _scene_rays(code):
    scene = get_scene(code, detail=DETAIL)
    bvh = build_bvh(scene.mesh, method="sah")
    workload = generate_ao_workload(
        scene, bvh, width=SIZE, height=SIZE, spp=SPP, seed=1
    )
    return bvh, workload.rays


def _hits(result):
    return np.array([o.hit for o in result.outcomes])


@pytest.mark.parametrize("code", SCENE_CODES)
def test_per_ray_occlusion_identical_across_engines(code):
    bvh, rays = _scene_rays(code)
    scalar = reference.simulate_predictor(
        bvh, rays, CONFIG, in_flight=IN_FLIGHT, keep_outcomes=True
    )
    wave = simulate_predictor(
        bvh, rays, CONFIG, in_flight=IN_FLIGHT, keep_outcomes=True
    )
    for result in (scalar, wave):
        assert result.verified > 0, f"{code}: nothing verified"
        assert result.predicted > result.verified, f"{code}: no misprediction"
    assert np.array_equal(_hits(scalar), _hits(wave)), (
        f"{code}: engines disagree on "
        f"{int((_hits(scalar) != _hits(wave)).sum())} ray(s)"
    )
    # Section 3: prediction never changes a ray's answer.  The production
    # simulator matches the no-predictor traversal at any window.
    truth = trace_occlusion_batch(bvh, rays)
    for in_flight in (1, 8, 256):
        result = simulate_predictor(
            bvh, rays, CONFIG, in_flight=in_flight, keep_outcomes=True
        )
        assert np.array_equal(_hits(result), truth), (code, in_flight)


@pytest.mark.parametrize("code", ("SB", "CK"))
def test_baseline_agrees_on_occlusion_across_engines(code):
    # Fetch *counters* are order-dependent and differ between engines
    # by design (different early-exit order); what must agree is the
    # occlusion answer, and the production baseline's counters must be
    # self-consistent with its memoized record.
    from repro.core.baseline import baseline_record

    bvh, rays = _scene_rays(code)
    base = simulate_baseline(bvh, rays)
    truth = reference.trace_occlusion_batch(bvh, rays)
    assert np.array_equal(_hits(base), truth)
    assert base.hits == int(truth.sum())
    record = baseline_record(bvh, rays, "wavefront")
    assert base.baseline_node_fetches == int(record.node_fetches.sum())
    assert base.baseline_tri_fetches == int(record.tri_fetches.sum())
