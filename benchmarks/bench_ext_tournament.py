"""Extension (paper Section 4.2 future work): combining hash functions.

The paper: "We leave the discovery of other hash functions, along with
more sophisticated hashing techniques such as combining multiple hash
functions ... to future work."  The tournament predictor runs Grid
Spherical and Two Point tables side by side (half capacity each) with a
chooser of saturating counters, at comparable total storage.

Expected shape: the tournament engages both components and lands in the
same performance band as the best single hash (it cannot dominate at
half capacity per component, but it must not collapse either) - the
interesting research output is the comparison data itself.
"""

from repro.analysis.experiments import (
    SWEEP_SCENES,
    SWEEP_WORKLOAD,
    scaled_predictor_config,
)
from repro.analysis.stats import geometric_mean
from repro.analysis.tables import format_table
from repro.core.adaptive import TournamentPredictor
from repro.gpu import GPUConfig, simulate_workload


def _run_tournament(ctx, code, config):
    """Timing run with a TournamentPredictor per SM.

    Same GPU, shared L2 and DRAM as the ``ctx.baseline`` runs it is
    divided into; only the per-SM predictors differ.
    """
    bvh = ctx.bvh(code)
    rays = ctx.rays(code, SWEEP_WORKLOAD)
    gpu = GPUConfig(predictor=config)
    out = simulate_workload(
        bvh, rays, gpu,
        predictors=[TournamentPredictor(bvh, config) for _ in range(gpu.num_sms)],
    )
    return out.cycles, out.predicted_rate, out.verified_rate


def test_ext_tournament_hashing(benchmark, ctx, report):
    config = scaled_predictor_config()
    two_point = config.with_overrides(hash_function="two_point")

    def run():
        rows = []
        for code in SWEEP_SCENES:
            base = ctx.baseline(code, SWEEP_WORKLOAD)
            grid = ctx.predicted(code, config, SWEEP_WORKLOAD)
            tp = ctx.predicted(code, two_point, SWEEP_WORKLOAD)
            t_cycles, t_pred, t_ver = _run_tournament(ctx, code, config)
            rows.append(
                (
                    code,
                    base.cycles / grid.cycles,
                    base.cycles / tp.cycles,
                    base.cycles / t_cycles,
                    t_pred,
                    t_ver,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    geo = [geometric_mean([r[i] for r in rows]) for i in (1, 2, 3)]
    report(
        "ext_tournament",
        format_table(
            ["Scene", "Grid Spherical", "Two Point", "Tournament",
             "Tourn. predicted", "Tourn. verified"],
            [list(r) for r in rows] + [["GEOMEAN"] + geo + ["", ""]],
            title="Extension: tournament hashing vs single hash functions",
        ),
    )

    geo_grid, geo_tp, geo_tournament = geo
    best_single = max(geo_grid, geo_tp)
    # The tournament engages and stays in the single-hash band.
    assert all(r[4] > 0.1 for r in rows)
    assert geo_tournament > 0.85 * best_single
    assert geo_tournament > 1.0
