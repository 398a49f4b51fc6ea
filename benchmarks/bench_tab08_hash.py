"""Table 8: hash-function parameter sweeps.

Paper (8a): Grid Spherical peaks at 5 origin bits / 3 direction bits
(25.8 %), degrading when the hash is too tight (5/5: 14 %) or too loose.
Paper (8b): Two Point peaks at mid-range length ratios and degrades at
large ratios with many origin bits (5 bits / 0.35: 6.8 %).

Expected scaled shape: both sweeps show an interior optimum (an
inverted-U): the extreme-tight corner is worse than the best cell.  At
our ray density the optimum sits at fewer origin bits than the paper's
5 (documented in EXPERIMENTS.md) - the tightness/density tradeoff of
Section 4.2 is the reproduced mechanism.
"""

from repro.analysis.experiments import (
    SWEEP_SCENES,
    SWEEP_WORKLOAD,
    scaled_predictor_config,
    sweep_config_metrics,
)
from repro.analysis.stats import geometric_mean
from repro.analysis.tables import format_table

ORIGIN_BITS = [3, 4, 5]
DIRECTION_BITS = [1, 3, 5]
LENGTH_RATIOS = [0.05, 0.15, 0.25, 0.35]


def _geo_speedups(ctx, configs):
    """Geomean sweep-scene speedup for each config key, simulated in
    ``ctx`` through :func:`sweep_config_metrics`."""
    metrics = sweep_config_metrics(
        list(configs.values()), SWEEP_SCENES, SWEEP_WORKLOAD, ctx=ctx
    )
    return {
        key: geometric_mean(
            [metrics[(config, code)].speedup for code in SWEEP_SCENES]
        )
        for key, config in configs.items()
    }


def test_tab08a_grid_spherical(benchmark, ctx, report):
    def run():
        configs = {
            (ob, db): scaled_predictor_config(origin_bits=ob, direction_bits=db)
            for ob in ORIGIN_BITS
            for db in DIRECTION_BITS
        }
        return _geo_speedups(ctx, configs)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[ob] + [grid[(ob, db)] for db in DIRECTION_BITS] for ob in ORIGIN_BITS]
    report(
        "tab08a_grid_spherical",
        format_table(
            ["Origin bits \\ Direction bits"] + [str(d) for d in DIRECTION_BITS],
            rows,
            title="Table 8a (scaled): Grid Spherical geomean speedup",
        ),
    )

    best = max(grid.values())
    worst = min(grid.values())
    # Paper shape: hash tightness matters a lot (the paper's grid spans
    # 14-25.8 %); at least one corner of the grid is clearly suboptimal.
    # Which corner is worst depends on ray density: the paper's 4M-ray
    # workloads collapse at (5,5); our scaled density collapses where
    # the direction hash is much tighter than the origin hash.
    assert worst < best - 0.05
    assert best > 1.0
    # The direction-bits axis shows the tightness tradeoff at every
    # origin width: the extreme direction hash never beats the moderate.
    for ob in ORIGIN_BITS:
        assert grid[(ob, 5)] <= max(grid[(ob, 1)], grid[(ob, 3)]) + 0.03


def test_tab08b_two_point(benchmark, ctx, report):
    def run():
        configs = {
            (ob, ratio): scaled_predictor_config(
                hash_function="two_point", origin_bits=ob, length_ratio=ratio
            )
            for ob in ORIGIN_BITS
            for ratio in LENGTH_RATIOS
        }
        return _geo_speedups(ctx, configs)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[ob] + [grid[(ob, r)] for r in LENGTH_RATIOS] for ob in ORIGIN_BITS]
    report(
        "tab08b_two_point",
        format_table(
            ["Origin bits \\ Length ratio"] + [str(r) for r in LENGTH_RATIOS],
            rows,
            title="Table 8b (scaled): Two Point geomean speedup",
        ),
    )

    best = max(grid.values())
    worst = min(grid.values())
    # Paper shape: the length ratio and origin bits matter (the paper's
    # grid spans 6.8-24.7 %), and Two Point's best configuration is
    # comparable to Grid Spherical's ("Two Point gives comparable
    # results", Section 6.1.4).  As with 8a, *which* corner collapses
    # moves with ray density.
    assert worst < best - 0.05
    assert best > 1.10
