"""Table 6: speedup vs predictor-table geometry (entries x nodes/entry).

Paper: 1024 entries with 1 node/entry is optimal (25.8 %); doubling
entries or nodes/entry brings no gain because extra capacity dilutes the
constructive aliasing and extra nodes cost k*m verification work.

Expected scaled shape: speedups vary only modestly across geometries (a
flat-ish plateau, as in the paper's 23.4-25.8 % spread), and the
scaled-optimal geometry beats the smallest table.  At our ray density
the optimum shifts to 2 nodes/entry (documented in EXPERIMENTS.md).

Section 6.1.3 also compares the node replacement policies of a
multi-node entry: LRU, LFU and LRU-K differ insignificantly.  The
second table reruns that comparison at 1024 entries with 2 and 4 nodes
per entry: with one node per entry every policy evicts the same node.
"""

from repro.analysis.experiments import (
    SWEEP_SCENES,
    SWEEP_WORKLOAD,
    scaled_predictor_config,
    sweep_config_metrics,
)
from repro.analysis.stats import geometric_mean
from repro.analysis.tables import format_table

ENTRIES = [512, 1024, 2048]
NODES = [1, 2, 4]
POLICIES = ["lru", "lfu", "lru-k"]
POLICY_ENTRIES = 1024
POLICY_NODES = [2, 4]


def test_tab06_table_size(benchmark, ctx, report):
    def run():
        configs = {
            (entries, nodes): scaled_predictor_config(
                num_entries=entries, nodes_per_entry=nodes
            )
            for entries in ENTRIES
            for nodes in NODES
        }
        metrics = sweep_config_metrics(
            list(configs.values()), SWEEP_SCENES, SWEEP_WORKLOAD, ctx=ctx
        )
        return {
            key: geometric_mean(
                [metrics[(config, code)].speedup for code in SWEEP_SCENES]
            )
            for key, config in configs.items()
        }

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [entries] + [grid[(entries, nodes)] for nodes in NODES]
        for entries in ENTRIES
    ]
    report(
        "tab06_table_size",
        format_table(
            ["Entries \\ Nodes"] + [str(n) for n in NODES],
            rows,
            title="Table 6 (scaled): geomean speedup vs table geometry",
        ),
    )

    values = list(grid.values())
    # A plateau, not a cliff: every geometry is within ~25 % of the best.
    assert max(values) - min(values) < 0.25
    assert max(values) > 1.0  # the best geometry wins over baseline


def test_tab06_node_policy(benchmark, ctx, report):
    def run():
        # The LRU configs equal Table 6's, so the shared ctx reuses them.
        configs = {
            (policy, nodes): scaled_predictor_config(
                num_entries=POLICY_ENTRIES, nodes_per_entry=nodes,
                node_policy=policy,
            )
            for policy in POLICIES
            for nodes in POLICY_NODES
        }
        metrics = sweep_config_metrics(
            list(configs.values()), SWEEP_SCENES, SWEEP_WORKLOAD, ctx=ctx
        )
        return {
            key: geometric_mean(
                [metrics[(config, code)].speedup for code in SWEEP_SCENES]
            )
            for key, config in configs.items()
        }

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [policy] + [grid[(policy, nodes)] for nodes in POLICY_NODES]
        for policy in POLICIES
    ]
    report(
        "tab06_node_policy",
        format_table(
            ["Policy \\ Nodes"] + [str(n) for n in POLICY_NODES],
            rows,
            title=f"Section 6.1.3 (scaled): geomean speedup vs node "
            f"replacement policy, {POLICY_ENTRIES} entries",
        ),
    )

    for nodes in POLICY_NODES:
        lru = grid[("lru", nodes)]
        for policy in POLICIES:
            speedup = grid[(policy, nodes)]
            assert speedup > 1.0, (policy, nodes)  # beats the baseline
            # "Insignificant": every policy stays close to LRU.
            assert abs(speedup - lru) < 0.05, (policy, nodes)
