"""Limit-study oracles (Section 6.3, Figure 2).

Three idealizations bound the headroom of ray prediction:

* **OL - oracle lookup**: the table is trained and capacity-limited
  exactly like the real predictor, but a lookup can always find an entry
  *anywhere in the table* whose node verifies the ray, if one exists
  ("Potential Prediction (5.5KB)").  Mispredictions disappear.
* **OT - oracle training**: additionally the table is unbounded - a ray
  finds a node whenever *any* prior ray inserted a node that verifies it
  ("Potential Prediction (inf)").
* **OU - oracle updates**: additionally updates are visible immediately,
  ignoring traversal latency (no in-flight window).

A node verifies a ray iff the node's subtree contains a leaf holding a
triangle the ray intersects - i.e. the node lies in the *ancestor
closure* of the ray's hit leaves.  We compute that closure with an
exhaustive all-hits traversal (oracles are free by definition, so the
closure computation adds no simulated cost).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


from repro.bvh.nodes import FlatBVH
from repro.core.predictor import PredictorConfig, RayPredictor
from repro.core.simulate import (
    DEFAULT_IN_FLIGHT,
    PredictionOutcome,
    SimulationResult,
    simulate_predictor,
)
from repro.geometry.ray import RayBatch
from repro.telemetry.stats import TraversalStats
from repro.trace.traversal import occlusion_all_hit_leaves, occlusion_any_hit_tri


class OracleKind(enum.Enum):
    """Which idealization to apply."""

    PROPOSED = "proposed"
    ORACLE_LOOKUP = "oracle_lookup"
    ORACLE_TRAINING = "oracle_training"
    ORACLE_UPDATES = "oracle_updates"


def ancestor_closure(bvh: FlatBVH, leaves: Iterable[int]) -> Set[int]:
    """All ancestors (inclusive) of the given leaves, up to the root."""
    closure: Set[int] = set()
    parent = bvh.parent
    for leaf in leaves:
        node = int(leaf)
        while node >= 0 and node not in closure:
            closure.add(node)
            node = int(parent[node])
    return closure


def _deepest(bvh: FlatBVH, nodes: Iterable[int]) -> int:
    """The deepest node of a non-empty collection (cheapest to verify)."""
    depths = bvh.depths()
    return max(nodes, key=lambda n: int(depths[n]))


def run_limit_study(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[PredictorConfig] = None,
    kinds: Optional[Sequence[OracleKind]] = None,
    in_flight: int = DEFAULT_IN_FLIGHT,
) -> Dict[OracleKind, SimulationResult]:
    """Run the Figure 2 limit study.

    Returns one :class:`SimulationResult` per requested oracle kind; the
    ``PROPOSED`` entry is a plain :func:`simulate_predictor` run.
    """
    config = config or PredictorConfig()
    if kinds is None:
        kinds = list(OracleKind)
    results: Dict[OracleKind, SimulationResult] = {}
    for kind in kinds:
        if kind is OracleKind.PROPOSED:
            results[kind] = simulate_predictor(bvh, rays, config, in_flight=in_flight)
        else:
            results[kind] = _run_oracle(bvh, rays, config, kind, in_flight)
    return results


def _run_oracle(
    bvh: FlatBVH,
    rays: RayBatch,
    config: PredictorConfig,
    kind: OracleKind,
    in_flight: int,
) -> SimulationResult:
    """Shared loop for the three oracle variants."""
    predictor = RayPredictor(bvh, config)  # used for hashing/training (OL)
    hashes = predictor.hash_batch(rays.origins, rays.directions)
    unbounded: Set[int] = set()
    immediate = kind is OracleKind.ORACLE_UPDATES
    window = 1 if immediate else in_flight

    outcomes: List[PredictionOutcome] = []
    baseline_nodes = 0
    baseline_tris = 0
    lookups = 0
    updates = 0

    n = len(rays)
    for start in range(0, n, window):
        stop = min(start + window, n)
        pending: List[Tuple[int, int]] = []
        for i in range(start, stop):
            ray = rays[i]
            ray_hash = int(hashes[i])
            outcome = PredictionOutcome()
            lookups += 1

            # Ground truth: which leaves would verify this ray?
            hit_leaves = occlusion_all_hit_leaves(bvh, ray)
            outcome.hit = bool(hit_leaves)
            closure = ancestor_closure(bvh, hit_leaves) if hit_leaves else set()

            # Oracle lookup: find a verifying stored node, if any exists.
            if kind is OracleKind.ORACLE_LOOKUP:
                stored = set(predictor.table.iter_nodes())
            else:
                stored = unbounded
            matching = closure & stored if closure else set()

            if matching:
                best = _deepest(bvh, matching)
                outcome.predicted = True
                outcome.predicted_nodes = 1
                verify_stats = TraversalStats()
                hit_tri = occlusion_any_hit_tri(
                    bvh, ray, stats=verify_stats, start_nodes=[best]
                )
                # By construction the subtree contains a hit; assert the
                # invariant rather than trusting it silently.
                assert hit_tri >= 0, "oracle chose a non-verifying node"
                outcome.verified = True
                outcome.verify_node_fetches = verify_stats.node_fetches
                outcome.verify_tri_fetches = verify_stats.tri_fetches
                baseline = TraversalStats()
                occlusion_any_hit_tri(bvh, ray, stats=baseline)
                baseline_nodes += baseline.node_fetches
                baseline_tris += baseline.tri_fetches
            else:
                full_stats = TraversalStats()
                hit_tri = occlusion_any_hit_tri(bvh, ray, stats=full_stats)
                outcome.full_node_fetches = full_stats.node_fetches
                outcome.full_tri_fetches = full_stats.tri_fetches
                baseline_nodes += full_stats.node_fetches
                baseline_tris += full_stats.tri_fetches

            if hit_tri >= 0:
                pending.append((ray_hash, hit_tri))
            outcomes.append(outcome)

        for ray_hash, hit_tri in pending:
            updates += 1
            if kind is OracleKind.ORACLE_LOOKUP:
                predictor.train(ray_hash, hit_tri)
            else:
                unbounded.add(predictor.trained_node_for(hit_tri))

    return SimulationResult(
        num_rays=n,
        predicted=sum(1 for o in outcomes if o.predicted),
        verified=sum(1 for o in outcomes if o.verified),
        hits=sum(1 for o in outcomes if o.hit),
        predictor_node_fetches=sum(o.node_fetches for o in outcomes),
        predictor_tri_fetches=sum(o.tri_fetches for o in outcomes),
        baseline_node_fetches=baseline_nodes,
        baseline_tri_fetches=baseline_tris,
        misprediction_node_fetches=0,
        misprediction_tri_fetches=0,
        table_lookups=lookups,
        table_updates=updates,
        outcomes=None,
    )
