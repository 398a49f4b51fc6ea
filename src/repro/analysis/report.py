"""Collect regenerated benchmark artifacts into one report.

``pytest benchmarks/ --benchmark-only`` writes one plain-text table per
paper artifact under ``results/``; :func:`build_report` stitches them
into a single Markdown document ordered like the paper's evaluation
section, ready to diff against ``EXPERIMENTS.md`` or attach to a review.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: Artifact ids in the order the paper presents them, with headings.
ARTIFACT_ORDER: List[Tuple[str, str]] = [
    ("tab01_scenes", "Table 1 — benchmark scenes"),
    ("fig01_left_distribution", "Figure 1 (left) — access distribution"),
    ("fig01_right_l1_sweep", "Figure 1 (right) — L1 sweep without predictor"),
    ("fig02_limit_study", "Figure 2 — limit study"),
    ("fig11_correlation", "Figure 11 — simulator correlation"),
    ("fig12_speedup", "Figure 12 — headline speedup"),
    ("fig13_memory", "Figure 13 — memory accesses"),
    ("tab04_energy", "Table 4 — energy breakdown"),
    ("tab05_equation1", "Table 5 — Equation 1 vs measurement"),
    ("tab06_table_size", "Table 6 — predictor table geometry"),
    ("tab06_node_policy", "Section 6.1.3 — node replacement policies"),
    ("tab07_placement", "Table 7 — placement policies"),
    ("tab08a_grid_spherical", "Table 8a — Grid Spherical sweep"),
    ("tab08b_two_point", "Table 8b — Two Point sweep"),
    ("fig14_goup", "Figure 14 — Go Up Level"),
    ("fig15_repacking", "Figure 15 — warp repacking"),
    ("fig16_cache", "Figure 16 — cache configurations"),
    ("fig17_intersection_latency", "Figure 17 — intersection latency"),
    ("fig17_predictor_latency", "Figure 17 — predictor latency/bandwidth"),
    ("sec625_multism", "Section 6.2.5 — multi-SM scaling"),
    ("sec64_gi", "Section 6.4 — GI extension"),
    ("ext_dynamic_interframe", "Extension — inter-frame persistence"),
    ("ext_shadows", "Extension — shadow rays"),
    ("ext_tournament", "Extension — tournament hashing"),
    ("abl_timing_model", "Ablation — timing-model mechanisms"),
]


def collect_results(results_dir: str | os.PathLike) -> Dict[str, str]:
    """Read every ``<id>.txt`` under ``results_dir``; returns id -> text."""
    found: Dict[str, str] = {}
    if not os.path.isdir(results_dir):
        return found
    for name in os.listdir(results_dir):
        if name.endswith(".txt"):
            path = os.path.join(results_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                found[name[:-4]] = handle.read().rstrip()
    return found


def build_report(results_dir: str | os.PathLike, title: str = "Regenerated results") -> str:
    """Render all collected artifacts as one Markdown document.

    Artifacts appear in paper order; any extra files not in
    :data:`ARTIFACT_ORDER` are appended under "Other"; missing artifacts
    are listed so an incomplete benchmark run is visible.
    """
    results = collect_results(results_dir)
    lines: List[str] = [f"# {title}", ""]
    missing: List[str] = []
    used = set()
    for artifact_id, heading in ARTIFACT_ORDER:
        if artifact_id in results:
            used.add(artifact_id)
            lines += [f"## {heading}", "", "```", results[artifact_id], "```", ""]
        else:
            missing.append(heading)
    extras = sorted(set(results) - used)
    if extras:
        lines += ["## Other artifacts", ""]
        for artifact_id in extras:
            lines += [f"### {artifact_id}", "", "```", results[artifact_id], "```", ""]
    if missing:
        lines += ["## Missing artifacts", ""]
        lines += [f"- {name}" for name in missing]
        lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: str | os.PathLike, output_path: str | os.PathLike
) -> None:
    """Write :func:`build_report`'s output to ``output_path``.

    Raises:
        ValueError: before anything is written, if ``results_dir`` is not
            a directory or holds no ``.txt`` artifact.  A report listing
            every artifact as missing would silently replace a real one.
    """
    if not os.path.isdir(results_dir):
        raise ValueError(f"{str(results_dir)!r} is not a directory")
    if not collect_results(results_dir):
        raise ValueError(f"{str(results_dir)!r} holds no .txt artifact")
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(build_report(results_dir) + "\n")
