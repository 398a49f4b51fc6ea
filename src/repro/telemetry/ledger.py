"""Run ledger: index ``BENCH_*.json`` / ``SIM_*.json`` into one view.

A sweep leaves one artifact per run; after a few weeks of work a
``results/`` directory holds a pile of them and "did verified rate move
this month?" means opening files by hand.  The ledger is the missing
index: :func:`build_ledger` scans artifact files or directories into a
schema-versioned (``repro-ledger/1``) summary - one entry per artifact
with its headline per-scene figures and telemetry counter totals -
:func:`render_trends` turns it into per-scene trend tables, and
:func:`compare_runs` diffs two runs (counter deltas plus the
:func:`repro.bench.harness.compare_payloads` record gate).

``repro report --ledger`` / ``--compare`` is the CLI veneer
(see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import EXIT_USAGE, ReproError

#: Schema tag of the ledger payload produced by :func:`build_ledger`.
LEDGER_SCHEMA = "repro-ledger/1"

#: Artifact filename patterns the ledger indexes inside a directory.
ARTIFACT_GLOBS = ("BENCH_*.json", "SIM_*.json")


class LedgerError(ReproError, ValueError):
    """A ledger input is missing or not a recognized artifact."""

    exit_code = EXIT_USAGE


def _labels_key(labels: Dict[str, object]) -> str:
    """Canonical rendering of a label dict (``k=v,k=v`` sorted)."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _counter_totals(payload: dict) -> Dict[str, float]:
    """Total each telemetry counter over its label sets.

    Labels are summed out on purpose: the ledger tracks run-level
    trends; :func:`counter_deltas` keeps per-label resolution for
    two-run diffs.
    """
    totals: Dict[str, float] = {}
    metrics = payload.get("telemetry", {}).get("metrics", {})
    for counter in metrics.get("counters", []):
        name = counter["name"]
        totals[name] = totals.get(name, 0.0) + counter["value"]
    return totals


#: Bench timing records and the ledger column their cycles fill.
_CYCLE_KEYS = {"rt_timing": "cycles", "rt_timing_predictor": "cycles_predictor"}


def _scene_rows(payload: dict) -> Dict[str, Dict[str, object]]:
    """Headline per-scene figures of one artifact (kind-specific)."""
    rows: Dict[str, Dict[str, object]] = {}
    schema = payload.get("schema", "")
    if schema.startswith("repro-sim-sweep/"):
        for row in payload.get("results", []):
            rows[row["scene"]] = {
                "verified_rate": row.get("verified_rate"),
                "predicted_rate": row.get("predicted_rate"),
                "memory_savings": row.get("memory_savings"),
            }
        return rows
    for record in payload.get("results", []):
        extra = record["extra"]
        if record["benchmark"] == "predictor_sim":
            rows.setdefault(record["scene"], {}).update(
                (key, extra[key])
                for key in ("predicted_rate", "verified_rate", "memory_savings")
            )
        elif record["benchmark"] in _CYCLE_KEYS:
            key = _CYCLE_KEYS[record["benchmark"]]
            rows.setdefault(record["scene"], {})[key] = extra["cycles"]
    for entry in rows.values():
        if entry.get("cycles") and entry.get("cycles_predictor"):
            entry["cycle_speedup_predictor"] = round(
                entry["cycles"] / entry["cycles_predictor"], 4
            )
    return rows


def load_artifact(path: str) -> dict:
    """Load one artifact file, validating it looks like a known schema."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise LedgerError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LedgerError(f"{path} is not valid JSON: {exc}") from exc
    schema = payload.get("schema", "")
    if not (schema.startswith("repro-bench/")
            or schema.startswith("repro-sim-sweep/")):
        raise LedgerError(
            f"{path}: schema {schema!r} is not a bench or simulate artifact"
        )
    return payload


def discover_artifacts(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of artifact paths."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for pattern in ARTIFACT_GLOBS:
                found.extend(glob.glob(os.path.join(path, pattern)))
        elif os.path.exists(path):
            found.append(path)
        else:
            raise LedgerError(f"no artifact or directory at {path}")
    # De-duplicate while keeping a stable (name-sorted) order.
    return sorted(set(found))


def ledger_entry(path: str, payload: Optional[dict] = None) -> dict:
    """Summarize one artifact into a ledger entry."""
    payload = payload if payload is not None else load_artifact(path)
    schema = payload.get("schema", "")
    kind = "bench" if schema.startswith("repro-bench/") else "simulate"
    entry = {
        "path": path,
        "kind": kind,
        "artifact_schema": schema,
        "name": payload.get("name"),
        "scenes": list(payload.get("scenes", [])),
        "mtime": os.path.getmtime(path),
        "scene_rows": _scene_rows(payload),
        "counters": _counter_totals(payload),
        "has_telemetry": "telemetry" in payload,
    }
    workers = payload.get("telemetry", {}).get("workers")
    if workers:
        entry["worker_pids"] = sorted({w["pid"] for w in workers})
    return entry


def build_ledger(paths: Iterable[str]) -> dict:
    """Index artifacts (files or directories) into a ledger payload.

    Entries are ordered oldest-first by file modification time, so
    trend tables read left-to-right in run order.
    """
    files = discover_artifacts(paths)
    if not files:
        raise LedgerError(
            "no BENCH_*.json or SIM_*.json artifacts found under "
            + ", ".join(paths)
        )
    entries = [ledger_entry(path) for path in files]
    entries.sort(key=lambda e: (e["mtime"], e["path"]))
    return {"schema": LEDGER_SCHEMA, "entries": entries}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_trends(ledger: dict) -> str:
    """Per-scene trend tables across the ledger's runs (oldest first).

    One table per (kind, metric): rows are scenes, columns are runs, so
    a regressed column stands out at a glance.
    """
    entries = ledger["entries"]
    lines = [f"run ledger ({ledger['schema']}): {len(entries)} artifact(s)"]
    for entry in entries:
        tag = "telemetry" if entry["has_telemetry"] else "no telemetry"
        lines.append(
            f"  {entry['kind']:8s} {entry['name'] or '?':12s} "
            f"{os.path.basename(entry['path'])} ({tag})"
        )

    for kind in ("bench", "simulate"):
        runs = [e for e in entries if e["kind"] == kind]
        if not runs:
            continue
        metrics: List[str] = []
        scenes: List[str] = []
        for run in runs:
            for code, row in run["scene_rows"].items():
                if code not in scenes:
                    scenes.append(code)
                for key in row:
                    if key not in metrics:
                        metrics.append(key)
        for metric in metrics:
            lines.append("")
            lines.append(f"{kind}: {metric}")
            header = ["scene"] + [run["name"] or "?" for run in runs]
            widths = [max(8, len(h)) for h in header]
            rows = []
            for code in scenes:
                cells = [code]
                for run in runs:
                    cells.append(_format_cell(
                        run["scene_rows"].get(code, {}).get(metric)
                    ))
                rows.append(cells)
            for cells in [header] + rows:
                lines.append("  " + "  ".join(
                    c.ljust(w) for c, w in zip(cells, widths)
                ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Two-run comparison
# ----------------------------------------------------------------------
def counter_deltas(
    old: dict, new: dict
) -> List[Tuple[str, str, float, float]]:
    """Label-resolved telemetry counter deltas between two artifacts.

    Returns ``(name, labels, old_value, new_value)`` rows for every
    counter present in either run (0.0 where absent), sorted by name.
    """
    def extract(payload: dict) -> Dict[Tuple[str, str], float]:
        out: Dict[Tuple[str, str], float] = {}
        metrics = payload.get("telemetry", {}).get("metrics", {})
        for counter in metrics.get("counters", []):
            key = (counter["name"], _labels_key(counter.get("labels", {})))
            out[key] = out.get(key, 0.0) + counter["value"]
        return out

    old_vals = extract(old)
    new_vals = extract(new)
    rows = []
    for key in sorted(set(old_vals) | set(new_vals)):
        rows.append((
            key[0], key[1], old_vals.get(key, 0.0), new_vals.get(key, 0.0)
        ))
    return rows


def render_counter_deltas(
    rows: List[Tuple[str, str, float, float]], only_changed: bool = True
) -> str:
    """Human-readable counter-delta table (changed counters first)."""
    shown = [r for r in rows if not only_changed or r[2] != r[3]]
    if not shown:
        return "telemetry counters: no differences"
    lines = ["telemetry counter deltas (old -> new):"]
    for name, labels, old_value, new_value in shown:
        delta = new_value - old_value
        label_part = f" {{{labels}}}" if labels else ""
        lines.append(
            f"  {name}{label_part}: {old_value:g} -> {new_value:g} "
            f"({delta:+g})"
        )
    return "\n".join(lines)


def compare_runs(
    old: dict, new: dict, tolerance: float = 0.2
) -> List[str]:
    """Regression check between two runs of the same kind.

    Bench artifacts go through the exact
    :func:`repro.bench.harness.compare_payloads` gate (old run as the
    baseline; ``tolerance`` does not apply).  Simulate artifacts gate on
    per-scene rate drift.
    """
    old_schema = old.get("schema", "")
    new_schema = new.get("schema", "")
    old_kind = "bench" if old_schema.startswith("repro-bench/") else "simulate"
    new_kind = "bench" if new_schema.startswith("repro-bench/") else "simulate"
    if old_kind != new_kind:
        raise LedgerError(
            f"cannot compare a {old_kind} artifact with a {new_kind} one"
        )
    if old_kind == "bench":
        from repro.bench.harness import compare_payloads

        return compare_payloads(new, old)

    problems: List[str] = []
    old_rows = {row["scene"]: row for row in old.get("results", [])}
    new_rows = {row["scene"]: row for row in new.get("results", [])}
    for code, old_row in old_rows.items():
        new_row = new_rows.get(code)
        if new_row is None:
            problems.append(f"simulate/{code}: scene missing from new run")
            continue
        for rate in ("predicted_rate", "verified_rate", "memory_savings"):
            old_value = old_row.get(rate)
            new_value = new_row.get(rate)
            if old_value is None or not old_value:
                continue
            if new_value is None:
                problems.append(
                    f"simulate/{code}: {rate} missing from new run"
                )
                continue
            drift = abs(new_value - old_value) / abs(old_value)
            if drift > tolerance:
                problems.append(
                    f"simulate/{code}: {rate} drifted {drift:.1%} "
                    f"({old_value} -> {new_value})"
                )
    return problems


__all__ = [
    "ARTIFACT_GLOBS",
    "LEDGER_SCHEMA",
    "LedgerError",
    "build_ledger",
    "compare_runs",
    "counter_deltas",
    "discover_artifacts",
    "ledger_entry",
    "load_artifact",
    "render_counter_deltas",
    "render_trends",
]
