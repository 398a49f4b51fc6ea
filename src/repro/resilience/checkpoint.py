"""Crash-consistent checkpointing of sweep progress.

A sweep (``repro simulate``) is a sequence of *units*
(one scene each).  The checkpoint records every completed unit's payload
so a run killed mid-sweep resumes with ``--resume`` and re-runs only the
units that never finished.

Crash consistency comes from the classic write-temp-then-rename dance:
the whole state is serialized to ``<path>.tmp`` in the same directory,
flushed and fsynced, then atomically swapped into place with
``os.replace``.  A crash at any instant leaves either the previous
complete checkpoint or the new complete checkpoint on disk - never a
torn file.

Resume safety: the checkpoint embeds a schema tag, the artifact schema
it was written against, and a *fingerprint* of the sweep
configuration (preset/scene/seed knobs).  :meth:`SweepCheckpoint.load`
refuses (with a structured :class:`~repro.errors.CheckpointError`) to
resume a checkpoint whose fingerprint does not match the current run -
silently mixing results from two different configurations is exactly
the kind of wrong-but-plausible output this subsystem exists to prevent.

RNG state: sweeps derive all randomness from seeds recorded in the
fingerprint, so reproducibility across a resume needs no live generator
state - but the fingerprint's ``seed`` entries make that contract
explicit and checkable.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.errors import CheckpointError

#: Checkpoint file schema; bump on incompatible layout changes.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + rename).

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem rename, which POSIX guarantees atomic.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


class SweepCheckpoint:
    """Persistent per-unit progress for one sweep.

    Usage::

        ckpt = SweepCheckpoint(path, fingerprint, bench_schema="repro-sim-sweep/1")
        ckpt.load(resume=args.resume)
        for unit in units:
            if ckpt.has(unit):
                reuse(ckpt.get(unit)); continue
            result = run(unit)
            ckpt.record(unit, result)   # atomically persisted
        ckpt.remove()                   # sweep finished cleanly

    Attributes:
        path: checkpoint file location.
        fingerprint: JSON-safe dict pinning the sweep configuration.
        hits: units served from the checkpoint instead of re-running.
    """

    def __init__(
        self,
        path: str,
        fingerprint: Dict[str, object],
        bench_schema: Optional[str] = None,
    ) -> None:
        self.path = path
        self.fingerprint = _canonical(fingerprint)
        self.bench_schema = bench_schema
        self.completed: Dict[str, dict] = {}
        self.hits = 0

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self, resume: bool = True) -> bool:
        """Load prior progress from :attr:`path`.

        Args:
            resume: when False (a fresh run), any stale checkpoint at
                the path is discarded instead of loaded.

        Returns:
            True when prior progress was loaded.

        Raises:
            CheckpointError: the file is corrupt, has an unknown schema,
                or fingerprints a different sweep configuration.
        """
        if not self.exists():
            return False
        if not resume:
            self.remove()
            return False
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{self.path}: checkpoint unreadable ({exc}); delete it or "
                "rerun without --resume",
                path=self.path,
            ) from exc
        schema = state.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint schema {schema!r} "
                f"(expected {CHECKPOINT_SCHEMA})",
                path=self.path,
            )
        theirs = state.get("fingerprint")
        if theirs != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: checkpoint was written by a different sweep "
                f"configuration ({_diff_fingerprints(self.fingerprint, theirs)}); "
                "refusing to mix results - rerun without --resume",
                path=self.path,
            )
        completed = state.get("completed")
        if not isinstance(completed, dict):
            raise CheckpointError(
                f"{self.path}: checkpoint has no completed-unit map",
                path=self.path,
            )
        self.completed = completed
        return True

    # ------------------------------------------------------------------
    def has(self, unit: str) -> bool:
        return unit in self.completed

    def get(self, unit: str) -> dict:
        """Return a completed unit's payload, counting the hit."""
        payload = self.completed[unit]
        self.hits += 1
        return payload

    def record(self, unit: str, payload: dict) -> None:
        """Mark ``unit`` completed and persist the whole state atomically."""
        self.completed[unit] = payload
        self.flush()

    def flush(self) -> None:
        atomic_write_json(
            self.path,
            {
                "schema": CHECKPOINT_SCHEMA,
                "bench_schema": self.bench_schema,
                "fingerprint": self.fingerprint,
                "completed": self.completed,
            },
        )

    def remove(self) -> None:
        """Delete the checkpoint (sweep finished, or fresh run requested)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe summary embedded in the artifact's resilience section."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "path": self.path,
            "hits": self.hits,
            "completed_units": sorted(self.completed),
        }


def _canonical(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """Round-trip through JSON so load-time comparison is type-stable
    (tuples become lists exactly as they will after deserialization)."""
    return json.loads(json.dumps(fingerprint, sort_keys=True))


def _diff_fingerprints(ours: dict, theirs: object) -> str:
    if not isinstance(theirs, dict):
        return "no fingerprint recorded"
    keys = sorted(set(ours) | set(theirs))
    diffs = [
        f"{k}: {theirs.get(k)!r} -> {ours.get(k)!r}"
        for k in keys
        if ours.get(k) != theirs.get(k)
    ]
    return "; ".join(diffs) or "fingerprints differ"


__all__ = ["CHECKPOINT_SCHEMA", "SweepCheckpoint", "atomic_write_json"]
