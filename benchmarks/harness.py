#!/usr/bin/env python3
"""Standalone entry point for the benchmark harness.

The harness runs production calls serially on pinned-seed presets and,
with ``--check``, gates them exactly against the committed baselines in
``benchmarks/baselines``; presets, gates and baselines are shared with
``python -m repro bench``.

Thin wrapper over :mod:`repro.bench.harness` so the harness can be run
straight from a checkout without installing the package::

    PYTHONPATH=src python benchmarks/harness.py --preset quick --check

This is exactly ``python -m repro bench`` (the CLI subcommand and this
script share the same implementation).  See ``docs/BENCHMARKING.md``
for the presets, the artifact schema and the gate.
"""

from __future__ import annotations

import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def main(argv=None) -> int:
    from repro.__main__ import main as repro_main

    args = list(sys.argv[1:] if argv is None else argv)
    return repro_main(["bench", *args])


if __name__ == "__main__":
    sys.exit(main())
