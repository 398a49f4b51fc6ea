#!/usr/bin/env python3
"""Standalone entry point for the benchmark harness.

The harness times each production call against its scalar twin (the
:mod:`repro.reference` oracles for traversal and the predictor
simulation); presets, gates and committed baselines are shared with
``python -m repro bench``.

Thin wrapper over :mod:`repro.bench.harness` so the harness can be run
straight from a checkout without installing the package::

    PYTHONPATH=src python benchmarks/harness.py --quick --check

This is exactly ``python -m repro bench`` (the CLI subcommand and this
script share the same implementation), so the resilience flags work here
too: ``--resume``, ``--supervise``, ``--max-retries``, ``--unit-timeout``,
``--memory-budget``, ``--no-degrade``, and the chaos-testing flags
(``--chaos-rate``, ``--force-fail``).  See ``docs/BENCHMARKING.md`` for
the artifact schema and the CI regression gate, and ``docs/ROBUSTNESS.md``
for the supervisor and degradation-ladder semantics.
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
