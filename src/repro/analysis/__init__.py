"""Experiment drivers and reporting utilities.

One driver per paper artifact lives in :mod:`repro.analysis.experiments`
(the benchmarks under ``benchmarks/`` are thin wrappers); formatting and
statistics helpers live in :mod:`repro.analysis.tables` and
:mod:`repro.analysis.stats`; the Figure 11 hardware proxy lives in
:mod:`repro.analysis.correlate`; the ``repro simulate`` sweep lives in
:mod:`repro.analysis.sweep`.
"""

from repro.analysis.experiments import (
    ConfigMetrics,
    ExperimentContext,
    scaled_gpu_config,
    scaled_predictor_config,
    scaled_workload_params,
    sweep_config_metrics,
)
from repro.analysis.report import build_report, write_report
from repro.analysis.stats import geometric_mean, pearson_correlation
from repro.analysis.tables import format_table

__all__ = [
    "ConfigMetrics",
    "ExperimentContext",
    "build_report",
    "format_table",
    "geometric_mean",
    "pearson_correlation",
    "scaled_gpu_config",
    "scaled_predictor_config",
    "scaled_workload_params",
    "sweep_config_metrics",
    "write_report",
]
