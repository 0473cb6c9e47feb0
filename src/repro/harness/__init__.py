"""Experiment harness: run workloads through the compile/simulate pipeline."""

from repro.harness.cache import ExperimentCache
from repro.harness.reporting import format_table, geomean, percent
from repro.harness.results import experiment_to_dict, results_to_json
from repro.harness.runner import (
    BaselineRun,
    DSWPRun,
    ExperimentResult,
    run_baseline,
    run_dswp,
    run_experiment,
    run_supervised,
)

__all__ = [
    "BaselineRun",
    "DSWPRun",
    "ExperimentCache",
    "ExperimentResult",
    "experiment_to_dict",
    "format_table",
    "geomean",
    "percent",
    "run_baseline",
    "run_dswp",
    "results_to_json",
    "run_experiment",
    "run_supervised",
]
