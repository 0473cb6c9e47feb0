"""Parallel execution fabric: warm worker pool and cost-aware
work-stealing scheduling.

The fabric replaces ad-hoc per-caller fan-out: callers describe their
work as :class:`PoolTask` items and hand them to a :class:`WorkerPool`;
placement, result delivery, crash recovery and telemetry are owned
here.  Both the bench harness (:mod:`repro.harness.bench`) and the fuzz
campaign (:mod:`repro.fuzz.campaign`) run on it.
"""

from repro.parallel.costmodel import CostModel, point_kind
from repro.parallel.pool import (
    TaskFailed,
    TransientTaskError,
    WorkerPool,
    fresh_arena,
    worker_arena,
)
from repro.parallel.scheduler import PoolTask, StealScheduler, TaskResult

__all__ = [
    "CostModel",
    "PoolTask",
    "StealScheduler",
    "TaskFailed",
    "TaskResult",
    "TransientTaskError",
    "WorkerPool",
    "fresh_arena",
    "point_kind",
    "worker_arena",
]
