"""Chaos engineering for the execution fabric (see docs/CHAOS.md).

Seeded, deterministic fault injection against the worker pool: kill or
hang a worker mid-task, slow a task, fail it transiently or corrupt an
artifact-store entry -- and prove the fabric's recovery paths keep
results bit-identical.
"""

from repro.chaos.plan import (
    ChaosAction,
    ChaosPlan,
    DEFAULT_RATES,
    RANDOM_KINDS,
)

__all__ = [
    "ChaosAction",
    "ChaosPlan",
    "DEFAULT_RATES",
    "RANDOM_KINDS",
]
