"""Deterministic fault injection for the parallel execution fabric.

A :class:`ChaosPlan` decides, per *(task id, dispatch index)*, whether
a worker should sabotage itself before or after running the task.  The
pool stays chaos-agnostic: workers simply ask the plan for an action
and apply it (see ``_worker_main`` in :mod:`repro.parallel.pool`), and
every decision is a pure function of the plan's seed and the task id
-- no RNG state, no wall clock -- so a chaos schedule replays
identically across runs, workers and platforms.

Fault matrix (``docs/CHAOS.md`` has the prose version):

=================== ==================================== =================
kind                worker behaviour                     recovery path
=================== ==================================== =================
``kill``            ``os._exit`` before running the task crash retry
``kill-after-run``  ``os._exit`` after running the task  crash retry
                    (result pickled, never sent)
``hang``            sleep ``hang_seconds`` before the    deadline reap
                    task
``slow``            sleep ``slow_seconds`` before the    none needed
                    task (within deadline)
``flaky``           raise :class:`TransientTaskError`    backoff retry
                    on the first ``flaky_failures``
                    dispatches
``cache-corrupt``   scribble over one entry of the       corrupt-is-a-miss
                    artifact store under ``cache_dir``   eviction
=================== ==================================== =================

Destructive kinds fire only on a task's *first* dispatch (``flaky`` on
the first ``flaky_failures`` dispatches, which the plan clamps below
the pool's retry budget), so every task eventually succeeds and the
differential invariant -- chaos run bit-identical to the clean run
modulo degradation accounting -- is well defined.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.incr.gc import entry_files
from repro.parallel.pool import TransientTaskError

#: Band order for seeded plans: stable across runs by construction.
RANDOM_KINDS = ("kill", "hang", "slow", "flaky", "cache-corrupt")

#: Default per-kind probability bands for :meth:`ChaosPlan.random`.
DEFAULT_RATES = {
    "kill": 0.08,
    "hang": 0.08,
    "slow": 0.10,
    "flaky": 0.10,
    "cache-corrupt": 0.06,
}

#: Transient retries the pool allows by default; seeded plans keep
#: ``flaky_failures`` strictly below this so flaky tasks always recover
#: without the driver fallback.
POOL_RETRY_BUDGET = 3


def _fraction(seed: int, task_id: str) -> float:
    """Deterministic uniform-ish fraction in [0, 1) for a task."""
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass
class ChaosAction:
    """One fault a worker applies to one task attempt.

    ``apply_before`` runs ahead of the task function, ``apply_after``
    once its result is pickled; both execute *inside the worker
    process*, so the driver only ever observes the fault's symptoms.
    """

    kind: str
    #: Sleep length for ``hang`` / ``slow``.
    seconds: float = 0.0
    #: How many dispatches ``flaky`` poisons (1 for every other kind).
    attempts: int = 1
    #: Artifact-store directory targeted by ``cache-corrupt``.
    cache_dir: Optional[str] = None

    def applies(self, dispatch: int) -> bool:
        limit = self.attempts if self.kind == "flaky" else 1
        return dispatch <= limit

    def apply_before(self) -> None:
        if self.kind == "kill":
            os._exit(137)
        elif self.kind in ("hang", "slow"):
            time.sleep(self.seconds)
        elif self.kind == "flaky":
            raise TransientTaskError(
                f"chaos: injected transient failure ({self.kind})")
        elif self.kind == "cache-corrupt":
            self._corrupt_cache_entry()

    def apply_after(self) -> None:
        if self.kind == "kill-after-run":
            os._exit(137)

    def _corrupt_cache_entry(self) -> None:
        """Scribble over one store entry, chosen from the walk ``cache
        gc`` makes (pins and tmp droppings excluded) by a hash of the
        directory, so the same directory contents pick the same victim.
        The store's corrupt-is-a-miss policy evicts it and recomputes
        -- results must not change."""
        if not self.cache_dir:
            return
        entries = sorted(entry for entry in entry_files(self.cache_dir)
                         if entry[0].endswith(".pkl"))
        if not entries:
            return
        digest = hashlib.sha256(self.cache_dir.encode()).digest()
        _, victim = entries[int.from_bytes(digest[:4], "big") % len(entries)]
        try:
            with open(victim, "wb") as fh:
                fh.write(b"\xffchaos-garbage\xff")
        except OSError:
            pass


class ChaosPlan:
    """Maps *(task id, dispatch index)* to a :class:`ChaosAction`.

    Build one with :meth:`random` (seeded probability bands over every
    task) or :meth:`explicit` (exact per-task actions, for tests).
    Plans cross the fork boundary with the worker; they hold no open
    resources and no mutable state.
    """

    def __init__(self, actions: Optional[dict[str, ChaosAction]] = None,
                 seed: Optional[int] = None,
                 rates: Optional[dict[str, float]] = None,
                 hang_seconds: float = 30.0, slow_seconds: float = 0.05,
                 flaky_failures: int = 2,
                 cache_dir: Optional[str] = None) -> None:
        self._explicit = actions
        self.seed = seed
        self.rates = dict(rates) if rates is not None else None
        self.hang_seconds = hang_seconds
        self.slow_seconds = slow_seconds
        self.flaky_failures = flaky_failures
        self.cache_dir = cache_dir

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, seed: int, rates: Optional[dict[str, float]] = None,
               hang_seconds: float = 30.0, slow_seconds: float = 0.05,
               flaky_failures: int = 2,
               cache_dir: Optional[str] = None) -> "ChaosPlan":
        """A seeded plan hitting roughly ``sum(rates.values())`` of all
        tasks, each with exactly one fault kind.

        Every task's fate is ``sha256(f"{seed}:{task_id}")`` banded
        against cumulative ``rates`` in :data:`RANDOM_KINDS` order --
        deterministic, order-independent, and independent of which
        worker runs the task.  ``flaky_failures`` is clamped below the
        pool's default retry budget so flaky tasks always recover
        in-worker.
        """
        resolved = dict(DEFAULT_RATES)
        if rates is not None:
            unknown = set(rates) - set(RANDOM_KINDS)
            if unknown:
                raise ValueError(f"unknown chaos kinds: {sorted(unknown)}")
            resolved.update(rates)
        total = sum(resolved.values())
        if total > 1.0:
            raise ValueError(f"chaos rates sum to {total:.3f} > 1")
        return cls(seed=seed, rates=resolved, hang_seconds=hang_seconds,
                   slow_seconds=slow_seconds,
                   flaky_failures=min(flaky_failures,
                                      POOL_RETRY_BUDGET - 1),
                   cache_dir=cache_dir)

    @classmethod
    def explicit(cls, actions: dict[str, ChaosAction]) -> "ChaosPlan":
        """A plan applying exactly ``actions`` (test construction)."""
        return cls(actions=dict(actions))

    # ------------------------------------------------------------------
    def _derive(self, task_id: str) -> Optional[ChaosAction]:
        fraction = _fraction(self.seed, task_id)
        cumulative = 0.0
        for kind in RANDOM_KINDS:
            cumulative += self.rates.get(kind, 0.0)
            if fraction < cumulative:
                if kind == "hang":
                    return ChaosAction(kind, seconds=self.hang_seconds)
                if kind == "slow":
                    return ChaosAction(kind, seconds=self.slow_seconds)
                if kind == "flaky":
                    return ChaosAction(kind, attempts=self.flaky_failures)
                if kind == "cache-corrupt":
                    return ChaosAction(kind, cache_dir=self.cache_dir)
                return ChaosAction(kind)
        return None

    def action(self, task_id: str,
               dispatch: int) -> Optional[ChaosAction]:
        """The fault to apply on this dispatch of ``task_id``, if any.

        ``dispatch`` counts from 1 across *all* sends of the task (the
        pool increments it for crash retries, reap retries and backoff
        redispatches alike), so destructive faults never recur and
        every task eventually runs clean.
        """
        if self._explicit is not None:
            action = self._explicit.get(task_id)
        elif self.seed is not None and self.rates is not None:
            action = self._derive(task_id)
        else:
            action = None
        if action is None or not action.applies(dispatch):
            return None
        return action

    def kind_for(self, task_id: str) -> Optional[str]:
        """The fault kind scheduled for ``task_id`` (diagnostics)."""
        action = self.action(task_id, 1)
        return action.kind if action is not None else None

    def describe(self) -> dict:
        """Provenance block for BENCH_*.json."""
        if self._explicit is not None:
            return {"mode": "explicit",
                    "tasks": {tid: a.kind
                              for tid, a in sorted(self._explicit.items())}}
        return {"mode": "random", "seed": self.seed, "rates": self.rates,
                "hang_seconds": self.hang_seconds,
                "slow_seconds": self.slow_seconds,
                "flaky_failures": self.flaky_failures}
