"""Resilient execution substrate (DESIGN.md §11).

The paper's thesis applied to our own harness: learning-agent
experiments only belong in a long-running service when the layer that
executes them survives worker death, hangs, and corrupted state — and
proves it under injected faults.  This package supplies that layer:

* :mod:`~repro.resilience.pool` — a supervised worker pool
  (per-worker queues, liveness checks, targeted kill + respawn);
* :mod:`~repro.resilience.policy` — retry/backoff policy with
  deterministic seeded jitter;
* :mod:`~repro.resilience.supervisor` — the dispatch loop: retries,
  poison-unit quarantine, explicit holes instead of dying;
* :mod:`~repro.resilience.engine` — the unit engine every pipeline runs
  through: journal replay, cache probe, inline or supervised execution
  and the persistence ordering around them;
* :mod:`~repro.resilience.quarantine` — persisted quarantine records;
* :mod:`~repro.resilience.chaos` — seeded fault injection
  (crash / hang / slow workers, corrupted cache writes), the building
  blocks of the ``repro chaos`` harness (:mod:`repro.chaos`).
"""

from repro.resilience.chaos import (
    CHAOS_FAULT_KINDS,
    ChaosCache,
    ChaosPlan,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import PoolCounters, SupervisedPool
from repro.resilience.quarantine import QuarantineLog, QuarantineRecord
from repro.resilience.supervisor import (
    AttemptFailure,
    DispatchCancelled,
    DispatchOutcome,
    cancel_token,
    set_cancel_token,
    supervised_map,
)

__all__ = [
    "AttemptFailure",
    "CHAOS_FAULT_KINDS",
    "ChaosCache",
    "ChaosPlan",
    "DispatchCancelled",
    "DispatchOutcome",
    "PoolCounters",
    "QuarantineLog",
    "QuarantineRecord",
    "RetryPolicy",
    "SupervisedPool",
    "cancel_token",
    "set_cancel_token",
    "supervised_map",
]
