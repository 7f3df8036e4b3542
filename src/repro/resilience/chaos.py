"""Fault injection for the execution substrate itself.

The paper's method is to trust a learning agent only after watching it
survive injected faults; this module applies the same discipline to our
own worker pool.  A :class:`ChaosPlan` is a *seeded, deterministic*
description of which work units get which fault:

* ``crash`` — the worker process exits hard (``os._exit``) the moment
  it picks up a selected unit: the task is lost, the supervisor must
  notice the dead process and retry.
* ``hang`` — the worker sleeps far past any reasonable deadline: only
  the per-unit timeout can recover the slot.
* ``slow`` — the worker sleeps briefly, then runs the unit normally:
  the supervisor must tolerate stragglers without killing them.
* ``corrupt_cache`` — applied on the *parent* side via
  :class:`ChaosCache`: selected cache writes are garbled on disk, so a
  later read must quarantine the object instead of trusting it.

Selection is a pure function of ``(seed, unit_id)`` — no RNG state, no
wall clock — so a chaos run is exactly reproducible, and the committed
chaos suite can assert the *exact* set of faulted/quarantined units.
Faults normally fire only on attempt 0 (``fault_attempts``), proving
that retries recover; units listed in ``poison_units`` fault on every
attempt, proving that quarantine engages and the run degrades to an
explicit hole rather than dying.

Worker-side faults are applied by :func:`apply_worker_fault`, which the
supervised worker loop calls before executing each task.  It refuses to
fire outside a worker process (``_IN_WORKER``), so an accidentally
activated plan can never ``os._exit`` the main process.  Plans travel
to workers inside the task tuple (not via environment inheritance, so
a warm pool spawned before the plan existed still honors it).  A plan
is only ever passed explicitly (``chaos=``); ``repro chaos`` is the one
CLI entry that builds one.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.cache.store import ResultCache

__all__ = [
    "CHAOS_FAULT_KINDS",
    "ChaosCache",
    "ChaosPlan",
    "apply_worker_fault",
]

CHAOS_FAULT_KINDS = ("crash", "hang", "corrupt_cache", "slow")

#: Set by the supervised worker bootstrap; worker-side faults refuse to
#: fire when this is False (i.e. in the main process).
_IN_WORKER = False


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic fault-injection plan.

    Attributes:
        kind: one of :data:`CHAOS_FAULT_KINDS`.
        probability: per-unit selection probability (hashed, not drawn:
            a unit is selected iff ``hash(seed, unit_id) < p``).
        seed: selection seed; changing it selects a different subset.
        fault_attempts: zero-based attempts on which a selected unit
            faults (default: first attempt only, so retries recover).
        poison_units: unit ids that fault on *every* attempt — these
            must end up quarantined, exactly and by name.
        hang_s: sleep length for ``hang`` (far beyond any deadline).
        slow_s: sleep length for ``slow`` (within any sane deadline).
        exit_code: worker exit code for ``crash`` (diagnostic only).
    """

    kind: str
    probability: float = 0.0
    seed: int = 0
    fault_attempts: Tuple[int, ...] = (0,)
    poison_units: Tuple[str, ...] = ()
    hang_s: float = 3600.0
    slow_s: float = 0.2
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_FAULT_KINDS:
            raise ValueError(
                f"unknown chaos fault {self.kind!r}; "
                f"expected one of {CHAOS_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    # -- selection -----------------------------------------------------------

    def selects(self, unit_id: str) -> bool:
        """Whether this plan targets ``unit_id`` at all (pure in seed)."""
        if unit_id in self.poison_units:
            return True
        if self.probability <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{unit_id}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return fraction < self.probability

    def should_fault(self, unit_id: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` of ``unit_id`` gets the fault."""
        if unit_id in self.poison_units:
            return True
        return self.selects(unit_id) and attempt in self.fault_attempts

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "probability": self.probability,
            "seed": self.seed,
            "fault_attempts": list(self.fault_attempts),
            "poison_units": list(self.poison_units),
            "hang_s": self.hang_s,
            "slow_s": self.slow_s,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        return cls(
            kind=str(data["kind"]),
            probability=float(data.get("probability", 0.0)),
            seed=int(data.get("seed", 0)),
            fault_attempts=tuple(
                int(a) for a in data.get("fault_attempts", (0,))
            ),
            poison_units=tuple(
                str(u) for u in data.get("poison_units", ())
            ),
            hang_s=float(data.get("hang_s", 3600.0)),
            slow_s=float(data.get("slow_s", 0.2)),
            exit_code=int(data.get("exit_code", 23)),
        )

    def describe(self) -> str:
        parts = [f"fault={self.kind}", f"p={self.probability!r}",
                 f"seed={self.seed}"]
        if self.poison_units:
            parts.append(f"poison={','.join(self.poison_units)}")
        return " ".join(parts)


def apply_worker_fault(
    plan: Optional[Dict[str, Any]], unit_id: str, attempt: int
) -> None:
    """Apply ``plan``'s worker-side fault to this task, if selected.

    Called by the supervised worker loop before executing each unit.
    ``corrupt_cache`` is a parent-side fault and is a no-op here.
    Refuses to fire in the main process: crash/hang faults must only
    ever take down a supervised worker.
    """
    if not plan or not _IN_WORKER:
        return
    chaos = ChaosPlan.from_dict(plan)
    if not chaos.should_fault(unit_id, attempt):
        return
    if chaos.kind == "crash":
        os._exit(chaos.exit_code)
    elif chaos.kind == "hang":
        time.sleep(chaos.hang_s)
    elif chaos.kind == "slow":
        time.sleep(chaos.slow_s)


@dataclass
class ChaosCache(ResultCache):
    """A :class:`ResultCache` whose selected writes are corrupted.

    Every ``put`` lands normally and is then garbled on disk when the
    plan selects its key — modeling a write torn by a crashed or buggy
    writer *after* it was addressed.  A later ``get`` of that key must
    quarantine the object (DESIGN.md §11) and degrade to a miss, never
    return garbage.  Selection hashes the cache key with the plan's
    seed, so the corrupted subset is exactly reproducible.
    """

    plan: Optional[ChaosPlan] = field(default=None)
    corrupted_keys: list = field(default_factory=list)

    def put(self, key: str, payload: Any) -> None:
        super().put(key, payload)
        if self.plan is None or self.plan.kind != "corrupt_cache":
            return
        if not self.plan.selects(key):
            return
        with open(self._object_path(key), "wb") as handle:
            handle.write(b"chaos: torn write\0")
        self.corrupted_keys.append(key)
