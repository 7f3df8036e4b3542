"""The unit engine: the one execution loop every pipeline runs through.

Fleet chunks, reproduce-all series units and sweep cells are all the
same thing to the engine — a :class:`Unit` with an id, a picklable
payload for a pure worker function, and (optionally) a content address
in the result cache.  :func:`run_units` owns the persistence ordering
DESIGN.md §12 "The unit engine" states, in exactly one place:

1. **replay** — a unit the journal already holds is served from it;
2. **quarantine** — a unit the journal already quarantined stays a hole;
3. **probe** — a cache hit is journaled ``executed=False`` and served;
4. **intent** — every attempt is journaled ``record_dispatched`` first;
5. **execute** — inline when only one worker (or one unit) is needed,
   otherwise through :func:`~repro.resilience.supervisor.supervised_map`
   onto the warm shared pool;
6. **put** then **record_done** — the cache write lands before the
   journal record, so a kill between the two leaves a cached-but-
   unjournaled unit that a resume re-loads instead of re-executing.

Sealing is the caller's: only the pipeline knows its digest.  An
un-journaled run passes a :class:`~repro.journal.run.NullJournal`, so
it takes the very same path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.obs import spans as obs
from repro.resilience.chaos import ChaosPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.quarantine import QuarantineLog
from repro.resilience.supervisor import supervised_map

__all__ = ["Unit", "run_units"]

_MISS = object()


@dataclass(frozen=True)
class Unit:
    """One schedulable piece of work.

    Attributes:
        id: journal / quarantine / span identity.
        payload: the worker function's argument (must pickle).
        key: content address in the result cache (needed only when a
            cache is passed).
    """

    id: str
    payload: Any
    key: Optional[str] = None


def _timed(task: Tuple[Callable[[Any], Any], Any]) -> Tuple[Any, float]:
    """Worker entry (pooled and inline alike): ``(fn(payload), wall)``.

    Measured where the unit runs, so every executed unit's journaled
    wall is its own compute time — never the dispatcher's guess.
    """
    fn, payload = task
    started = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - started


def run_units(
    units: Sequence[Unit],
    fn: Callable[[Any], Any],
    *,
    workers: int,
    journal: Any,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    quarantine: Optional[QuarantineLog] = None,
    chaos: Optional[ChaosPlan] = None,
    context: str,
    on_result: Callable[[Unit, Any, Optional[float]], None],
    on_hole: Callable[[Unit], None],
) -> None:
    """Run every unit, in the given order, under the engine protocol.

    Args:
        units: the plan, already ordered (callers sort longest-first).
        fn: picklable worker function, called as ``fn(unit.payload)``;
            pass it as resolved at call time, so rebinding the module
            attribute (profilers, tests) reaches the workers.
        workers: pool size; the pool is used only when more than one
            worker *and* more than one pending unit remain.
        journal: a :class:`~repro.journal.run.RunJournal`, a delegating
            wrapper of one, or a :class:`~repro.journal.run.NullJournal`.
        cache: probed before, and filled after, execution by each
            unit's ``key``; ``None`` disables.
        policy / quarantine / chaos: forwarded to the supervised
            dispatcher (pooled units only).
        context: span and quarantine-record provenance tag.
        on_result: ``(unit, result, wall)`` once per completed unit;
            ``wall`` is the measured compute time for units executed
            here and ``None`` for replayed or cache-served ones.
        on_hole: ``(unit)`` once per quarantined unit, replayed or new.
    """
    pending = []
    for unit in units:
        if journal.is_done(unit.id):
            on_result(unit, journal.replayed[unit.id], None)
        elif unit.id in journal.replayed_quarantined:
            on_hole(unit)
        else:
            hit = _MISS if cache is None else cache.get(unit.key, _MISS)
            if hit is _MISS:
                pending.append(unit)
            else:
                journal.record_done(unit.id, hit, 0.0, executed=False)
                on_result(unit, hit, None)
    by_id = {unit.id: unit for unit in pending}

    def finish(unit_id: str, timed: Tuple[Any, float]) -> None:
        result, wall = timed
        unit = by_id[unit_id]
        if cache is not None:
            cache.put(unit.key, result)
        journal.record_done(unit_id, result, wall)
        on_result(unit, result, wall)

    def hole(record: Any) -> None:
        journal.record_quarantined(record.unit_id, record.kind)
        on_hole(by_id[record.unit_id])

    workers = min(workers, len(pending))
    if workers <= 1:
        for unit in pending:
            journal.record_dispatched(unit.id, 0)
            with obs.span(unit.id, cat="unit", context=context):
                timed = _timed((fn, unit.payload))
            finish(unit.id, timed)
        return
    # The warm pool lives with the driver; resolved per call so tests
    # and profilers that rebind it are honored.
    from repro.experiments import driver

    supervised_map(
        _timed,
        [(unit.id, (fn, unit.payload)) for unit in pending],
        workers=workers,
        pool_factory=driver.shared_pool,
        pool_shutdown=driver.shutdown_shared_pool,
        policy=policy,
        quarantine=quarantine,
        chaos=chaos,
        on_dispatch=journal.record_dispatched,
        on_result=finish,
        on_quarantine=hole,
        context=context,
    )
