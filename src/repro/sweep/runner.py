"""The campaign runner: cache-aware, longest-first parallel dispatch.

:class:`SweepRunner` executes a :class:`~repro.sweep.spec.CampaignSpec`
through the same unit engine ``reproduce_all`` uses
(:func:`~repro.resilience.engine.run_units`): every cell is first
probed in the content-addressed result cache under its ``sweep::`` key;
only misses execute, longest-first (estimated node-seconds), on the
process-wide warm worker pool when more than one worker is asked for.
A warm re-run therefore executes zero cells, and editing one axis of a
campaign re-executes only the changed cells — everything else loads.

Cell results are pure functions of cell coordinates, so completion
order and worker count cannot change a record bit; the
:class:`~repro.sweep.safety.CampaignReport` digest pins this.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.cache import ResultCache, sweep_unit_key
from repro.journal.run import NullJournal, RunJournal
from repro.obs import spans as obs
from repro.resilience.chaos import ChaosPlan
from repro.resilience.engine import Unit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.quarantine import QuarantineLog
from repro.sweep.safety import CampaignReport, SafetyRecord
from repro.sweep.spec import CampaignSpec
from repro.sweep.units import run_unit

__all__ = ["SweepRunner"]


class SweepRunner:
    """Run one campaign, incrementally and (optionally) in parallel.

    Args:
        spec: the campaign grid.
        workers: worker processes; 1 runs cells inline, >1 dispatches
            cache misses onto the shared warm pool through the
            supervised dispatcher (DESIGN.md §11) — cells whose workers
            die or stall retry, poison cells become explicit report
            holes.
        cache: consult (and fill) this result cache per cell; ``None``
            recomputes everything.
        resilience: retry/backoff/deadline policy for pooled dispatch.
        quarantine: where poisoned cells are persisted (optional).
        chaos: fault-injection plan override (tests/harness only).
        journal: crash-consistent run ledger (DESIGN.md §12): journaled
            cells replay instead of probing the cache or executing,
            completions (cache hits included) are recorded durably, and
            the campaign seals with the report digest.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        resilience: Optional[RetryPolicy] = None,
        quarantine: Optional[QuarantineLog] = None,
        chaos: Optional[ChaosPlan] = None,
        journal: Optional[RunJournal] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.workers = workers
        self.cache = cache
        self.resilience = resilience
        self.quarantine = quarantine
        self.chaos = chaos
        self.journal = journal or NullJournal()

    def run(self) -> CampaignReport:
        """Execute the grid and aggregate the safety scoreboard."""
        with obs.span(
            "pipeline", cat="sweep",
            campaign=self.spec.name, workers=self.workers,
        ):
            return self._run()

    def _run(self) -> CampaignReport:
        started = time.perf_counter()
        units = self.spec.expand()
        records: Dict[str, SafetyRecord] = {}
        holes: List[str] = []
        executed = 0

        def cell_done(unit: Unit, record: SafetyRecord,
                      wall: Optional[float]) -> None:
            nonlocal executed
            records[unit.id] = record
            executed += wall is not None

        # Longest-first dispatch (estimated node-seconds, then canonical
        # order): the biggest fleets land first so they never trail the
        # makespan.  Purely a wall-clock concern — results cannot move.
        plan = sorted(units, key=lambda u: (-u.estimated_cost(), u.sort_key()))
        run_units(
            [
                Unit(c.unit_id(), c, sweep_unit_key(c.cache_payload()))
                for c in plan
            ],
            run_unit,
            workers=self.workers,
            journal=self.journal,
            cache=self.cache,
            policy=self.resilience,
            quarantine=self.quarantine,
            chaos=self.chaos,
            context="sweep",
            on_result=cell_done,
            on_hole=lambda unit: holes.append(unit.id),
        )
        report = CampaignReport.build(
            self.spec.name,
            records.values(),
            executed=executed,
            from_cache=len(units) - executed - len(holes),
            wall_seconds=time.perf_counter() - started,
            holes=sorted(holes),
        )
        self.journal.seal(report.digest())
        return report
