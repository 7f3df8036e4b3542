"""Parallel experiment driver: shard fleets and reproductions over a pool.

Two fan-outs live here (DESIGN.md §5):

* :class:`FleetDriver` shards the nodes of a
  :class:`~repro.fleet.config.FleetConfig` across a ``multiprocessing``
  pool.  Because each node's spec and seed derive only from
  ``(fleet seed, node_id)``, shard shape and completion order cannot
  affect results; aggregates from ``workers=1`` and ``workers=N`` are
  bit-identical (the tests pin this via
  :meth:`~repro.fleet.aggregate.FleetAggregate.digest`).

* :func:`reproduce_all` runs every paper table/figure — serially, or
  sharded below artifact granularity: every decomposed figure
  (see :data:`SERIES_SPECS`) contributes one work unit per independent
  ``(artifact, series)`` scenario, so the full pass scales past the
  twelve artifacts and fig7's nine 1500-sim-second scenarios spread
  across the pool instead of wall-clocking the tail.  Every unit is
  deterministic given its arguments alone, so the parallel pass
  reproduces the serial rows exactly; only wall-clock changes.

Incremental reproduction (DESIGN.md §8) builds on the same unit
purity: with a :class:`~repro.cache.ResultCache`, every unit is looked
up by content address before being executed, executed payloads are
stored as they stream back, and figures assemble from cached rows —
a warm re-run executes zero units and emits bit-identical digests.
Executed unit walls are recorded (and persisted with the cache) and
fed back into longest-first dispatch, replacing the simulated-seconds
estimate for every unit that has been measured before.

Workers are plain processes; each imports :mod:`repro` afresh, so the
pool works both with an installed package and with the ``src/``-path
bootstrap (the worker bootstrap replays this process's ``sys.path``).
The pool itself is *warm*: one process-wide pool is created on first
use and reused by every fleet run, ``reproduce_all`` pass,
``repro bench`` invocation, and robustness-campaign sweep
(:class:`repro.sweep.SweepRunner`) in the process, so repeated runs
stop paying pool spawn + re-import per call (:func:`shared_pool`).

Both fan-outs are adapters over one unit engine
(:func:`~repro.resilience.engine.run_units`, DESIGN.md §12 "The unit
engine"): they build a plan of units, order it, hand it to the engine,
then assemble and seal.  Replay, quarantine, the cache probe, inline or
supervised pooled execution (:class:`~repro.resilience.pool.
SupervisedPool`, DESIGN.md §11) and the journal ordering all live
there, once.
"""

from __future__ import annotations

import atexit
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import ResultCache, unit_key
from repro.experiments.common import ExperimentResult, experiment_digest
from repro.obs import spans as obs
from repro.obs.metrics import HistogramFamily
from repro.fleet.aggregate import FleetAggregate, FleetAggregateBuilder
from repro.fleet.config import FleetConfig
from repro.fleet.node import NodeResult
from repro.fleet.scenario import FleetScenario
from repro.journal.run import NullJournal, RunJournal
from repro.resilience.chaos import ChaosPlan
from repro.resilience.engine import Unit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import PoolCounters, SupervisedPool
from repro.resilience.quarantine import QuarantineLog

__all__ = [
    "ARTIFACTS",
    "SERIES_SPECS",
    "ArtifactRun",
    "FleetDriver",
    "artifact_units",
    "reproduce_all",
    "runs_digest",
    "shared_pool",
    "shared_pool_counters",
    "shutdown_shared_pool",
]


# -- warm worker pool --------------------------------------------------------

_shared_pool: Optional[SupervisedPool] = None
_shared_pool_size = 0


def shared_pool(workers: int) -> SupervisedPool:
    """The process-wide warm worker pool, sized for ``workers``.

    Created on first use and reused by every subsequent fleet run,
    ``reproduce_all`` pass, sweep, and bench invocation in this process
    — the spawn + re-import cost is paid once, not per call.  A request
    for more workers than the current pool holds replaces it with a
    larger one; a request for fewer reuses the existing pool (idle
    workers are near-free, and shard/unit results never depend on pool
    size — DESIGN.md §5/§7 — so only wall-clock could differ).

    The pool is a :class:`~repro.resilience.pool.SupervisedPool`
    (DESIGN.md §11): per-worker queues, observable liveness, targeted
    kill + respawn — the substrate :func:`supervised_map` needs to
    retry and quarantine instead of hanging on a dead worker.
    """
    global _shared_pool, _shared_pool_size
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if _shared_pool is not None and _shared_pool_size < workers:
        shutdown_shared_pool()
    if _shared_pool is None:
        _shared_pool = SupervisedPool(
            processes=workers, path=list(sys.path)
        )
        _shared_pool_size = workers
    return _shared_pool


def shared_pool_counters() -> Dict[str, int]:
    """Observability snapshot of the warm pool (all zeros when cold).

    ``size`` is the live pool's worker count (0 with no pool); the rest
    are the pool's cumulative :class:`~repro.resilience.pool.
    PoolCounters`.  Counters reset with the pool — a grow-replacement
    or shutdown starts them over, which is the honest reading (they
    describe *this* pool's lifetime).
    """
    if _shared_pool is None:
        return {"size": 0, **PoolCounters().snapshot()}
    return {"size": _shared_pool.size, **_shared_pool.counters.snapshot()}


def shutdown_shared_pool() -> None:
    """Terminate the warm pool (no-op when none exists)."""
    global _shared_pool, _shared_pool_size
    if _shared_pool is not None:
        _shared_pool.terminate()
        _shared_pool = None
        _shared_pool_size = 0


atexit.register(shutdown_shared_pool)


def _run_shard(
    payload: Tuple[FleetConfig, Tuple[int, ...]]
) -> List[NodeResult]:
    config, node_ids = payload
    return FleetScenario(config).run(node_ids)


class FleetDriver:
    """Run a fleet across worker processes and aggregate the results.

    Args:
        config: the fleet to simulate.
        workers: worker processes; ``1`` (or a one-node fleet) runs
            in-process with no pool at all.
        resilience: retry/backoff/deadline policy for pooled dispatch
            (default :class:`~repro.resilience.policy.RetryPolicy`()).
        quarantine: where poisoned chunks are persisted (optional).
        chaos: fault-injection plan (tests and ``repro chaos`` only;
            default: none).
        journal: crash-consistent run ledger (DESIGN.md §12).  A
            journaled run uses the *manifest's* frozen chunk plan,
            replays journaled chunks instead of re-simulating them, and
            seals with the aggregate digest.
    """

    def __init__(
        self,
        config: FleetConfig,
        workers: int = 1,
        resilience: Optional[RetryPolicy] = None,
        quarantine: Optional[QuarantineLog] = None,
        chaos: Optional[ChaosPlan] = None,
        journal: Optional[RunJournal] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        self.workers = min(workers, config.n_nodes)
        self.resilience = resilience
        self.quarantine = quarantine
        self.chaos = chaos
        self.journal = journal or NullJournal()

    def shards(self) -> List[Tuple[int, ...]]:
        """Round-robin node-id shards, one per worker.

        Round-robin (not contiguous chunks) spreads the heterogeneous
        SKU/agent mix evenly, so no worker gets all the expensive
        nodes.  Kept as the coarse partition; :meth:`chunks` subdivides
        it for work-stealing-style dispatch.
        """
        return [
            tuple(range(w, self.config.n_nodes, self.workers))
            for w in range(self.workers)
        ]

    def chunks(self) -> List[Tuple[int, ...]]:
        """Node-id chunks sized for ``imap_unordered`` dispatch.

        Several small chunks per worker (rather than one shard each)
        keep the pool busy when node costs are skewed — a straggler
        holds back only its own chunk, and idle workers pull the
        remaining chunks instead of waiting.  Chunks subdivide the
        round-robin shards, preserving the even SKU/agent spread.
        """
        per_shard = max(1, min(4, self.config.n_nodes // self.workers))
        chunks: List[Tuple[int, ...]] = []
        for shard in self.shards():
            step = max(1, -(-len(shard) // per_shard))
            chunks.extend(
                shard[i:i + step] for i in range(0, len(shard), step)
            )
        return chunks

    def plan(self) -> Dict[str, Tuple[int, ...]]:
        """The chunk plan: unit id -> node ids, in dispatch order.

        A journal freezes this plan into its manifest at the run's
        first invocation (:func:`repro.journal.pipelines.
        open_fleet_journal`).
        """
        return {
            f"chunk{index:03d}(n{chunk[0]}+{len(chunk)})": chunk
            for index, chunk in enumerate(self.chunks())
        }

    def run(self) -> FleetAggregate:
        """Simulate the whole fleet and return the aggregate.

        Chunks run through the unit engine
        (:func:`~repro.resilience.engine.run_units`): replayed from the
        journal where it holds them, otherwise executed — inline, or
        supervised on the warm shared pool — and streamed into a
        :class:`FleetAggregateBuilder` as they land.  The reduction is
        order-independent and the builder canonicalizes node order, so
        completion order cannot move a bit.  Chunks that keep failing
        are quarantined, and the aggregate reports their node ids as
        explicit ``holes`` instead of the run dying.  The chunk plan of
        a journaled run is the manifest's, never re-derived — so a
        resume under a different ``--workers`` executes exactly the
        un-journaled chunks of the original plan.
        """
        with obs.span(
            "pipeline", cat="fleet",
            nodes=self.config.n_nodes, workers=self.workers,
        ):
            return self._run()

    def _run(self) -> FleetAggregate:
        plan = self.journal.manifest.get("plan", {}).get("chunks")
        builder = FleetAggregateBuilder()
        holes: List[int] = []
        run_units(
            [
                Unit(unit_id, (self.config, tuple(int(n) for n in chunk)))
                for unit_id, chunk in (plan or self.plan()).items()
            ],
            _run_shard,
            workers=self.workers,
            journal=self.journal,
            policy=self.resilience,
            quarantine=self.quarantine,
            chaos=self.chaos,
            context="fleet",
            on_result=lambda _unit, results, _wall: builder.add_many(
                results
            ),
            on_hole=lambda unit: holes.extend(unit.payload[1]),
        )
        aggregate = builder.build(holes=holes)
        self.journal.seal(aggregate.digest())
        return aggregate


# -- reproduce-all ----------------------------------------------------------

#: Artifact registry: name -> (callable, kwargs builder).  The kwargs
#: builder takes the duration scale (1.0 full, ~0.33 for --quick) and
#: returns the experiment's arguments — the same values
#: ``examples/reproduce_paper.py`` has always used.
ARTIFACT_SPECS: Dict[str, Tuple[str, Callable[[float], Dict[str, Any]]]] = {
    "table1": ("tables.table1_taxonomy", lambda s: {}),
    "table2": ("tables.table2_learning_agents", lambda s: {}),
    "fig1": ("overclock.fig1_overclock_vs_static",
             lambda s: {"seconds": int(900 * s)}),
    "fig2": ("overclock.fig2_invalid_data",
             lambda s: {"seconds": int(600 * s)}),
    "fig3": ("overclock.fig3_broken_model",
             lambda s: {"seconds": int(600 * s)}),
    "fig4": ("overclock.fig4_delayed_predictions",
             lambda s: {"seconds": int(300 * s) + 200}),
    "fig5": ("overclock.fig5_actuator_safeguard",
             lambda s: {"seconds": int(900 * s)}),
    "fig6-left": ("harvest.fig6_invalid_data",
                  lambda s: {"seconds": int(240 * s)}),
    "fig6-middle": ("harvest.fig6_broken_model",
                    lambda s: {"seconds": int(240 * s)}),
    "fig6-right": ("harvest.fig6_delayed_predictions",
                   lambda s: {"seconds": int(240 * s)}),
    "fig7": ("memory.fig7_smartmemory_vs_static",
             lambda s: {"seconds": int(1500 * s)}),
    "fig8": ("memory.fig8_memory_safeguards",
             lambda s: {"seconds": int(920 * s)}),
}

#: Canonical artifact order (paper order).
ARTIFACTS: Tuple[str, ...] = tuple(ARTIFACT_SPECS)

#: Sub-artifact series registry (DESIGN.md §7): artifact -> the dotted
#: paths of its ``series``/``unit``/``assemble`` triple.  Artifacts not
#: listed here (tables, the fig5 time series) are single-kernel and run
#: whole.  Each triple obeys the work-unit contract: ``series(**kwargs)``
#: lists canonical unit keys without simulating anything, ``unit(key,
#: **kwargs)`` runs one key to a small picklable payload seeded only by
#: its arguments, and ``assemble(units, **kwargs)`` derives the rows —
#: so shard shape and completion order cannot affect a single row bit.
SERIES_SPECS: Dict[str, Tuple[str, str, str]] = {
    "fig1": ("overclock.fig1_series", "overclock.fig1_unit",
             "overclock.fig1_assemble"),
    "fig2": ("overclock.fig2_series", "overclock.fig2_unit",
             "overclock.fig2_assemble"),
    "fig3": ("overclock.fig3_series", "overclock.fig3_unit",
             "overclock.fig3_assemble"),
    "fig4": ("overclock.fig4_series", "overclock.fig4_unit",
             "overclock.fig4_assemble"),
    "fig6-left": ("harvest.fig6_invalid_data_series",
                  "harvest.fig6_invalid_data_unit",
                  "harvest.fig6_invalid_data_assemble"),
    "fig6-middle": ("harvest.fig6_broken_model_series",
                    "harvest.fig6_broken_model_unit",
                    "harvest.fig6_broken_model_assemble"),
    "fig6-right": ("harvest.fig6_delayed_predictions_series",
                   "harvest.fig6_delayed_predictions_unit",
                   "harvest.fig6_delayed_predictions_assemble"),
    "fig7": ("memory.fig7_series", "memory.fig7_unit",
             "memory.fig7_assemble"),
    "fig8": ("memory.fig8_series", "memory.fig8_unit",
             "memory.fig8_assemble"),
}


def _resolve(path: str) -> Callable[..., Any]:
    module_name, func_name = path.rsplit(".", 1)
    module = __import__(
        f"repro.experiments.{module_name}", fromlist=[func_name]
    )
    return getattr(module, func_name)


@dataclass
class ArtifactRun:
    """One reproduced artifact plus its wall time.

    ``holes`` lists the quarantined unit ids of a *partial* artifact —
    one whose work units kept failing under supervision and were
    poisoned (DESIGN.md §11).  Empty on every complete run, so the
    field is invisible to the overwhelmingly common case.
    """

    name: str
    result: ExperimentResult
    wall_seconds: float
    holes: Tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.holes)


def _hole_run(
    name: str, holes: Sequence[str], wall_seconds: float
) -> ArtifactRun:
    """Placeholder run for an artifact with quarantined units.

    The artifact cannot be assembled (its ``assemble`` step needs every
    series payload), so the run degrades to an explicit partial: the
    result names each quarantined unit instead of fabricating rows.
    """
    ordered = sorted(holes)
    result = ExperimentResult(
        name=name,
        title=f"PARTIAL — {len(ordered)} unit(s) quarantined",
        columns=["unit", "status"],
        rows=[{"unit": unit, "status": "quarantined"} for unit in ordered],
        notes=[
            "units exhausted their retry budget and were quarantined; "
            "see the quarantine log for failure records",
        ],
    )
    return ArtifactRun(name, result, wall_seconds, holes=tuple(ordered))


def _run_series_unit(payload: Tuple[str, Optional[str], float]) -> Any:
    """Worker entry: one ``(artifact, series)`` unit's payload.

    A ``None`` series is a whole single-kernel artifact, whose payload
    is its :class:`ExperimentResult`.
    """
    name, series, scale = payload
    path, kwargs_builder = ARTIFACT_SPECS[name]
    if series is None:
        return _resolve(path)(**kwargs_builder(scale))
    _series_path, unit_path, _assemble_path = SERIES_SPECS[name]
    return _resolve(unit_path)(series, **kwargs_builder(scale))


def artifact_units(name: str, scale: float) -> List[Tuple[str, Optional[str]]]:
    """The ``(artifact, series)`` work units of one artifact.

    Single-kernel artifacts yield one ``(name, None)`` unit; decomposed
    artifacts yield one unit per series key, in canonical key order.
    """
    spec = SERIES_SPECS.get(name)
    if spec is None:
        return [(name, None)]
    series_path, _unit_path, _assemble_path = spec
    _path, kwargs_builder = ARTIFACT_SPECS[name]
    keys = _resolve(series_path)(**kwargs_builder(scale))
    return [(name, key) for key in keys]


def _estimated_unit_cost(name: str, n_units: int, scale: float) -> float:
    """Rough per-unit cost for longest-first dispatch (simulated seconds
    split across the artifact's units; tables get a nominal epsilon).
    Fallback only: measured walls take priority (:func:`_dispatch_costs`)."""
    _path, kwargs_builder = ARTIFACT_SPECS[name]
    seconds = kwargs_builder(scale).get("seconds", 0)
    return max(float(seconds), 1.0) / max(n_units, 1)


# -- incremental reproduction (DESIGN.md §8) ---------------------------------

#: Measured wall-time histograms per work unit, keyed by
#: ``"artifact/series@scale"`` (DESIGN.md §14).  Session-wide; merged
#: with (and persisted to) the cache's recorded summaries when a cache
#: is in play.  Longest-first dispatch reads each key's ``last``
#: observation — exactly the value the old flat ``unit_walls.json``
#: table held — while count/total/min/max accumulate for ``repro runs
#: show --timing`` and the telemetry sidecar.
_unit_timings = HistogramFamily()


def _wall_key(name: str, series: Optional[str], scale: float) -> str:
    return f"{name}/{series or ''}@{scale!r}"


def _cache_key(name: str, series: Optional[str], scale: float) -> str:
    _path, kwargs_builder = ARTIFACT_SPECS[name]
    return unit_key(name, series, scale, kwargs_builder(scale))


def _dispatch_costs(
    payloads: Sequence[Tuple[str, Optional[str], float]],
    units_by_artifact: Dict[str, List[Tuple[str, Optional[str]]]],
    scale: float,
) -> Dict[Tuple[str, Optional[str]], float]:
    """Per-unit dispatch cost: measured wall where known, calibrated
    estimate otherwise.

    Measured walls (seconds) and the simulated-seconds heuristic live on
    different scales, so when both appear in one work list the heuristic
    is multiplied by the median measured-to-estimated ratio of the units
    that have both — keeping longest-first meaningful for the not-yet-
    measured remainder.  Purely cosmetic for results (dispatch order
    cannot affect a row bit); it only shapes the makespan.
    """
    measured: Dict[Tuple[str, Optional[str]], float] = {}
    estimated: Dict[Tuple[str, Optional[str]], float] = {}
    ratios: List[float] = []
    for name, series, _scale in payloads:
        estimate = _estimated_unit_cost(
            name, len(units_by_artifact[name]), scale
        )
        estimated[(name, series)] = estimate
        wall = _unit_timings.last(_wall_key(name, series, scale))
        if wall is not None:
            measured[(name, series)] = wall
            ratios.append(wall / estimate)
    if not ratios:
        return estimated
    ratios.sort()
    calibration = ratios[len(ratios) // 2]
    return {
        unit: measured.get(unit, estimate * calibration)
        for unit, estimate in estimated.items()
    }


def _load_recorded_walls(cache: Optional[ResultCache]) -> None:
    if cache is not None:
        # Session-recorded observations win over persisted summaries
        # (the old ``setdefault`` merge): the family keeps its own
        # ``last`` for keys measured this session.
        _unit_timings.absorb(cache.load_unit_timings())


def _persist_recorded_walls(
    cache: Optional[ResultCache], executed: Dict[str, float]
) -> None:
    if cache is not None and executed:
        cache.save_unit_timings(_unit_timings.export(executed))


def _assemble_artifact(
    name: str,
    scale: float,
    units: Dict[Optional[str], Any],
    wall_seconds: float,
) -> ArtifactRun:
    if None in units:  # whole-artifact unit: the result *is* the payload
        return ArtifactRun(name, units[None], wall_seconds)
    _series_path, _unit_path, assemble_path = SERIES_SPECS[name]
    _path, kwargs_builder = ARTIFACT_SPECS[name]
    result = _resolve(assemble_path)(units, **kwargs_builder(scale))
    return ArtifactRun(name, result, wall_seconds)


def runs_digest(runs: Sequence[ArtifactRun]) -> str:
    """One digest over a whole reproduce pass: names, row digests, holes.

    Canonical (sorted by artifact name) and wall-independent, so an
    interrupted-then-resumed pass seals with the same digest as an
    uninterrupted one iff every artifact's rows agree bit-for-bit.
    """
    import hashlib
    import json

    payload = json.dumps(
        [
            {
                "name": run.name,
                "digest": experiment_digest(run.result),
                "holes": list(run.holes),
            }
            for run in sorted(runs, key=lambda r: r.name)
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reproduce_all(
    parallel: bool = False,
    workers: Optional[int] = None,
    scale: float = 1.0,
    only: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[ArtifactRun], None]] = None,
    cache: Optional[ResultCache] = None,
    resilience: Optional[RetryPolicy] = None,
    quarantine: Optional[QuarantineLog] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Optional[RunJournal] = None,
) -> List[ArtifactRun]:
    """Regenerate every table and figure, serially or sharded.

    Every artifact expands to its ``(artifact, series)`` work units
    (:func:`artifact_units`), which run longest-first through the unit
    engine (:func:`~repro.resilience.engine.run_units`) and assemble
    per artifact as the last of its units lands.

    Args:
        parallel: shard the pass across worker processes.
        workers: pool size (default: CPU count, capped at the number of
            work units).
        scale: duration scale; ``~0.33`` is the ``--quick`` pass.
        only: restrict to these artifact names (canonical order kept).
        on_result: called with each run as soon as it is available, in
            canonical order — lets callers stream output during a
            minutes-long full pass instead of printing at the end.
        cache: consult (and fill) this result cache per work unit —
            unchanged units load instead of executing, so a warm re-run
            assembles every figure without running a single simulation,
            bit-identically (DESIGN.md §8).  ``None`` disables caching.
        resilience: retry/backoff/deadline policy for pooled dispatch
            (default :class:`RetryPolicy`(); DESIGN.md §11).
        quarantine: where poisoned units are persisted (optional).
        chaos: fault-injection plan override (tests/harness only).
        journal: crash-consistent run ledger (DESIGN.md §12): journaled
            units replay instead of executing (or probing the cache),
            completions are recorded durably, and the pass seals with
            :func:`runs_digest`.

    Returns:
        Runs in canonical (paper) order regardless of completion order.
        Each run's ``wall_seconds`` is the *sum* of its executed units'
        walls (its CPU cost — near zero on a warm cache), not its
        elapsed span.
    """
    with obs.span(
        "pipeline", cat="reproduce", scale=scale, parallel=parallel,
    ):
        return _reproduce_all_impl(
            parallel, workers, scale, only, on_result,
            cache, resilience, quarantine, chaos, journal or NullJournal(),
        )


def _reproduce_all_impl(
    parallel: bool,
    workers: Optional[int],
    scale: float,
    only: Optional[Sequence[str]],
    on_result: Optional[Callable[[ArtifactRun], None]],
    cache: Optional[ResultCache],
    resilience: Optional[RetryPolicy],
    quarantine: Optional[QuarantineLog],
    chaos: Optional[ChaosPlan],
    journal: Any,
) -> List[ArtifactRun]:
    names = [n for n in ARTIFACTS if only is None or n in only]
    unknown = set(only or ()) - set(ARTIFACTS)
    if unknown:
        raise ValueError(f"unknown artifacts: {sorted(unknown)}")
    _load_recorded_walls(cache)
    units_by_artifact = {name: artifact_units(name, scale) for name in names}
    plan = [
        (name, series, scale)
        for name in names
        for _name, series in units_by_artifact[name]
    ]
    # Longest-first dispatch keeps the 1500-sim-second fig7 scenarios
    # from landing last and re-creating the straggler tail the
    # decomposition exists to remove.  Costs are measured unit walls
    # where available (recorded this session or persisted with the
    # cache), the calibrated simulated-seconds estimate otherwise.  The
    # sort is deterministic (cost, then canonical order) and cannot
    # affect results, only wall time.
    costs = _dispatch_costs(plan, units_by_artifact, scale)
    order = {name: i for i, name in enumerate(names)}
    plan.sort(key=lambda p: (-costs[(p[0], p[1])], order[p[0]]))

    collected: Dict[str, Dict[Optional[str], Any]] = {n: {} for n in names}
    walls: Dict[str, float] = {n: 0.0 for n in names}
    remaining = {n: len(units_by_artifact[n]) for n in names}
    holes_by_artifact: Dict[str, List[str]] = {n: [] for n in names}
    executed_walls: Dict[str, float] = {}
    assembled: Dict[str, ArtifactRun] = {}
    runs: List[ArtifactRun] = []

    def settle(name: str) -> None:
        """One more unit of ``name`` is in; assemble and stream when
        it was the last (runs stream out in canonical order)."""
        remaining[name] -= 1
        if remaining[name] > 0:
            return
        if holes_by_artifact[name]:
            # At least one unit was poisoned: the artifact cannot be
            # assembled.  Degrade to an explicit partial instead of
            # dying (DESIGN.md §11).
            assembled[name] = _hole_run(
                name, holes_by_artifact[name], walls[name]
            )
        else:
            assembled[name] = _assemble_artifact(
                name, scale, collected.pop(name), walls[name]
            )
        while len(runs) < len(names) and names[len(runs)] in assembled:
            runs.append(assembled.pop(names[len(runs)]))
            if on_result is not None:
                on_result(runs[-1])

    def unit_done(unit: Unit, payload: Any, wall: Optional[float]) -> None:
        name, series, _scale = unit.payload
        if wall is not None:
            _unit_timings.observe(unit.id, wall)
            executed_walls[unit.id] = wall
            walls[name] += wall
        collected[name][series] = payload
        settle(name)

    def unit_hole(unit: Unit) -> None:
        holes_by_artifact[unit.payload[0]].append(unit.id)
        settle(unit.payload[0])

    try:
        run_units(
            [
                Unit(_wall_key(*coords), coords, _cache_key(*coords))
                for coords in plan
            ],
            _run_series_unit,
            workers=(workers or os.cpu_count() or 1) if parallel else 1,
            journal=journal,
            cache=cache,
            policy=resilience,
            quarantine=quarantine,
            chaos=chaos,
            context="reproduce",
            on_result=unit_done,
            on_hole=unit_hole,
        )
    finally:
        # Completed units are cached (or journaled) even when the pass
        # dies: keep their walls too.
        _persist_recorded_walls(cache, executed_walls)
    journal.seal(runs_digest(runs))
    return runs
