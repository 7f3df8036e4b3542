"""Journal bindings for the three long-running pipelines.

Each pipeline gets a **config payload** (the exact dict its
deterministic ``run_id`` hashes over and its manifest records) and an
``open_*_journal`` helper that expands the run's unit list the same way
the pipeline itself will.  The payload is also sufficient to
*reconstruct* the pipeline — ``repro runs resume <run_id>`` rebuilds
the fleet config / artifact selection / campaign spec from the manifest
alone, so a resume needs no memory of the original command line.

Unit identities must match the pipeline's own ids bit-for-bit:

* fleet: the chunk ids of :meth:`FleetDriver.chunks` (the chunk plan is
  frozen into the manifest, so a resume under a different ``--workers``
  replays the *original* chunking — chunk shape cannot move results,
  but the journal's unit list must stay stable);
* reproduce: ``artifact/series@scale`` unit keys
  (:func:`repro.experiments.driver._wall_key`);
* sweep: :meth:`SweepUnit.unit_id` in canonical expansion order.

The last section is the one kind -> pipeline dispatch every caller that
starts a pipeline from a payload goes through: ``repro runs resume``,
``repro serve`` jobs, and the crash harnesses' uninterrupted baselines
and resumes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.experiments.driver import (
    ARTIFACTS,
    FleetDriver,
    artifact_units,
    reproduce_all,
    runs_digest,
    _wall_key,
)
from repro.fleet.config import FaultPlan, FleetConfig
from repro.journal.registry import RunInfo
from repro.journal.run import RunJournal, open_run
from repro.obs import run_tracing
from repro.resilience import ChaosPlan, QuarantineLog, RetryPolicy
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import CampaignSpec

__all__ = [
    "fleet_config_from_payload",
    "fleet_payload",
    "open_fleet_journal",
    "open_journal",
    "open_reproduce_journal",
    "open_sweep_journal",
    "reproduce_payload",
    "reproduce_selection_from_payload",
    "resume_pipeline",
    "run_pipeline",
    "spec_from_payload",
    "sweep_payload",
    "uninterrupted_digest",
]


# -- fleet -------------------------------------------------------------------


def fleet_payload(config: FleetConfig) -> Dict[str, Any]:
    fault = None
    if config.fault is not None:
        fault = {
            "racks": list(config.fault.racks),
            "start_s": config.fault.start_s,
            "duration_s": config.fault.duration_s,
            "probability": config.fault.probability,
            "kind": config.fault.kind,
        }
    return {
        "n_nodes": config.n_nodes,
        "agent": config.agent,
        "seed": config.seed,
        "duration_s": config.duration_s,
        "rack_size": config.rack_size,
        "fault": fault,
    }


def fleet_config_from_payload(payload: Dict[str, Any]) -> FleetConfig:
    fault = payload.get("fault")
    plan = None
    if fault is not None:
        plan = FaultPlan(
            racks=tuple(int(r) for r in fault["racks"]),
            start_s=int(fault["start_s"]),
            duration_s=int(fault["duration_s"]),
            probability=float(fault["probability"]),
            kind=str(fault["kind"]),
        )
    return FleetConfig(
        n_nodes=int(payload["n_nodes"]),
        agent=str(payload["agent"]),
        seed=int(payload["seed"]),
        duration_s=int(payload["duration_s"]),
        rack_size=int(payload["rack_size"]),
        fault=plan,
    )


def open_fleet_journal(
    cache_root: str,
    config: FleetConfig,
    workers: int,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    lease_ttl_s: float = 30.0,
) -> RunJournal:
    """Journal for one fleet run; the chunk plan freezes in the manifest.

    The run id hashes the fleet *config* only (not ``workers``): the
    same fleet maps to the same journal no matter the pool size, and a
    resume adopts the manifest's chunk plan (``verify_units=False``)
    rather than re-deriving chunks from the current worker count.
    """
    driver = FleetDriver(config, workers=workers)
    chunks = {
        unit_id: list(chunk) for unit_id, chunk in driver.plan().items()
    }
    return open_run(
        cache_root,
        kind="fleet",
        config=fleet_payload(config),
        plan={"chunks": chunks, "workers": driver.workers},
        units=list(chunks),
        resume=resume,
        run_id=run_id,
        verify_units=False,
        lease_ttl_s=lease_ttl_s,
    )


# -- reproduce-all -----------------------------------------------------------


def reproduce_payload(
    names: Sequence[str], scale: float
) -> Dict[str, Any]:
    return {"artifacts": list(names), "scale": float(scale)}


def reproduce_selection_from_payload(
    payload: Dict[str, Any],
) -> "tuple[List[str], float]":
    names = [str(n) for n in payload["artifacts"]]
    return names, float(payload["scale"])


def open_reproduce_journal(
    cache_root: str,
    only: Optional[Sequence[str]],
    scale: float,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    lease_ttl_s: float = 30.0,
) -> RunJournal:
    names = [n for n in ARTIFACTS if only is None or n in only]
    unknown = set(only or ()) - set(ARTIFACTS)
    if unknown:
        raise ValueError(f"unknown artifacts: {sorted(unknown)}")
    unit_ids = [
        _wall_key(name, series, scale)
        for name in names
        for _name, series in artifact_units(name, scale)
    ]
    return open_run(
        cache_root,
        kind="reproduce",
        config=reproduce_payload(names, scale),
        plan={"artifacts": list(names)},
        units=unit_ids,
        resume=resume,
        run_id=run_id,
        lease_ttl_s=lease_ttl_s,
    )


# -- sweep -------------------------------------------------------------------


def sweep_payload(spec: CampaignSpec) -> Dict[str, Any]:
    """The :meth:`CampaignSpec.from_dict`-shaped payload of a spec."""
    return {
        "name": spec.name,
        "agents": list(spec.agents),
        "scales": list(spec.scales),
        "seeds": list(spec.seeds),
        "duration_s": spec.duration_s,
        "rack_size": spec.rack_size,
        "fault": [
            {
                "kind": axis.kind,
                "intensities": list(axis.intensities),
                "start_s": axis.start_s,
                "duration_s": axis.duration_s,
                "racks": list(axis.racks),
            }
            for axis in spec.faults
        ],
    }


def spec_from_payload(payload: Dict[str, Any]) -> CampaignSpec:
    return CampaignSpec.from_dict(payload)


def open_sweep_journal(
    cache_root: str,
    spec: CampaignSpec,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    lease_ttl_s: float = 30.0,
) -> RunJournal:
    unit_ids = [unit.unit_id() for unit in spec.expand()]
    return open_run(
        cache_root,
        kind="sweep",
        config=sweep_payload(spec),
        plan={"campaign": spec.name},
        units=unit_ids,
        resume=resume,
        run_id=run_id,
        lease_ttl_s=lease_ttl_s,
    )


# -- one kind -> pipeline dispatch -------------------------------------------


def open_journal(
    cache_root: str,
    kind: str,
    payload: Dict[str, Any],
    workers: int = 1,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
) -> RunJournal:
    """Open (or, with ``resume``, adopt) a ``kind`` run's journal from
    its config payload — the manifest's ``config`` is one."""
    if kind == "fleet":
        return open_fleet_journal(
            cache_root, fleet_config_from_payload(payload), workers,
            resume=resume, run_id=run_id,
        )
    if kind == "reproduce":
        names, scale = reproduce_selection_from_payload(payload)
        return open_reproduce_journal(
            cache_root, names, scale, resume=resume, run_id=run_id
        )
    if kind == "sweep":
        return open_sweep_journal(
            cache_root, spec_from_payload(payload),
            resume=resume, run_id=run_id,
        )
    raise ValueError(f"unknown run kind {kind!r}")


def run_pipeline(
    kind: str,
    payload: Dict[str, Any],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    journal: Any = None,
    policy: Optional[RetryPolicy] = None,
    quarantine: Optional[QuarantineLog] = None,
    chaos: Optional[ChaosPlan] = None,
) -> Any:
    """Run the ``kind`` pipeline a config payload describes.

    Returns the pipeline's own result: a
    :class:`~repro.fleet.aggregate.FleetAggregate`, the list of
    :class:`~repro.experiments.driver.ArtifactRun`, or a
    :class:`~repro.sweep.safety.CampaignReport`.  ``journal`` may be any
    journal-shaped object (``repro serve`` passes its event tap); the
    fleet pipeline never caches, so ``cache`` reaches only the others.
    ``policy``, ``quarantine`` and ``chaos`` go to the supervised
    dispatch of every kind (``repro chaos`` runs its worker faults
    through them).
    """
    if kind == "fleet":
        return FleetDriver(
            fleet_config_from_payload(payload), workers=workers,
            resilience=policy, quarantine=quarantine, chaos=chaos,
            journal=journal,
        ).run()
    if kind == "reproduce":
        names, scale = reproduce_selection_from_payload(payload)
        return reproduce_all(
            parallel=workers > 1, workers=workers, scale=scale,
            only=names, cache=cache, resilience=policy,
            quarantine=quarantine, chaos=chaos, journal=journal,
        )
    if kind == "sweep":
        return SweepRunner(
            spec_from_payload(payload), workers=workers, cache=cache,
            resilience=policy, quarantine=quarantine, chaos=chaos,
            journal=journal,
        ).run()
    raise ValueError(f"unknown run kind {kind!r}")


def uninterrupted_digest(
    kind: str, payload: Dict[str, Any], workers: int = 1
) -> str:
    """The digest a run seals when nothing interrupts it (no journal,
    no cache) — the crash harnesses' ground truth."""
    result = run_pipeline(kind, payload, workers=workers)
    return runs_digest(result) if kind == "reproduce" else result.digest()


def resume_pipeline(
    cache_root: str,
    info: RunInfo,
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace: bool = True,
) -> Tuple[RunJournal, Any]:
    """Finish a journaled run from its manifest alone, and seal it.

    ``workers`` defaults to the manifest plan's (fleet), else 1.  The
    resumed process appends its own segment to the run's telemetry
    sidecar (DESIGN.md §14).  Returns the closed journal and the
    pipeline's result.
    """
    payload = info.manifest["config"]
    if workers is None:
        workers = int(info.manifest.get("plan", {}).get("workers", 1))
    with open_journal(
        cache_root, info.kind, payload, workers,
        resume=True, run_id=info.run_id,
    ) as journal:
        with run_tracing(
            journal, enabled_=trace, kind=info.kind, resumed=True
        ):
            result = run_pipeline(
                info.kind, payload, workers=workers, cache=cache,
                journal=journal,
            )
    return journal, result
