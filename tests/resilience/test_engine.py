"""The unit engine's persistence protocol, as one executable statement.

DESIGN.md §12 "The unit engine" states the ordering in prose: replay,
then replayed quarantine, then the cache probe, then dispatch intent,
execution, ``cache.put`` and ``record_done``.  These tests drive
:func:`run_units` with a fake unit function and a recording journal
and cache, and pin each rule.
"""

import os

import pytest

from repro.experiments.driver import FleetDriver, shutdown_shared_pool
from repro.fleet.config import FleetConfig
from repro.journal.cli import timing_rows
from repro.journal.log import replay_records
from repro.journal.pipelines import open_fleet_journal, open_sweep_journal
from repro.journal.registry import list_runs
from repro.journal.run import NullJournal, open_run
from repro.resilience import ChaosPlan, RetryPolicy
from repro.resilience.engine import Unit, run_units
from repro.sweep import CampaignSpec, FaultAxis, SweepRunner

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05)

#: Payloads the fake unit function ran in this process (inline only).
CALLS = []


def _square(payload):
    CALLS.append(payload)
    return payload * payload


class _Killed(Exception):
    """Stands in for SIGKILL between ``cache.put`` and ``record_done``."""


class RecordingJournal(NullJournal):
    """A journal that logs every record into a shared event list."""

    def __init__(self, events, replayed=None, quarantined=(), kill=None):
        self.events = events
        self.replayed = dict(replayed or {})
        self.replayed_quarantined = tuple(quarantined)
        self.kill = kill

    def is_done(self, unit_id):
        return unit_id in self.replayed

    def record_dispatched(self, unit_id, attempt):
        self.events.append(("dispatched", unit_id, attempt))

    def record_done(self, unit_id, payload, wall_s, executed=True):
        if unit_id == self.kill:
            raise _Killed(unit_id)
        self.events.append(("done", unit_id, executed))

    def record_quarantined(self, unit_id, fault_kind):
        self.events.append(("quarantined", unit_id))


class RecordingCache:
    """A dict-backed cache that logs writes into the same event list."""

    def __init__(self, events, objects=None):
        self.events = events
        self.objects = dict(objects or {})

    def get(self, key, default=None):
        return self.objects.get(key, default)

    def put(self, key, payload):
        self.events.append(("put", key))
        self.objects[key] = payload


def _units(n):
    return [Unit(f"u{i}", i, key=f"k{i}") for i in range(n)]


def _run(units, journal, cache=None, workers=1, **kwargs):
    results, holes = [], []
    run_units(
        units, _square, workers=workers, journal=journal, cache=cache,
        context="test",
        on_result=lambda unit, result, wall: results.append(
            (unit.id, result, wall is None)
        ),
        on_hole=lambda unit: holes.append(unit.id),
        **kwargs,
    )
    return results, holes


@pytest.fixture(autouse=True)
def _clear_calls():
    CALLS.clear()


def test_precedence_replay_then_quarantine_then_cache_then_execute():
    events = []
    # Every unit is cached, so only the rule that wins can explain
    # where each result came from.
    cache = RecordingCache(events, {f"k{i}": f"cached{i}" for i in range(3)})
    journal = RecordingJournal(
        events, replayed={"u0": "journaled0", "u1": "journaled1"},
        quarantined=["u1", "u2"],
    )
    results, holes = _run(_units(4), journal, cache)
    assert results == [
        ("u0", "journaled0", True),  # replay beats the cache
        ("u1", "journaled1", True),  # replay beats a stale quarantine
        ("u3", 9, False),            # nothing held it: executed
    ]
    assert holes == ["u2"]           # quarantine beats the cache
    assert CALLS == [3]
    assert events == [
        ("dispatched", "u3", 0),
        ("put", "k3"),
        ("done", "u3", True),
    ]


def test_cache_hit_journals_one_unexecuted_done():
    events = []
    cache = RecordingCache(events, {"k1": "cached1"})
    results, _ = _run(_units(2), RecordingJournal(events), cache)
    assert ("u1", "cached1", True) in results
    assert events.count(("done", "u1", False)) == 1
    assert not any(e[1] == "u1" for e in events if e[0] == "dispatched")
    assert CALLS == [0]


def test_put_precedes_record_done_for_every_executed_unit():
    events = []
    _run(_units(3), RecordingJournal(events), RecordingCache(events))
    for i in range(3):
        assert events.index(("put", f"k{i}")) < events.index(
            ("done", f"u{i}", True)
        )


def test_every_pooled_attempt_is_journaled_retries_included():
    events = []
    plan = ChaosPlan(kind="crash", probability=1.0)  # attempt 0 only
    try:
        results, holes = _run(
            _units(4), RecordingJournal(events), RecordingCache(events),
            workers=2, policy=FAST, chaos=plan,
        )
    finally:
        shutdown_shared_pool()
    assert sorted(results) == [(f"u{i}", i * i, False) for i in range(4)]
    assert holes == []
    for i in range(4):
        unit = f"u{i}"
        attempts = [e[2] for e in events if e[:2] == ("dispatched", unit)]
        assert attempts == [0, 1]
        assert events.index(("put", f"k{i}")) < events.index(
            ("done", unit, True)
        )


def test_null_and_real_journal_stream_the_same_results(tmp_path):
    units = _units(3)
    plain, _ = _run(units, NullJournal())
    with open_run(
        str(tmp_path), kind="test", config={}, plan={},
        units=[unit.id for unit in units],
    ) as journal:
        journaled, _ = _run(units, journal)
        assert journal.stats.executed == 3
    assert plain == journaled


def test_cached_but_unjournaled_unit_resumes_from_the_cache():
    events = []
    cache = RecordingCache(events)
    with pytest.raises(_Killed):
        _run(_units(3), RecordingJournal(events, kill="u1"), cache)
    assert CALLS == [0, 1]
    assert "k1" in cache.objects  # the kill landed after the put
    CALLS.clear()
    events.clear()
    results, _ = _run(
        _units(3), RecordingJournal(events, replayed={"u0": 0}), cache
    )
    assert CALLS == [2]  # u1 loaded from the cache, never re-executed
    assert results == [("u0", 0, True), ("u1", 1, True), ("u2", 4, False)]
    assert ("done", "u1", False) in events


def test_pooled_runs_journal_measured_unit_walls(tmp_path):
    """Pooled fleet chunks and sweep cells journal their own compute
    time, so ``repro runs show --timing`` can flag outliers."""
    root = str(tmp_path)
    config = FleetConfig(n_nodes=4, agent="overclock", seed=5, duration_s=10)
    spec = CampaignSpec(
        name="walls", agents=("overclock",), scales=(2,), seeds=(0,),
        duration_s=10, rack_size=1,
        faults=(
            FaultAxis(kind="bad_data", intensities=(0.9,), start_s=2,
                      duration_s=5, racks=(0,)),
        ),
    )
    with open_fleet_journal(root, config, 2) as journal:
        FleetDriver(config, workers=2, journal=journal).run()
    with open_sweep_journal(root, spec) as journal:
        SweepRunner(spec, workers=2, journal=journal).run()
    runs = list_runs(root)
    assert sorted(info.kind for info in runs) == ["fleet", "sweep"]
    for info in runs:
        records, _valid = replay_records(
            os.path.join(info.directory, "log.bin")
        )
        executed = [
            row for row in timing_rows(records)
            if row["source"] == "executed"
        ]
        assert len(executed) == info.total_units >= 2
        assert all(row["wall"] > 0 for row in executed), info.kind
