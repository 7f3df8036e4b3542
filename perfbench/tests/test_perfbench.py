"""Tests of the benchmark's own machinery (not of the program).

Run with ``python -m pytest perfbench/tests -q`` from the repository
root; the root ``conftest.py`` puts ``src/`` on the path.
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import Bench, percentile  # noqa: E402
from layers import LayerProfiler  # noqa: E402
import serve_load  # noqa: E402

from repro.conformance.scenarios import GOLDEN_FLEET_CONFIGS  # noqa: E402
from repro.experiments.driver import (  # noqa: E402
    FleetDriver,
    shutdown_shared_pool,
)
from repro.perf.baselines import GOLDEN_FLEET_DIGESTS  # noqa: E402

GOLDEN = "mixed_6x15_seed3"


def _digest(workers: int = 1) -> str:
    config = GOLDEN_FLEET_CONFIGS[GOLDEN]
    return FleetDriver(config, workers=workers).run().digest()


def test_wrappers_leave_digests_unchanged(tmp_path):
    profiler = LayerProfiler(str(tmp_path))
    before = _digest()
    profiler.install()
    try:
        installed = profiler.installed()
        wrapped = _digest()
        data = profiler.collect()
    finally:
        profiler.remove()
    after = _digest()
    assert before == wrapped == after == GOLDEN_FLEET_DIGESTS[GOLDEN]
    assert data["calls"]["node"] > 0 and data["self_s"]["core"] > 0
    # Removal puts back the very objects that were there before.
    assert len(installed) > 100
    for owner, name, original in installed:
        assert owner.__dict__[name] is original, name


def test_pool_workers_inherit_wrappers_and_flush(tmp_path):
    profiler = LayerProfiler(str(tmp_path))
    shutdown_shared_pool()
    profiler.install()
    try:
        digest = _digest(workers=2)
        data = profiler.collect()
    finally:
        shutdown_shared_pool()
        profiler.remove()
    assert digest == GOLDEN_FLEET_DIGESTS[GOLDEN]
    assert data["counts"]["fleet.units"] >= 2
    assert data["counts"]["worker.unit_wall_s"] > 0
    assert data["calls"]["agents"] > 0  # counted in the workers


class _FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def time(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class _FakeServer:
    """Admits (or refuses) submissions; every job runs 10 ms, serially,
    and the first submission stalls the client for 0.5 s."""

    def __init__(self, clock: _FakeClock, refuse=()) -> None:
        self.clock = clock
        self.refuse = set(refuse)
        self.jobs = []
        self.free_at = 0.0

    def submit(self, kind, config, workers=None):
        index = len(self.jobs)
        if index == 0:
            self.clock.sleep(0.5)
        self.jobs.append(None)
        if index in self.refuse:
            return {"ok": False, "error": "queue full", "backpressure": True}
        started = max(self.clock.now, self.free_at)
        self.free_at = started + 0.01
        self.jobs[index] = {
            "job_id": f"job-{index}", "status": "done",
            "submitted_at": self.clock.now, "started_at": started,
            "finished_at": self.free_at, "digest": "d",
            "counters": {"executed": 1, "replayed": 0, "total": 1},
        }
        return {"ok": True, "job_id": f"job-{index}"}

    def status(self):
        return {"ok": True, "jobs": [j for j in self.jobs if j]}


_CFG = {
    "replay_age_s": 100.0, "replay_every": 5, "min_nodes": 2,
    "max_nodes": 2, "job_seconds": 5, "workers": 2,
    "drain_timeout_s": 5.0, "status_poll_s": 0.01,
}


def test_open_loop_latency_is_timed_from_the_due_time():
    clock = _FakeClock()
    server = _FakeServer(clock)
    requests = serve_load.schedule(random.Random(0), 3, 10.0, 1, _CFG)
    start = clock.now
    serve_load.send_phase(server, requests, _CFG, start,
                          clock=clock.time, sleep=clock.sleep)
    got = serve_load.latencies(requests, start)
    # Job 1 was due at +0.1 s but could only be sent at +0.5 s, after
    # the stalled first submission; its latency includes that wait.
    assert requests[1].sent_at - (start + requests[1].due) == pytest.approx(
        0.4)
    assert got[1] == pytest.approx(0.5 + 0.02 - 0.1)
    assert got[0] == pytest.approx(0.51)
    assert got[2] == pytest.approx(server.jobs[2]["finished_at"]
                                   - (start + 0.2))


def test_refused_jobs_count_as_failures(tmp_path):
    clock = _FakeClock()
    requests = serve_load.schedule(random.Random(0), 4, 10.0, 1, _CFG)
    serve_load.send_phase(_FakeServer(clock, refuse={2}), requests, _CFG,
                          clock.now, clock=clock.time, sleep=clock.sleep)
    problems = serve_load.problems(requests)
    assert [p is None for p in problems] == [True, True, False, True]
    assert "refused" in problems[2]
    bench = Bench(root=str(tmp_path), work=str(tmp_path), seed=0,
                  seconds=1.0)
    serve_load.count_outcomes(bench, requests)
    assert (bench.attempted, bench.failed) == (4, 1)
    latencies = serve_load.latencies(requests, 1000.0)
    assert latencies[2] == float("inf")
    assert percentile(latencies, 90) == float("inf")  # misses any limit
