"""``serve-open``: an open-loop job stream against ``repro serve``.

The benchmark starts the server as a subprocess with a cache dir of its
own and feeds it from one thread, one connection at a time.  Jobs are
small overclock fleets (2-8 nodes, distinct seeds); every fifth
submission resends a config sent at least ``replay_age_s`` earlier,
which the server answers by replaying the sealed journal.  Jobs go out
at two fixed rates, ``light`` then ``heavy``, each phase drained before
the next.  A job's latency is its ``finished_at`` minus the time it was
*due* to be sent, so a stall in the generator or the server counts
against every job behind it.  Refused submissions and jobs that end in
any state but ``done`` count as failed and as missing every latency
limit (``inf``).
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import micro
from common import (
    Bench,
    calibration_us,
    median,
    peak_rss_mb,
    percentile,
    tail,
    tail_pct,
    wait_process,
)
from layers import LayerProfiler
from report import layer_metrics
from workloads import SETUP_REPS, Metrics, Workload

_INF = float("inf")

#: The job mix and the two fixed rates.  ``light_rate`` and
#: ``heavy_rate`` (jobs/s) were picked once from the seed code's
#: capacity (see README.md) and are never recomputed.
SERVE = {
    "light_rate": 6.0,
    "heavy_rate": 10.0,
    "min_jobs": 100,  # per phase, however short the window
    "trace_jobs": 40,
    "job_seconds": 30,  # simulated seconds per job
    "min_nodes": 2,
    "max_nodes": 8,
    # Inline, as ``repro fleet`` runs by default.  Sent to the pool,
    # these 2-8 node jobs took no less time, and their execution time
    # jumped between two levels (35 and 65 ms) from run to run.
    "workers": 1,
    "replay_every": 5,  # every fifth request resends an earlier config
    "replay_age_s": 2.0,  # a resent config was due this long before
    "queue_limit": 64,
    "sampled_checks": 3,  # jobs re-run in process and compared
    "drain_timeout_s": 60.0,
    "status_poll_s": 0.1,
    "warmup_jobs": 5,
}


@dataclass
class Request:
    """One scheduled submission and what became of it."""

    due: float  # seconds after the phase's start
    nodes: int
    job_seed: int
    replay_of: Optional[int] = None  # index of the request it resends
    job_id: Optional[str] = None
    refused: Optional[str] = None
    sent_at: float = math.nan  # absolute time.time()
    admit_s: float = math.nan
    view: Optional[Dict[str, Any]] = None


def schedule(rng: random.Random, count: int, rate: float, first_seed: int,
             cfg: Dict[str, Any]) -> List[Request]:
    """``count`` requests at a fixed ``rate`` (jobs/s) from ``rng``.

    Job sizes are dealt from shuffled decks holding each size from
    ``min_nodes`` to ``max_nodes`` once, and every ``replay_every``-th
    request resends a config due ``replay_age_s`` earlier.  So the seed
    changes which jobs run and in what order, not how much work a phase
    holds: a free draw of sizes and replays moved the median job size,
    and with it every execution time, from seed to seed.
    """
    requests: List[Request] = []
    deck: List[int] = []
    for index in range(count):
        due = index / rate
        eligible = [
            i for i, r in enumerate(requests)
            if r.replay_of is None and r.due <= due - cfg["replay_age_s"]
        ]
        if eligible and index % cfg["replay_every"] == 0:
            original = requests[rng.choice(eligible)]
            requests.append(Request(due, original.nodes, original.job_seed,
                                    replay_of=requests.index(original)))
            continue
        if not deck:
            deck = list(range(cfg["min_nodes"], cfg["max_nodes"] + 1))
            rng.shuffle(deck)
        requests.append(Request(due, deck.pop(), first_seed + index))
    return requests


def job_config(request: Request, cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.fleet.config import FleetConfig
    from repro.journal.pipelines import fleet_payload

    return fleet_payload(FleetConfig(
        n_nodes=request.nodes, agent="overclock", seed=request.job_seed,
        duration_s=cfg["job_seconds"],
    ))


def send_phase(client: Any, requests: List[Request], cfg: Dict[str, Any],
               start: float, clock=time.time, sleep=time.sleep) -> None:
    """Submit every request at ``start + due``, then wait until every
    admitted job is terminal and attach its final view."""
    from repro.serve.client import ServeUnavailable

    for request in requests:
        due = start + request.due
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        request.sent_at = clock()
        try:
            reply = client.submit("fleet", job_config(request, cfg),
                                  workers=cfg["workers"])
        except ServeUnavailable as error:
            reply = {"ok": False, "error": str(error)}
        request.admit_s = clock() - request.sent_at
        if reply.get("ok"):
            request.job_id = reply["job_id"]
        else:
            request.refused = str(reply.get("error", "refused"))
    wanted = {r.job_id for r in requests if r.job_id is not None}
    deadline = time.monotonic() + cfg["drain_timeout_s"]
    views: Dict[str, Dict[str, Any]] = {}
    while wanted - set(views) and time.monotonic() < deadline:
        try:
            reply = client.status()
        except ServeUnavailable:
            break
        for view in reply.get("jobs", []):
            if view["job_id"] in wanted and view["status"] in (
                "done", "failed", "cancelled", "expired", "drained",
            ):
                views[view["job_id"]] = view
        if wanted - set(views):
            sleep(cfg["status_poll_s"])
    for request in requests:
        request.view = views.get(request.job_id)


def latencies(requests: List[Request], start: float) -> List[float]:
    """Due-to-finished seconds; ``inf`` for refused or failed jobs."""
    out = []
    for request in requests:
        view = request.view
        if view is None or view.get("status") != "done":
            out.append(_INF)
        else:
            out.append(view["finished_at"] - (start + request.due))
    return out


def problems(requests: List[Request]) -> List[Optional[str]]:
    """Per request: ``None`` if it ended well, else what went wrong."""
    out: List[Optional[str]] = []
    for request in requests:
        view = request.view
        if request.refused is not None:
            out.append(f"refused: {request.refused}")
        elif view is None:
            out.append(f"{request.job_id} never finished")
        elif view.get("status") != "done":
            out.append(f"{request.job_id} ended {view.get('status')}: "
                       f"{view.get('error')}")
        elif request.replay_of is not None:
            original = requests[request.replay_of].view or {}
            if view.get("digest") != original.get("digest"):
                out.append(f"{request.job_id} replay sealed another digest")
            else:
                out.append(None)
        else:
            out.append(None)
    return out


def count_outcomes(bench: Bench, requests: List[Request]) -> None:
    """One operation per request; refused or failed ones count failed."""
    for problem in problems(requests):
        bench.operation(problem is None, problem or "")


def is_dedup_replay(request: Request) -> bool:
    view = request.view or {}
    counters = view.get("counters") or {}
    return (request.replay_of is not None and view.get("status") == "done"
            and counters.get("executed") == 0
            and counters.get("replayed") == counters.get("total"))


class Server:
    """One ``repro serve start`` subprocess on its own cache dir.

    ``flush_dir`` set: started through ``serve_main.py``, which
    installs the layer wrappers in the server before it forks its pool.
    """

    def __init__(self, bench: Bench, cache_root: str,
                 flush_dir: Optional[str] = None) -> None:
        self.bench = bench
        # Relative: AF_UNIX paths are short, checkouts may not be.
        self.socket = os.path.relpath(
            os.path.join(cache_root, "serve.sock"), bench.root
        )
        command = [sys.executable]
        if flush_dir is None:
            command += ["-m", "repro"]
        else:
            command += [os.path.join(os.path.dirname(__file__),
                                     "serve_main.py"), flush_dir]
        command += [
            "serve", "start", "--cache-dir", cache_root,
            "--socket", self.socket,
            "--queue-limit", str(SERVE["queue_limit"]),
        ]
        self.log = open(os.path.join(cache_root, "server.log"), "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=bench.root, env=bench.env(),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        from repro.serve.client import ServeClient, wait_for_server

        try:
            wait_for_server(self.socket, timeout=30.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        self.client = ServeClient(self.socket, timeout=30.0)

    def stop(self) -> None:
        """Drain the server and wait for it (kill after a grace)."""
        from repro.serve.client import ServeClient, ServeUnavailable

        if self.process.poll() is None:
            try:
                ServeClient(self.socket, timeout=10.0).drain()
            except (ServeUnavailable, OSError):
                self.process.terminate()
        wait_process(self.process, 30.0)
        self.log.close()


class ServeOpen(Workload):
    """Open-loop small fleet jobs against a ``repro serve`` subprocess."""

    name = "serve-open"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.cfg = SERVE
        self.servers = 0
        self.server: Optional[Server] = None

    def _server(self, flush_dir: Optional[str] = None) -> Server:
        self.servers += 1
        root = self.bench.directory(f"serve-{self.servers}")
        return Server(self.bench, root, flush_dir)

    def setup_once(self) -> float:
        server = self._server()
        server.stop()
        return server.ready_s

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _phase(self, rng: random.Random, count: int, rate: float,
               first_seed: int) -> Tuple[List[Request], float]:
        requests = schedule(rng, count, rate, first_seed, self.cfg)
        start = time.time() + 0.2
        send_phase(self.server.client, requests, self.cfg, start)
        count_outcomes(self.bench, requests)
        return requests, start

    def _check_sample(self, rng: random.Random,
                      requests: List[Request]) -> None:
        """Sampled job digests equal an in-process ``FleetDriver`` run."""
        from repro.experiments.driver import FleetDriver
        from repro.fleet.config import FleetConfig

        fresh = [r for r in requests
                 if r.replay_of is None and r.view is not None]
        for request in rng.sample(fresh, min(len(fresh),
                                             self.cfg["sampled_checks"])):
            digest = FleetDriver(FleetConfig(
                n_nodes=request.nodes, agent="overclock",
                seed=request.job_seed, duration_s=self.cfg["job_seconds"],
            )).run().digest()
            self.bench.check(
                digest == request.view.get("digest"),
                f"{request.job_id} digest differs from in-process run",
            )

    def _phase_jobs(self, rate: float) -> int:
        return max(self.cfg["min_jobs"],
                   round(rate * self.bench.seconds / 2))

    def e2e(self) -> Metrics:
        setup = median([self.setup_once()
                        for _ in range(SETUP_REPS - 1)]
                       + [self._start()])
        rng = random.Random(self.bench.seed)
        base = self.bench.seed * 1_000_000
        light_rate, heavy_rate = self.cfg["light_rate"], self.cfg["heavy_rate"]
        self._warm_up(base + 900_000)
        light, light_start = self._phase(
            rng, self._phase_jobs(light_rate), light_rate, base)
        heavy, heavy_start = self._phase(
            rng, self._phase_jobs(heavy_rate), heavy_rate, base + 500_000)
        rss = peak_rss_mb()
        self.close()
        self._check_sample(rng, light + heavy)
        light_lat = latencies(light, light_start)
        heavy_lat = latencies(heavy, heavy_start)
        window_ms = self.bench.seconds * 1e3
        exec_s = [
            r.view["finished_at"] - r.view["started_at"]
            for r in light + heavy
            if r.replay_of is None and r.view and r.view["status"] == "done"
        ]
        late = [r.sent_at - (s + r.due)
                for reqs, s in ((light, light_start), (heavy, heavy_start))
                for r in reqs]
        for label, values in (("light", light_lat), ("heavy", heavy_lat)):
            pct = tail_pct(len(values))
            self.lines.append(
                f"{label}: {len(values)} jobs, {label}_p50_ms="
                f"{_ms(median(values), window_ms):.2f}, {label}_p{pct}_ms="
                f"{_ms(percentile(values, pct), window_ms):.2f}"
            )
        self.lines.append(
            f"rates light={light_rate}/s heavy={heavy_rate}/s; "
            f"generator lateness p90 {percentile(late, 90) * 1e3:.2f} ms; "
            f"replays {sum(is_dedup_replay(r) for r in light + heavy)}"
        )
        return {
            "setup_s": setup,
            "peak_rss_mb": rss,
            "pass_s": median(exec_s) if exec_s else window_ms / 1e3,
            "light_p50_ms": _ms(median(light_lat), window_ms),
            "heavy_p90_ms": _ms(tail(heavy_lat), window_ms),
        }

    def _warm_up(self, first_seed: int) -> List[Request]:
        """A few jobs whose costs the server pays once (pool spawn, lazy
        imports), checked but not timed."""
        rng = random.Random(first_seed)
        return self._phase(rng, self.cfg["warmup_jobs"],
                           self.cfg["light_rate"], first_seed)[0]

    def _start(self, flush_dir: Optional[str] = None) -> float:
        self.server = self._server(flush_dir)
        return self.server.ready_s

    def _trace_phase(self, flush_dir: Optional[str]
                     ) -> Tuple[List[Request], List[Request], float]:
        """The traced run's schedule (the same under both servers):
        ``(warm-up requests, measured requests, phase start)``."""
        self._start(flush_dir)
        try:
            warm = self._warm_up(self.bench.seed * 1_000_000 + 900_000)
            rng = random.Random(self.bench.seed)
            requests, start = self._phase(
                rng, self.cfg["trace_jobs"], self.cfg["light_rate"],
                self.bench.seed * 1_000_000)
            return warm, requests, start
        finally:
            self.close()

    def trace(self) -> Metrics:
        extra = micro.run_all(self.bench.directory("micro"))
        extra["calib.ml_seed_epoch_us"] = calibration_us()
        warm, untraced, start = self._trace_phase(None)
        profiler = LayerProfiler(self.bench.directory("layers"))
        traced_warm, traced, _ = self._trace_phase(profiler.flush_dir)
        data = profiler.collect()

        def busy(requests: List[Request]) -> float:
            return sum(r.view["finished_at"] - r.view["started_at"]
                       for r in requests
                       if r.view and r.view["status"] == "done")

        for a, b in zip(untraced, traced):
            self.bench.check(
                (a.view or {}).get("digest") == (b.view or {}).get("digest"),
                f"traced job {b.job_id} sealed another digest",
            )
        fresh = [r for r in untraced if r.replay_of is None and r.view]
        extra.update({
            "serve.admit_ms": median([r.admit_s for r in untraced]) * 1e3,
            "serve.queue_wait_ms": median(
                [r.view["started_at"] - r.view["submitted_at"]
                 for r in fresh]) * 1e3,
            "serve.exec_ms": median(
                [r.view["finished_at"] - r.view["started_at"]
                 for r in fresh]) * 1e3,
            "serve.dedup_replays": sum(is_dedup_replay(r) for r in untraced),
            "loadgen.lateness_p90_ms": percentile(
                [r.sent_at - (start + r.due) for r in untraced], 90) * 1e3,
        })
        metrics, lines, problem = layer_metrics(
            data, busy(traced_warm + traced), busy(warm + untraced), extra
        )
        self.lines.append(
            "serve layer table: main thread = the server's job execution "
            "(sum of finished_at - started_at); the generator's client "
            "time is not in it"
        )
        self.lines.extend(lines)
        if problem:
            self.bench.check(False, problem)
        return metrics


def _ms(seconds: float, cap_ms: float) -> float:
    """Milliseconds; an ``inf`` (failed) latency prints as ``cap_ms``,
    the whole window, which misses any latency limit."""
    return cap_ms if seconds == _INF else seconds * 1e3
