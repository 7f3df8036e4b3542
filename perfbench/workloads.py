"""The pipeline workloads: a mixed fleet, reproduce cold/warm, and a
faulted sweep.  ``serve-open`` lives in :mod:`serve_load`.

Every pass runs the path the CLI runs by default: a fresh run journal,
``repro.obs`` tracing into its sidecar, and the shared worker pool
where the CLI pools.  A workload answers three questions:

* :meth:`Workload.setup_once` — one set-up, timed;
* :meth:`Workload.e2e` — the end-to-end metrics, wrappers off;
* :meth:`Workload.trace` — the same work untraced and then under the
  layer wrappers, giving the per-layer metrics.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

import micro
import seeds
from common import (
    Bench,
    calibration_us,
    import_seconds,
    median,
    peak_rss_mb,
    percentile,
    pool_ready_seconds,
    tail_pct,
)
from layers import LayerProfiler, import_layers
from report import layer_metrics

Metrics = Dict[str, float]

SETUP_REPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # passes per run, however short the window
FLEET_NODES = 64
FLEET_SECONDS = 10  # simulated seconds per fleet-mixed pass
COLD_PASSES = 3  # cold reproduce-all passes per run
WARM_MIN_PASSES = 110  # warm re-runs: ten samples beyond the p90 at least
TRACE_WARM_PASSES = 20  # warm re-runs in the traced pass
CAMPAIGN = "examples/campaigns/failure_modes.toml"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """Shared driver: set-up repetitions, the traced run, the checks."""

    name = ""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.lines: List[str] = []

    # -- hooks ---------------------------------------------------------------

    def setup_once(self) -> float:
        raise NotImplementedError

    def e2e(self) -> Metrics:
        raise NotImplementedError

    def trace_work(self) -> float:
        """The work a traced run measures, done once; its wall."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything the workload left running."""

    # -- shared --------------------------------------------------------------

    def setup_s(self) -> float:
        return median([self.setup_once() for _ in range(SETUP_REPS)])

    def trace(self) -> Metrics:
        from repro.experiments.driver import shutdown_shared_pool

        extra = micro.run_all(self.bench.directory("micro"))
        extra["calib.ml_seed_epoch_us"] = calibration_us()
        # The traced pass finds every module imported by install(); the
        # untraced reference must not pay those imports either.
        import_layers()
        untraced = self.trace_work()
        profiler = LayerProfiler(self.bench.directory("layers"))
        shutdown_shared_pool()
        profiler.install()
        try:
            profiler.reset()
            traced = self.trace_work()
            data = profiler.collect()
        finally:
            shutdown_shared_pool()
            profiler.remove()
        metrics, lines, problem = layer_metrics(
            data, traced, untraced, extra
        )
        self.lines.extend(lines)
        if problem:
            self.bench.check(False, problem)
        return metrics

    def window(self, started: float, passes: int, minimum: int) -> bool:
        """Whether another pass belongs in the measurement window."""
        elapsed = time.perf_counter() - started
        return passes < minimum or elapsed < self.bench.seconds


# -- fleet-mixed -------------------------------------------------------------


def fleet_pass(cache_root: str, config: Any) -> Tuple[float, Any, Any]:
    """One ``repro fleet`` run as the CLI does it: ``(wall, aggregate,
    sealed digest)``."""
    from repro.experiments.driver import FleetDriver
    from repro.journal.pipelines import open_fleet_journal
    from repro.obs import run_tracing
    from repro.resilience import QuarantineLog, RetryPolicy

    started = time.perf_counter()
    journal = open_fleet_journal(cache_root, config, 1)
    try:
        driver = FleetDriver(
            config, workers=1, resilience=RetryPolicy(),
            quarantine=QuarantineLog(), journal=journal,
        )
        with run_tracing(journal, kind="fleet", nodes=config.n_nodes,
                         workers=1):
            aggregate = driver.run()
    finally:
        journal.close()
    return time.perf_counter() - started, aggregate, journal.sealed_digest


class FleetMixed(Workload):
    """64 mixed-agent nodes, no faults, one journaled inline run a pass."""

    name = "fleet-mixed"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        from repro.fleet.config import FleetConfig

        self.fleet = FleetConfig(
            n_nodes=FLEET_NODES, agent="mixed",
            seed=seeds.fleet_seed(bench.seed, FLEET_NODES),
            duration_s=FLEET_SECONDS,
        )
        self.digests: List[str] = []

    def setup_once(self) -> float:
        return import_seconds(self.bench)

    def trace_work(self) -> float:
        """One fleet run, checked."""
        wall, aggregate, sealed = fleet_pass(
            self.bench.directory("cache"), self.fleet
        )
        digest = aggregate.digest()
        problems = []
        if self.digests and digest != self.digests[0]:
            problems.append(f"fleet digest {digest[:12]} changed")
        if aggregate.holes:
            problems.append(f"fleet holes {aggregate.holes}")
        if sealed != digest:
            problems.append("journal sealed a different digest")
        self.bench.operation(not problems, "; ".join(problems))
        self.digests.append(digest)
        return wall

    def node_seconds(self) -> float:
        return self.fleet.n_nodes * self.fleet.duration_s

    def e2e(self) -> Metrics:
        setup = self.setup_s()
        walls: List[float] = []
        started = time.perf_counter()
        while self.window(started, len(walls), MIN_PASSES):
            walls.append(self.trace_work())
        rss = peak_rss_mb()
        self.lines.append(
            f"fleet seed {self.fleet.seed}: {len(walls)} passes, "
            f"node_sim_s_per_s={self.node_seconds() / median(walls):.2f}, "
            f"digest {self.digests[0][:16]}"
        )
        return {"setup_s": setup, "peak_rss_mb": rss,
                "pass_s": median(walls)}

    def trace(self) -> Metrics:
        self.lines.append("traced pass runs inline (workers=1), as "
                          "`repro fleet` does by default")
        return super().trace()


# -- reproduce ---------------------------------------------------------------


def reproduce_pass(cache_root: str, scale: float, workers: int
                   ) -> Tuple[float, List[Any], Dict[str, int], Any]:
    """One ``repro reproduce-all --parallel`` run into ``cache_root``:
    ``(wall, runs, cache stats, closed journal)``."""
    from repro.cache import ResultCache
    from repro.experiments.driver import reproduce_all
    from repro.journal.pipelines import open_reproduce_journal
    from repro.obs import run_tracing
    from repro.resilience import QuarantineLog, RetryPolicy

    started = time.perf_counter()
    cache = ResultCache(cache_root)
    quarantine = QuarantineLog(directory=cache.quarantine_dir)
    journal = open_reproduce_journal(cache_root, None, scale)
    try:
        with run_tracing(journal, kind="reproduce", scale=scale,
                         workers=workers):
            runs = reproduce_all(
                parallel=True, workers=workers, scale=scale, cache=cache,
                resilience=RetryPolicy(), quarantine=quarantine,
                journal=journal,
            )
    finally:
        journal.close()
    wall = time.perf_counter() - started
    return wall, runs, cache.stats.snapshot(), journal


class Reproduce(Workload):
    """Cold pooled ``reproduce-all`` passes at scale 0.2, then warm
    re-runs."""

    name = "reproduce"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        from repro.perf.baselines import GOLDEN_EXPERIMENT_SCALE

        self.scale = GOLDEN_EXPERIMENT_SCALE
        self.workers = nproc()
        self.cold_digest = ""
        self.caches = itertools.count()

    def setup_once(self) -> float:
        return import_seconds(self.bench) + pool_ready_seconds(self.workers)

    def _check(self, runs: List[Any], stats: Dict[str, int], journal: Any,
               cold: bool) -> None:
        from repro.experiments.common import experiment_digest
        from repro.experiments.driver import runs_digest
        from repro.perf.baselines import GOLDEN_EXPERIMENT_DIGESTS

        digest = runs_digest(runs)
        problems = [f"{run.name} partial" for run in runs if run.partial]
        if journal.sealed_digest != digest:
            problems.append("journal sealed a different digest")
        if cold:
            if self.cold_digest and digest != self.cold_digest:
                problems.append("cold digest changed between passes")
            self.cold_digest = digest
            results = {run.name: run.result for run in runs}
            for name, golden in GOLDEN_EXPERIMENT_DIGESTS.items():
                if (name not in results
                        or experiment_digest(results[name]) != golden):
                    problems.append(f"{name} != golden digest")
        else:
            if digest != self.cold_digest:
                problems.append("warm digest != cold digest")
            if stats["misses"] or stats["hits"] != self.units:
                problems.append(f"warm pass not all-hit: {stats}")
        self.bench.operation(not problems, "; ".join(problems))

    def _cold(self) -> Tuple[float, str]:
        cache_root = self.bench.directory(f"cache-{next(self.caches)}")
        wall, runs, stats, journal = reproduce_pass(
            cache_root, self.scale, self.workers
        )
        self.units = stats["misses"]
        self._check(runs, stats, journal, cold=True)
        return wall, cache_root

    def _warm(self, cache_root: str) -> float:
        wall, runs, stats, journal = reproduce_pass(
            cache_root, self.scale, self.workers
        )
        self._check(runs, stats, journal, cold=False)
        return wall

    def e2e(self) -> Metrics:
        setup = self.setup_s()
        started = time.perf_counter()
        colds = [self._cold() for _ in range(COLD_PASSES)]
        cold = median([wall for wall, _root in colds])
        cache_root = colds[-1][1]
        warm: List[float] = []
        while self.window(started, len(warm), WARM_MIN_PASSES):
            warm.append(self._warm(cache_root))
        rss = peak_rss_mb()
        pct = tail_pct(len(warm))
        self.lines.append(
            f"reproduce: {self.units} units on {self.workers} workers, "
            f"cold_wall_s={cold:.3f} (n={len(colds)}), "
            f"warm_p50_ms={median(warm) * 1e3:.2f}, "
            f"warm_p{pct}_ms={percentile(warm, pct) * 1e3:.2f} "
            f"(n={len(warm)}), digest {self.cold_digest[:16]}"
        )
        return {"setup_s": setup, "peak_rss_mb": rss, "pass_s": cold}

    def trace_work(self) -> float:
        """One cold pass and ``trace_warm_passes`` warm ones."""
        started = time.perf_counter()
        _cold, cache_root = self._cold()
        for _ in range(TRACE_WARM_PASSES):
            self._warm(cache_root)
        return time.perf_counter() - started


# -- sweep-faults ------------------------------------------------------------


class SweepFaults(Workload):
    """``failure_modes.toml`` run cold on every core, fresh cache a pass."""

    name = "sweep-faults"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        from repro.sweep import load_spec

        spec = load_spec(os.path.join(bench.root, CAMPAIGN))
        self.spec = seeds.campaign(spec, bench.seed)
        self.workers = nproc()
        self.digests: List[str] = []
        self.passes = itertools.count()

    def setup_once(self) -> float:
        return import_seconds(self.bench) + pool_ready_seconds(self.workers)

    def trace_work(self) -> float:
        """One cold campaign, checked."""
        from repro.cache import ResultCache
        from repro.journal.pipelines import open_sweep_journal
        from repro.obs import run_tracing
        from repro.resilience import QuarantineLog, RetryPolicy
        from repro.sweep import SweepRunner

        cache_root = self.bench.directory(f"sweep-{next(self.passes)}")
        started = time.perf_counter()
        cache = ResultCache(cache_root)
        journal = open_sweep_journal(cache_root, self.spec)
        try:
            runner = SweepRunner(
                self.spec, workers=self.workers, cache=cache,
                resilience=RetryPolicy(),
                quarantine=QuarantineLog(directory=cache.quarantine_dir),
                journal=journal,
            )
            with run_tracing(journal, kind="sweep", campaign=self.spec.name,
                             workers=self.workers):
                report = runner.run()
        finally:
            journal.close()
        wall = time.perf_counter() - started
        shutil.rmtree(cache_root)
        digest = report.digest()
        problems = []
        if self.digests and digest != self.digests[0]:
            problems.append(f"campaign digest {digest[:12]} changed")
        if report.holes or report.executed != len(self.spec.expand()):
            problems.append(f"holes {report.holes}, "
                            f"executed {report.executed}")
        if journal.sealed_digest != digest:
            problems.append("journal sealed a different digest")
        self.bench.operation(not problems, "; ".join(problems))
        self.digests.append(digest)
        return wall

    def node_seconds(self) -> float:
        return float(sum(unit.estimated_cost() for unit in self.spec.expand()))

    def e2e(self) -> Metrics:
        setup = self.setup_s()
        walls: List[float] = []
        started = time.perf_counter()
        while self.window(started, len(walls), MIN_PASSES):
            walls.append(self.trace_work())
        rss = peak_rss_mb()
        self.lines.append(
            f"campaign seeds {self.spec.seeds}: {len(walls)} passes on "
            f"{self.workers} workers, node_sim_s_per_s="
            f"{self.node_seconds() / median(walls):.2f}, "
            f"digest {self.digests[0][:16]}"
        )
        return {"setup_s": setup, "peak_rss_mb": rss,
                "pass_s": median(walls)}


def registry() -> Dict[str, Callable[[Bench], Workload]]:
    from serve_load import ServeOpen

    return {
        FleetMixed.name: FleetMixed,
        Reproduce.name: Reproduce,
        SweepFaults.name: SweepFaults,
        ServeOpen.name: ServeOpen,
    }
