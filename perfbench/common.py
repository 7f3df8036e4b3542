"""Shared pieces of the benchmark: the run context, timing helpers,
statistics, set-up probes, memory and the calibration number."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Bench:
    """One benchmark run: where it works and what it has seen so far.

    ``attempted``/``failed`` count the workload's user operations
    (passes, jobs); ``problems`` holds one line per failed check.
    """

    root: str
    work: str
    seed: int
    seconds: float
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def directory(self, *parts: str) -> str:
        """A directory under the run's work dir (created)."""
        path = os.path.join(self.work, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def env(self) -> Dict[str, str]:
        """Environment for child processes: this one (temporary files
        and the default cache already point into the work dir) with the
        program imported from ``src``."""
        return {**os.environ, "PYTHONPATH": self.src}

    def operation(self, ok: bool, problem: str = "") -> bool:
        """Count one user operation; a failed one records ``problem``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def check(self, ok: bool, problem: str) -> bool:
        """A correctness check outside any one operation."""
        if not ok:
            self.problems.append(problem)
        return ok


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort
    last, so they count as missing any latency limit."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(n: int) -> int:
    """90 when at least ten of ``n`` samples lie beyond the p90, else 50:
    a tail is reported only where it has ten samples behind it."""
    return 90 if n - math.ceil(0.9 * n) >= 10 else 50


def tail(values: Sequence[float]) -> float:
    """The p90, or the median when too few samples lie beyond it."""
    return percentile(values, tail_pct(len(values)))


def import_seconds(bench: Bench) -> float:
    """Wall of a fresh interpreter importing the CLI (what every
    ``python -m repro`` invocation pays before any work)."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=bench.root, env=bench.env(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - started


def pool_ready_seconds(workers: int) -> float:
    """Spawn the shared pool and wait for one no-op round trip on every
    worker: the pool set-up a pooled CLI run pays before its first unit.
    """
    from repro.experiments.driver import shared_pool, shutdown_shared_pool

    shutdown_shared_pool()
    started = time.perf_counter()
    pool = shared_pool(workers)
    for index in range(workers):
        pool.submit(abs, f"ready-{index}", 0, 0)
    done = 0
    deadline = time.monotonic() + 30.0
    while done < workers:
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not answer within 30s")
        done += sum(1 for event in pool.poll(1.0) if event[0] == "done")
    return time.perf_counter() - started


def _children(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant
    (each one's high-water mark, summed; read before they stop)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pending = _children(os.getpid())
    while pending:
        pid = pending.pop()
        total_kb += _hwm_kb(pid)
        pending.extend(_children(pid))
    return total_kb / 1024.0


def calibration_us(repeats: int = 3) -> float:
    """Microseconds per learning epoch of the frozen ``ml:seed`` model.

    One epoch is one call of each ML microbenchmark scenario (classifier
    predict and update, feature extraction, epoch telemetry) against
    the frozen implementation in :mod:`repro.perf.golden`.  The code
    never changes, so drift in this number is drift in the host.
    """
    from repro.perf.golden import ML_IMPLS
    from repro.perf.microbench_ml import ML_MICROBENCHMARKS, run_ml_microbench

    seed_impl = ML_IMPLS["seed"]
    total = 0.0
    for name in ML_MICROBENCHMARKS:
        result = run_ml_microbench(name, seed_impl, scale=0.05,
                                   repeats=repeats)
        total += result.wall_s / result.events
    return total * 1e6


def wait_process(process: Optional[subprocess.Popen], timeout: float) -> None:
    """Wait for ``process``; kill it if it outlives ``timeout``."""
    if process is None:
        return
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
