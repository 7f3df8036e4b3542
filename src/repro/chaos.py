"""``repro chaos``: one harness for the substrate's failure proofs.

``repro chaos {fleet,reproduce,sweep}`` proves one claim about the
chosen pipeline and ends in one verdict: ``[chaos: OK — …]``, or one
``CHAOS FAILURE`` line per broken obligation and exit 1.  The mode
picks the claim:

* **worker faults** (the default, DESIGN.md §11) — run the target
  fault-free, then under a seeded :class:`~repro.resilience.ChaosPlan`;
  every faulted result must reproduce its fault-free digest
  bit-identically or be an explicit hole, and the quarantined units
  must be exactly the ``--poison`` set.  ``--fault corrupt_cache`` runs
  cold through a write-corrupting cache and warm through a plain one
  instead: every garbled object must be quarantined on reread and the
  warm digests must equal the cold ones.
* ``--kill-parent N`` (§12) — run the target's CLI command in a
  subprocess that SIGKILLs itself right after its journal's Nth
  fsync'd record, then resume the run in this process.
* ``--kill-server N`` (§13) — submit the target as a job to a real
  ``repro serve`` subprocess primed the same way, then let a successor
  server adopt the run.  After a passing proof, a ``--queue-limit 1``
  server must answer overflow with explicit backpressure, and SIGTERM
  must drain it to exit 143 with every journal lease released.

Both kill modes share one post-kill check (:func:`check_kill`): the
orchestrator died by SIGKILL; the interrupted run is on disk and not
sealed; recovery re-executed zero journaled units; the sealed digest
equals :func:`~repro.journal.pipelines.uninterrupted_digest`; and the
merged trace holds at least two process segments that export Chrome
events.  Only the recover step differs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.experiments.driver import ARTIFACTS
from repro.fleet.config import AGENT_KINDS
from repro.journal.registry import RunInfo
from repro.resilience import (
    ChaosCache,
    ChaosPlan,
    QuarantineLog,
    RetryPolicy,
)

__all__ = [
    "Recovery",
    "add_chaos_parser",
    "check_faults",
    "check_kill",
    "cmd_chaos",
]

#: Budget for one killed or successor orchestrator to finish its part.
PROCESS_TIMEOUT_S = 600.0

#: Kill option -> (the process it kills, what recovery does to the run).
_KILL_MODES = {
    "--kill-parent": ("orchestrator", "resumed"),
    "--kill-server": ("server", "adopted"),
}

#: A pipeline result as the worker-fault verdict sees it:
#: ``name -> (digest, holes)``.
Outcomes = Dict[str, Tuple[str, Tuple[str, ...]]]


def _record_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("needs a record count >= 1")
    return count


def add_chaos_parser(
    sub: argparse._SubParsersAction,
) -> argparse.ArgumentParser:
    """Register ``repro chaos``; returns the parser so the caller can
    add the shared ``--max-retries`` / ``--unit-timeout`` flags."""
    chaos = sub.add_parser(
        "chaos",
        help="prove resilience: worker faults, orchestrator SIGKILL "
             "(--kill-parent) or server SIGKILL (--kill-server) against "
             "one pipeline, with a pass/fail verdict",
    )
    chaos.add_argument(
        "target", choices=("fleet", "reproduce", "sweep"),
        help="which pipeline to stress",
    )
    chaos.add_argument(
        "--fault", default="crash",
        choices=("crash", "hang", "corrupt_cache", "slow"),
        help="injected fault kind (default: %(default)s); corrupt_cache "
             "targets the result cache and needs a cached target "
             "(reproduce or sweep)",
    )
    chaos.add_argument(
        "--probability", type=float, default=0.4,
        help="per-unit fault selection probability, hashed from "
             "--chaos-seed (default: %(default)s)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-selection seed; the faulted subset is a pure "
             "function of (seed, unit id) (default: %(default)s)",
    )
    chaos.add_argument(
        "--poison", action="append", default=None, metavar="UNIT_ID",
        help="unit id that faults on every attempt (repeatable); the "
             "run must quarantine exactly these units",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument(
        "--nodes", type=int, default=16, help="fleet target: node count"
    )
    chaos.add_argument(
        "--agent", default="overclock", choices=AGENT_KINDS + ("mixed",),
        help="fleet target: agent kind (default: %(default)s)",
    )
    chaos.add_argument(
        "--seconds", type=int, default=60,
        help="fleet target: simulated seconds per node",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="fleet target: fleet seed"
    )
    chaos.add_argument(
        "--scale", type=float, default=0.1,
        help="reproduce target: duration scale (default: %(default)s)",
    )
    chaos.add_argument(
        "--only", nargs="+", choices=ARTIFACTS, metavar="ARTIFACT",
        default=None, help="reproduce target: restrict the artifact set",
    )
    chaos.add_argument(
        "--spec", metavar="SPEC", default=None,
        help="sweep target: campaign spec path (required for sweep)",
    )
    kill = chaos.add_mutually_exclusive_group()
    kill.add_argument(
        "--kill-parent", type=_record_count, default=None, metavar="N",
        help="crash-consistency mode (DESIGN.md §12): SIGKILL the "
             "target's orchestrator after its Nth journal record, "
             "resume the run, and fail unless the resume re-executes "
             "zero journaled units and seals the uninterrupted digest",
    )
    kill.add_argument(
        "--kill-server", type=_record_count, default=None, metavar="N",
        help="control-plane mode (DESIGN.md §13): submit the target to "
             "a real 'repro serve' server, SIGKILL it after its Nth "
             "journal record, and fail unless a successor server adopts "
             "the run, re-executes zero journaled units, and seals the "
             "uninterrupted digest",
    )
    return chaos


def _verdict(failures: Sequence[str], ok: str) -> int:
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos: OK — {ok}]")
    return 0


def job_payload(args: argparse.Namespace) -> Dict[str, Any]:
    """The target run's config payload: what its journal hashes, what a
    serve submission carries, and what the baselines run."""
    from repro.journal.pipelines import (
        fleet_payload,
        reproduce_payload,
        sweep_payload,
    )

    if args.target == "fleet":
        from repro.fleet.config import FleetConfig

        return fleet_payload(FleetConfig(
            n_nodes=args.nodes, agent=args.agent, seed=args.seed,
            duration_s=args.seconds,
        ))
    if args.target == "reproduce":
        return reproduce_payload(list(args.only or ARTIFACTS), args.scale)
    from repro.sweep import load_spec

    try:
        return sweep_payload(load_spec(args.spec))
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {args.spec}: {error}")


# -- worker faults -----------------------------------------------------------


def _outcomes(kind: str, result: Any) -> Outcomes:
    if kind == "reproduce":
        from repro.experiments.common import experiment_digest

        return {
            run.result.name: (experiment_digest(run.result), tuple(run.holes))
            for run in result
        }
    name = "fleet" if kind == "fleet" else "campaign"
    return {name: (result.digest(), tuple(str(h) for h in result.holes))}


def check_faults(
    baseline: Dict[str, str],
    faulted: Dict[str, Tuple[str, Sequence[str]]],
    quarantined: Sequence[str],
    poison: Sequence[str],
) -> List[str]:
    """The worker-fault verdict's failures.

    Every ``faulted`` result (``name -> (digest, holes)``) must be an
    explicit hole or reproduce its ``baseline`` digest, and the
    ``quarantined`` unit ids must be exactly the ``poison`` set.
    """
    failures: List[str] = []
    for name, (digest, holes) in faulted.items():
        if holes:
            print(f"[chaos: {name} PARTIAL — holes: {', '.join(holes)}]")
        elif digest == baseline.get(name):
            print(f"[chaos: {name} digest {digest} matches baseline]")
        else:
            print(f"[chaos: {name} digest {digest} DIVERGED]")
            failures.append(
                f"{name}: digest diverged under faults with nothing "
                f"quarantined"
            )
    holes = sorted(set(quarantined))
    expected = sorted(set(poison))
    if holes != expected:
        failures.append(f"quarantined units {holes} != poison set {expected}")
    return failures


def _print_baseline(outcomes: Outcomes) -> None:
    for name, (digest, _holes) in outcomes.items():
        print(f"[baseline: {name} digest {digest}]")


def _cold_then_warm(
    run: Callable[..., Outcomes],
    plan: ChaosPlan,
    quarantine: QuarantineLog,
    failures: List[str],
) -> Tuple[Outcomes, Outcomes]:
    """``corrupt_cache``: a cold run through a write-corrupting cache is
    the baseline, a warm rerun through a plain cache on the same
    directory the faulted run; the rerun must quarantine every garbled
    object (and then match, which :func:`check_faults` decides)."""
    tmp = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    try:
        cold_cache = ChaosCache(directory=tmp, plan=plan)
        cold = run(cache=cold_cache, quarantine=quarantine)
        _print_baseline(cold)
        corrupted = len(cold_cache.corrupted_keys)
        print(f"[chaos: corrupted {corrupted} cache object(s) on disk]")
        if corrupted == 0:
            print("[chaos: WARNING — no cache writes selected; raise "
                  "--probability for a meaningful run]")
        warm_cache = ResultCache(tmp)
        warm = run(cache=warm_cache, quarantine=quarantine)
        print(f"[chaos: warm rerun quarantined "
              f"{warm_cache.stats.corrupt} corrupt object(s); "
              f"{warm_cache.stats.render()}]")
        if warm_cache.stats.corrupt != corrupted:
            failures.append(
                f"corrupted {corrupted} object(s) but the warm rerun "
                f"quarantined {warm_cache.stats.corrupt}"
            )
        return cold, warm
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _fault_proof(args: argparse.Namespace, payload: Dict[str, Any]) -> int:
    from repro.journal.pipelines import run_pipeline

    if args.fault == "hang" and args.unit_timeout is None:
        # A hang without a deadline would stall the run by design.
        args.unit_timeout = 5.0
        print("[chaos: hang fault with no --unit-timeout; "
              "defaulting to 5s]")
    plan = ChaosPlan(
        kind=args.fault,
        probability=args.probability,
        seed=args.chaos_seed,
        poison_units=tuple(args.poison or ()),
    )
    policy = RetryPolicy(
        max_retries=args.max_retries, unit_timeout_s=args.unit_timeout
    )
    quarantine = QuarantineLog()
    print(f"== chaos {args.target}: {plan.describe()} "
          f"retries={policy.max_retries} "
          f"timeout={policy.unit_timeout_s or 'none'} ==")

    def run(**kwargs: Any) -> Outcomes:
        return _outcomes(args.target, run_pipeline(
            args.target, payload, workers=args.workers, policy=policy,
            **kwargs,
        ))

    failures: List[str] = []
    if plan.kind == "corrupt_cache":
        baseline, faulted = _cold_then_warm(run, plan, quarantine, failures)
    else:
        baseline = run()
        _print_baseline(baseline)
        faulted = run(quarantine=quarantine, chaos=plan)
    records = sorted(quarantine.load(), key=lambda r: r.unit_id)
    for record in records:
        detail = f" — {record.error}" if record.error else ""
        print(f"[quarantined: {record.unit_id} ({record.kind} after "
              f"{record.attempts} attempts{detail})]")
    failures += check_faults(
        {name: digest for name, (digest, _holes) in baseline.items()},
        faulted,
        [record.unit_id for record in records],
        plan.poison_units,
    )
    return _verdict(
        failures,
        f"fault={plan.kind} degraded predictably "
        f"({len({r.unit_id for r in records})} hole(s), exact)",
    )


# -- kill and recover --------------------------------------------------------


@dataclass(frozen=True)
class Recovery:
    """What a recover step saw of the run it finished.

    ``digest`` is the sealed digest, ``None`` when the run never sealed.
    """

    total: int
    replayed: int
    executed: int
    cached: int
    digest: Optional[str]


def check_kill(
    returncode: int,
    info: Optional[RunInfo],
    recover: Callable[[RunInfo, List[str]], Optional[Recovery]],
    baseline: str,
    *,
    flag: str,
    stderr_tail: str = "",
) -> List[str]:
    """The post-kill proof both kill modes share; returns its failures.

    ``returncode`` is the killed orchestrator's exit status and ``info``
    the run it left on disk (or ``None``).  ``recover(info, failures)``
    finishes the interrupted run, appending any failures of its own,
    and returns what it saw — or ``None`` when it could not finish the
    run.  ``flag`` is the kill option (``--kill-parent`` or
    ``--kill-server``); ``stderr_tail`` explains an unexpected exit.
    """
    from repro.obs.export import chrome_trace
    from repro.obs.sidecar import read_trace, segments, trace_path

    who, label = _KILL_MODES[flag]
    if returncode == 0:
        return [f"{who} finished before the kill landed; lower {flag}"]
    if returncode != -signal.SIGKILL:
        return [f"{who} exited {returncode}, expected SIGKILL: "
                f"{stderr_tail}"]
    if info is None:
        return ["no journaled run survived the kill"]
    print(f"[killed: run {info.run_id} — {info.done_units}/"
          f"{info.total_units} units journaled, {info.status}]")
    if info.status == "sealed":
        return [f"run sealed before the kill landed; lower {flag}"]
    failures: List[str] = []
    recovery = recover(info, failures)
    if recovery is None:
        return failures
    re_executed = info.done_units - recovery.replayed
    print(
        f"[{label}: units={recovery.total} "
        f"journaled={info.done_units} replayed={recovery.replayed} "
        f"executed={recovery.executed} cached={recovery.cached} "
        f"re-executed={max(re_executed, 0)}]"
    )
    if re_executed > 0:
        failures.append(
            f"recovery re-executed {re_executed} journaled unit(s)"
        )
    if recovery.digest is None:
        failures.append(f"{label} run did not seal")
    elif recovery.digest != baseline:
        failures.append(
            f"{label} digest {recovery.digest} != uninterrupted "
            f"digest {baseline}"
        )
    else:
        print(f"[{label}: digest {recovery.digest} matches "
              f"uninterrupted run]")
    # The killed process wrote trace segment 0 and the recovery
    # appended its own; the merged sidecar must still export
    # (DESIGN.md §14).
    records = read_trace(trace_path(info.directory))
    heads = segments(records)
    if len(heads) < 2:
        failures.append(
            f"telemetry: expected >= 2 trace segments (killed + "
            f"{label}), found {len(heads)}"
        )
    else:
        events = chrome_trace(records).get("traceEvents", [])
        if not events:
            failures.append(
                "telemetry: merged trace exported no chrome events"
            )
        else:
            print(f"[telemetry: trace.jsonl merged {len(heads)} process "
                  f"segments, {len(events)} chrome event(s)]")
    return failures


def _spawn(
    root: str,
    stem: str,
    argv: Sequence[str],
    kill_after: Optional[int] = None,
) -> subprocess.Popen:
    """``python -m repro ARGV`` on cache root ``root``, logging to
    ``<root>/<stem>.out|.err``, armed to SIGKILL itself after its
    ``kill_after``-th journal record when given."""
    from repro.journal.log import KILL_AFTER_ENV

    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = root
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    # Output to files, not pipes: pool workers inherit the orchestrator's
    # stdio, and a captured pipe would block on the orphans instead of
    # the SIGKILLed orchestrator itself.
    with open(os.path.join(root, f"{stem}.out"), "wb") as out, \
            open(os.path.join(root, f"{stem}.err"), "wb") as err:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env, stdout=out, stderr=err,
        )


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def _tail(root: str, stem: str) -> str:
    """The last stderr lines of a :func:`_spawn`-ed process."""
    try:
        with open(
            os.path.join(root, f"{stem}.err"), "r", encoding="utf-8"
        ) as handle:
            lines = handle.read().strip().splitlines()
        return " | ".join(lines[-5:]) or "(empty stderr)"
    except OSError:
        return "(no stderr)"


def _leases(root: str) -> List[str]:
    from repro.journal.run import runs_root

    try:
        return sorted(
            name for name in os.listdir(runs_root(root))
            if name.endswith(".lease")
        )
    except OSError:
        return []


def _orchestrator_argv(args: argparse.Namespace) -> List[str]:
    """The journaled CLI invocation ``--kill-parent`` interrupts."""
    if args.target == "fleet":
        return [
            "fleet", "--nodes", str(args.nodes), "--agent", args.agent,
            "--seconds", str(args.seconds), "--seed", str(args.seed),
            "--workers", str(args.workers),
        ]
    if args.target == "reproduce":
        argv = [
            "reproduce-all", "--parallel",
            "--workers", str(args.workers), "--scale", str(args.scale),
        ]
        if args.only:
            argv += ["--only", *args.only]
        return argv
    return ["sweep", "run", args.spec, "--workers", str(args.workers)]


def _kill_parent(
    args: argparse.Namespace, root: str, baseline: str
) -> List[str]:
    """SIGKILL the target's CLI orchestrator; resume in this process."""
    from repro.journal.pipelines import resume_pipeline
    from repro.journal.registry import list_runs

    proc = _spawn(
        root, "orchestrator", _orchestrator_argv(args),
        kill_after=args.kill_parent,
    )
    try:
        proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"orchestrator outlived the {PROCESS_TIMEOUT_S:.0f}s "
                f"budget"]
    finally:
        _reap(proc)

    def resume(info: RunInfo, _failures: List[str]) -> Recovery:
        # The resume appends a second process segment to the trace
        # sidecar the killed orchestrator started (DESIGN.md §14).
        journal, _result = resume_pipeline(
            root, info, workers=args.workers, cache=ResultCache(root)
        )
        stats = journal.stats
        return Recovery(
            total=info.total_units, replayed=stats.replayed,
            executed=stats.executed, cached=stats.cached,
            digest=journal.sealed_digest if journal.sealed else None,
        )

    runs = list_runs(root)
    return check_kill(
        proc.returncode, runs[0] if len(runs) == 1 else None, resume,
        baseline, flag="--kill-parent",
        stderr_tail=_tail(root, "orchestrator"),
    )


def _serve_argv(root: str, socket_path: str, *extra: str) -> List[str]:
    return [
        "serve", "start", "--cache-dir", root, "--socket", socket_path,
        *extra,
    ]


def _kill_server(
    args: argparse.Namespace, payload: Dict[str, Any], root: str,
    baseline: str,
) -> List[str]:
    """SIGKILL a serving orchestrator mid-job; a successor adopts."""
    from repro.journal.registry import inspect_run
    from repro.serve.client import ServeClient, wait_for_server

    socket_path = os.path.join(root, "serve.sock")
    server = _spawn(
        root, "server1", _serve_argv(root, socket_path),
        kill_after=args.kill_server,
    )
    try:
        wait_for_server(socket_path, timeout=30.0)
        reply = ServeClient(socket_path, timeout=10.0).submit(
            args.target, payload, workers=args.workers
        )
        if not reply.get("ok"):
            return [f"submission rejected: {reply.get('error')}"]
        run_id = reply["run_id"]
        print(f"[submitted: job {reply['job_id']} run {run_id} "
              f"to pid {server.pid}]")
        server.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"server outlived the kill budget; is --kill-server "
                f"{args.kill_server} larger than the job's record count?"]
    finally:
        _reap(server)

    def adopt(info: RunInfo, failures: List[str]) -> Optional[Recovery]:
        # The successor: same cache root, no kill switch.  Startup
        # adoption must pick the run up without any client involvement.
        successor = _spawn(root, "server2", _serve_argv(root, socket_path))
        try:
            wait_for_server(socket_path, timeout=30.0)
            client = ServeClient(socket_path, timeout=10.0)
            deadline = time.monotonic() + PROCESS_TIMEOUT_S
            job: Optional[Dict[str, Any]] = None
            while time.monotonic() < deadline:
                job = client.find_by_run(info.run_id)
                if job is not None and job["status"] in (
                    "done", "failed", "cancelled", "expired", "drained"
                ):
                    break
                time.sleep(0.2)
            if job is None:
                failures.append(f"successor never adopted run {info.run_id}")
                return None
            if not job.get("adopted"):
                failures.append(
                    f"successor knows run {info.run_id} but did not mark "
                    f"it adopted"
                )
            if job["status"] != "done":
                failures.append(
                    f"adopted job ended {job['status']!r} "
                    f"(error: {job.get('error')})"
                )
                return None
            reply = client.drain()
            if not reply.get("ok"):
                failures.append(f"drain rejected: {reply.get('error')}")
            successor.wait(timeout=60.0)
            if successor.returncode != 0:
                failures.append(
                    f"drained server exited {successor.returncode}, "
                    f"expected 0: {_tail(root, 'server2')}"
                )
        except subprocess.TimeoutExpired:
            failures.append("successor did not exit after drain")
        finally:
            _reap(successor)
        leftover = _leases(root)
        if leftover:
            failures.append(
                f"leases left behind after drain: {', '.join(leftover)}"
            )
        counters = job.get("counters") or {}
        return Recovery(
            total=int(counters.get("total", info.total_units)),
            replayed=int(counters.get("replayed", 0)),
            executed=int(counters.get("executed", 0)),
            cached=int(counters.get("cached", 0)),
            digest=job.get("digest"),
        )

    return check_kill(
        server.returncode, inspect_run(root, run_id), adopt, baseline,
        flag="--kill-server",
        stderr_tail=_tail(root, "server1"),
    )


def _backpressure_drain(args: argparse.Namespace, root: str) -> List[str]:
    """Bounded admission and SIGTERM drain on a fresh cache root."""
    from repro.fleet.config import FleetConfig
    from repro.journal.pipelines import fleet_payload
    from repro.serve.client import ServeClient, wait_for_server

    os.makedirs(root, exist_ok=True)
    socket_path = os.path.join(root, "serve.sock")
    server = _spawn(
        root, "server3",
        _serve_argv(
            root, socket_path, "--queue-limit", "1", "--drain-grace", "0.5"
        ),
    )
    failures: List[str] = []
    try:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)

        def long_fleet(seed: int) -> Dict[str, Any]:
            return fleet_payload(FleetConfig(
                n_nodes=max(args.nodes, 16), agent=args.agent,
                seed=seed, duration_s=3600,
            ))

        # Job 1 occupies the scheduler, job 2 fills the depth-1 queue,
        # job 3 must be rejected with the explicit backpressure shape.
        got_backpressure = False
        for attempt in range(3):
            replies = [
                client.submit("fleet", long_fleet(1000 + attempt * 10 + i),
                              workers=2)
                for i in range(3)
            ]
            rejected = [r for r in replies if r.get("backpressure")]
            if rejected:
                reply = rejected[0]
                got_backpressure = True
                if reply.get("retry_after_s", 0) <= 0:
                    failures.append(
                        "backpressure reply missing a positive "
                        "retry_after_s"
                    )
                if reply.get("queue_limit") != 1:
                    failures.append(
                        f"backpressure reply reports queue_limit="
                        f"{reply.get('queue_limit')}, expected 1"
                    )
                print(
                    f"[backpressure: {reply['error']} "
                    f"(retry in {reply['retry_after_s']:.1f}s)]"
                )
                break
            time.sleep(0.2)  # scheduler drained the queue too fast
        if not got_backpressure:
            failures.append(
                "a queue-limit-1 server accepted 9 concurrent "
                "submissions without a backpressure rejection"
            )
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=60.0)
        if server.returncode != 143:
            failures.append(
                f"SIGTERM drain exited {server.returncode}, expected "
                f"143: {_tail(root, 'server3')}"
            )
        else:
            print("[drain: SIGTERM → exit 143]")
    except subprocess.TimeoutExpired:
        failures.append("server did not exit within 60s of SIGTERM")
    finally:
        _reap(server)
    leftover = _leases(root)
    if leftover:
        failures.append(
            f"leases left behind after SIGTERM drain: "
            f"{', '.join(leftover)}"
        )
    else:
        print("[drain: all journal leases released]")
    return failures


def _kill_proof(args: argparse.Namespace, payload: Dict[str, Any]) -> int:
    from repro.journal.pipelines import uninterrupted_digest

    parent = args.kill_parent is not None
    mode = "kill-parent" if parent else "kill-server"
    print(f"== chaos {args.target}: {mode} after record "
          f"#{args.kill_parent if parent else args.kill_server} ==")
    baseline = uninterrupted_digest(args.target, payload, args.workers)
    print(f"[baseline: digest {baseline}]")
    root = tempfile.mkdtemp(prefix=f"repro-{mode}-")
    try:
        if parent:
            failures = _kill_parent(args, root, baseline)
            ok = ("orchestrator death survived; resume replayed the "
                  "journal and reproduced the digest")
        else:
            failures = _kill_server(args, payload, root, baseline)
            if not failures:
                failures = _backpressure_drain(
                    args, os.path.join(root, "phase-b")
                )
            ok = ("server death survived; the successor adopted the run, "
                  "re-executed nothing, and reproduced the digest")
        return _verdict(failures, ok)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.target == "sweep" and not args.spec:
        raise SystemExit("repro: error: chaos sweep needs --spec SPEC.toml")
    if args.kill_parent is not None or args.kill_server is not None:
        return _kill_proof(args, job_payload(args))
    if args.fault == "corrupt_cache":
        if args.target == "fleet":
            raise SystemExit(
                "repro: error: corrupt_cache needs a cached target "
                "(reproduce or sweep)"
            )
        if args.poison:
            raise SystemExit(
                "repro: error: --poison targets worker faults; "
                "corrupt_cache selects cache keys by hash"
            )
    return _fault_proof(args, job_payload(args))
