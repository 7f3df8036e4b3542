"""The chaos verdict's failure branches, in-process on made-up inputs.

The CLI tests only ever see the passing path; these feed the shared
checks of :mod:`repro.chaos` the exact situations each branch names,
with no subprocess and no pipeline run.
"""

import json
import signal
from types import SimpleNamespace

import pytest

from repro.chaos import Recovery, check_faults, check_kill

BASELINE = "d" * 64


def _info(directory, status="interrupted", done=3, total=5):
    return SimpleNamespace(
        run_id="run-x", status=status, done_units=done, total_units=total,
        directory=str(directory),
    )


def _write_trace(directory, n_segments):
    with open(directory / "trace.jsonl", "w", encoding="utf-8") as fh:
        for seq in range(n_segments):
            fh.write(json.dumps({
                "t": "segment", "seq": seq, "pid": 100 + seq,
                "run_id": "run-x", "unix_ns": 10 ** 18, "mono_ns": seq,
            }) + "\n")


def _recovered(replayed=3, digest=BASELINE):
    return lambda info, failures: Recovery(
        total=info.total_units, replayed=replayed, executed=2, cached=0,
        digest=digest,
    )


def _check(returncode, info, recover, **kwargs):
    return check_kill(
        returncode, info, recover, BASELINE, flag="--kill-parent",
        **kwargs,
    )


def _never(info, failures):  # pragma: no cover — must not be reached
    raise AssertionError("recovery ran after a failed kill")


def test_clean_kill_and_recovery_passes(tmp_path, capsys):
    _write_trace(tmp_path, 2)
    assert _check(-signal.SIGKILL, _info(tmp_path), _recovered()) == []
    out = capsys.readouterr().out
    assert "re-executed=0" in out
    assert "matches uninterrupted run" in out
    assert "[telemetry: trace.jsonl merged 2 process segments" in out


@pytest.mark.parametrize("returncode", [1, 143, -signal.SIGTERM])
def test_orchestrator_not_killed_by_sigkill_fails(tmp_path, returncode):
    failures = _check(
        returncode, _info(tmp_path), _never, stderr_tail="Traceback"
    )
    assert failures == [
        f"orchestrator exited {returncode}, expected SIGKILL: Traceback"
    ]


def test_orchestrator_that_finished_asks_for_a_lower_kill_point(tmp_path):
    failures = _check(0, _info(tmp_path), _never)
    assert failures == [
        "orchestrator finished before the kill landed; lower --kill-parent"
    ]


def test_missing_run_fails(tmp_path):
    assert _check(-signal.SIGKILL, None, _never) == [
        "no journaled run survived the kill"
    ]


def test_run_sealed_before_the_kill_fails(tmp_path):
    failures = _check(
        -signal.SIGKILL, _info(tmp_path, status="sealed"), _never
    )
    assert failures == [
        "run sealed before the kill landed; lower --kill-parent"
    ]


def test_recovery_that_re_executes_journaled_units_fails(tmp_path):
    _write_trace(tmp_path, 2)
    failures = _check(
        -signal.SIGKILL, _info(tmp_path, done=3), _recovered(replayed=1)
    )
    assert failures == ["recovery re-executed 2 journaled unit(s)"]


def test_digest_mismatch_fails(tmp_path):
    _write_trace(tmp_path, 2)
    failures = _check(
        -signal.SIGKILL, _info(tmp_path), _recovered(digest="e" * 64)
    )
    assert failures == [
        f"resumed digest {'e' * 64} != uninterrupted digest {BASELINE}"
    ]


def test_unsealed_recovery_fails(tmp_path):
    _write_trace(tmp_path, 2)
    failures = _check(
        -signal.SIGKILL, _info(tmp_path), _recovered(digest=None)
    )
    assert failures == ["resumed run did not seal"]


@pytest.mark.parametrize("n_segments", [0, 1])
def test_fewer_than_two_trace_segments_fails(tmp_path, n_segments):
    _write_trace(tmp_path, n_segments)
    failures = check_kill(
        -signal.SIGKILL, _info(tmp_path), _recovered(), BASELINE,
        flag="--kill-server",
    )
    assert failures == [
        f"telemetry: expected >= 2 trace segments (killed + adopted), "
        f"found {n_segments}"
    ]


def test_failures_of_the_recover_step_itself_are_kept(tmp_path):
    def recover(info, failures):
        failures.append("successor never adopted run run-x")
        return None

    assert _check(-signal.SIGKILL, _info(tmp_path), recover) == [
        "successor never adopted run run-x"
    ]


def test_faulted_digest_matching_or_holed_passes():
    assert check_faults(
        {"a": "1", "b": "2"},
        {"a": ("1", ()), "b": ("garbage", ("b/unit",))},
        ["b/unit"], ["b/unit"],
    ) == []


def test_faulted_digest_diverging_with_no_holes_fails():
    failures = check_faults({"fleet": "1"}, {"fleet": ("2", ())}, [], [])
    assert failures == [
        "fleet: digest diverged under faults with nothing quarantined"
    ]


def test_quarantine_differing_from_the_poison_set_fails():
    failures = check_faults(
        {"campaign": "1"}, {"campaign": ("2", ("u1",))}, ["u1"], ["u2"]
    )
    assert failures == ["quarantined units ['u1'] != poison set ['u2']"]
