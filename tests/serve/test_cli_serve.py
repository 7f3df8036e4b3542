"""``repro serve`` / ``repro chaos --kill-server`` argument surface,
in-process."""

import os
import tempfile

import pytest

from repro.cli import main


def _no_server_socket():
    return os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-"), "none.sock"
    )


def test_serve_ping_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(["serve", "ping", "--socket", sock]) == 69
    assert "cannot connect" in capsys.readouterr().out


def test_serve_status_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(["serve", "status", "--socket", sock]) == 69


def test_serve_submit_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(
        ["serve", "submit", "fleet", "--nodes", "2", "--seconds", "10",
         "--socket", sock]
    ) == 69


def test_kill_parent_and_kill_server_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "fleet", "--kill-parent", "3", "--kill-server", "3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_serve_start_rejects_bad_queue_limit(tmp_path):
    with pytest.raises(ValueError, match="queue_limit"):
        from repro.serve.server import ServeServer

        ServeServer(cache_root=str(tmp_path), queue_limit=0)
