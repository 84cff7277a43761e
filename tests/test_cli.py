"""proteusctl behavior: commands, exit codes, and the daemon subcommand."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import stat
import subprocess
import sys
import threading
import time

import pytest

from proteus.cli import main
from proteus.control import ControlClient
from proteus.daemon import Daemon
from proteus.ham import SimulatedFpga

MODEM_YAML = """\
module_id: modem
display_name: Hayes Modem
implementations:
  - hardware_type: {hardware_type}
    behavior: modem
    image:
      behavior: modem-stub
config:
  endpoint_name: {endpoint_name}
"""


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    (tmp_path / "modem.yaml").write_text(MODEM_YAML.format(
        hardware_type="sim-fpga-v1", endpoint_name="modem0"))
    d.start()
    yield d
    d.stop()


@pytest.fixture
def sock(daemon):
    return str(daemon.server.socket_path)


def test_load_prints_module_id(daemon, sock, tmp_path, capsys):
    assert main(["load", str(tmp_path / "modem.yaml"), "--socket", sock]) == 0
    assert "loaded module modem" in capsys.readouterr().out


def test_deploy_prints_endpoint(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    assert main(["deploy", "modem", "--ham", "sim0", "--socket", sock]) == 0
    out = capsys.readouterr().out
    assert "active" in out
    assert "endpoint=" in out
    assert "modem0" in out


def test_deploy_busy_fails_with_code(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    main(["deploy", "modem", "--ham", "sim0", "--socket", sock])
    assert main(["deploy", "modem", "--ham", "sim0", "--socket", sock]) == 1
    assert "error: hardware-busy" in capsys.readouterr().err


def test_deploy_queue_flag_waits_in_line(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    main(["deploy", "modem", "--ham", "sim0", "--socket", sock])
    assert main(["deploy", "modem", "--ham", "sim0", "--queue",
                 "--socket", sock]) == 0
    assert "pending" in capsys.readouterr().out


def test_undeploy_roundtrip(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    capsys.readouterr()
    main(["deploy", "modem", "--ham", "sim0", "--socket", sock])
    dep = capsys.readouterr().out.split()[1]
    assert main(["undeploy", dep, "--socket", sock]) == 0
    assert f"undeployed {dep}" in capsys.readouterr().out


def test_undeploy_unknown_fails(daemon, sock, capsys):
    assert main(["undeploy", "d999", "--socket", sock]) == 1
    assert "error: unknown-deployment" in capsys.readouterr().err


def test_status_human_readable(daemon, sock, capsys):
    assert main(["status", "--socket", sock]) == 0
    out = capsys.readouterr().out
    assert "HAMs:" in out
    assert "sim0" in out and "sim-fpga-v1" in out and "idle" in out
    assert "Queued requests: 0" in out


def test_status_json_is_machine_readable(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    capsys.readouterr()
    assert main(["status", "--json", "--socket", sock]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hams"][0]["ham_id"] == "sim0"
    assert doc["modules"][0]["module_id"] == "modem"
    assert doc["queue_depth"] == 0


def test_trace_prints_one_json_event_per_line(daemon, sock, tmp_path, capsys):
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    capsys.readouterr()
    assert main(["trace", "--socket", sock]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    events = [json.loads(l) for l in lines]
    assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
    assert any(e["kind"] == "ModuleLoaded" for e in events)


def test_trace_follow_streams_until_daemon_stops(daemon, sock, tmp_path, capsys):
    rc = {}

    def follow():
        rc["code"] = main(["trace", "--follow", "--socket", sock])

    follower = threading.Thread(target=follow)
    follower.start()
    time.sleep(0.3)
    main(["load", str(tmp_path / "modem.yaml"), "--socket", sock])
    time.sleep(0.5)
    daemon.stop()
    follower.join(timeout=10)
    assert not follower.is_alive()
    assert rc["code"] == 0
    out = capsys.readouterr().out
    assert any(json.loads(l)["kind"] == "ModuleLoaded"
               for l in out.splitlines() if l.startswith("{"))


def test_no_daemon_reports_unreachable(tmp_path, capsys):
    assert main(["status", "--socket", str(tmp_path / "nothing.sock")]) == 1
    assert "error: no-daemon" in capsys.readouterr().err


def test_a_refused_connection_is_reported_as_an_error_line(tmp_path, capsys):
    path = tmp_path / "refusing.sock"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(str(path))
        listener.listen(1)

        def refuse():  # answers before the request comes, or after, unread
            with listener.accept()[0] as conn:
                conn.sendall(b'{"ok": false, "error": {"code": "too-many-clients", '
                             b'"message": "at most 64"}}\n')

        refuser = threading.Thread(target=refuse)
        refuser.start()
        try:
            assert main(["status", "--socket", str(path)]) == 1
        finally:
            refuser.join(timeout=5)
    assert capsys.readouterr().err == "error: too-many-clients: at most 64\n"


def test_control_socket_env_var_is_honored(daemon, sock, monkeypatch, capsys):
    monkeypatch.setenv("PROTEUS_CONTROL", sock)
    assert main(["status", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hams"]


def _read_line_with_timeout(stream, timeout):
    ready, _, _ = select.select([stream], [], [], timeout)
    assert ready, "daemon never printed its ready line"
    return stream.readline()


def test_daemon_subcommand_serves_until_sigterm(tmp_path):
    manifest = tmp_path / "modem.yaml"
    manifest.write_text(MODEM_YAML.format(hardware_type="virtex-7",
                                          endpoint_name="modem0"))
    sock = tmp_path / "ctl.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "proteus.cli", "daemon",
         "--socket", str(sock), "--runtime-dir", str(tmp_path),
         "--ham", "fpga1:virtex-7", "--load", str(manifest)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        ready = _read_line_with_timeout(proc.stdout, 15)
        assert "daemon ready" in ready
        assert str(sock) in ready

        out = subprocess.run(
            [sys.executable, "-m", "proteus.cli", "status", "--json",
             "--socket", str(sock)],
            capture_output=True, text=True, timeout=15)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["hams"][0] == {
            **doc["hams"][0],
            "ham_id": "fpga1", "hardware_type": "virtex-7", "busy": False,
        }
        assert doc["modules"][0]["module_id"] == "modem"

        deploy = subprocess.run(
            [sys.executable, "-m", "proteus.cli", "deploy", "modem",
             "--ham", "fpga1", "--socket", str(sock)],
            capture_output=True, text=True, timeout=15)
        assert deploy.returncode == 0
        assert "active" in deploy.stdout
    finally:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        proc.stdout.close()
    assert rc == 0
    assert not sock.exists()


def test_importing_the_cli_leaves_out_dataclasses_and_what_it_pulls_in():
    # each fresh daemon would pay for them before its first request, and
    # each client command for yaml, which only loading a manifest needs
    run = subprocess.run(
        [sys.executable, "-c", "import sys, proteus.cli; "
         "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'yaml'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=15)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("loads, code", [
    (["missing.yaml"], "malformed-manifest"),
    (["modem.yaml", "modem.yaml"], "duplicate-module-id"),
])
def test_daemon_that_cannot_start_says_why_and_leaves_no_socket(tmp_path, loads, code):
    (tmp_path / "modem.yaml").write_text(MODEM_YAML.format(
        hardware_type="sim-fpga-v1", endpoint_name="modem0"))
    sock = tmp_path / "ctl.sock"
    run = subprocess.run(
        [sys.executable, "-m", "proteus.cli", "daemon",
         "--socket", str(sock), "--runtime-dir", str(tmp_path),
         *(flag for name in loads for flag in ("--load", str(tmp_path / name)))],
        capture_output=True, text=True, timeout=15)
    assert run.returncode == 1
    assert f"error: {code}: " in run.stderr
    assert not sock.exists()


def test_daemon_that_cannot_bind_its_socket_says_why(tmp_path):
    sock = tmp_path / ("s" * 120)  # longer than an AF_UNIX address holds
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "proteus.cli", "daemon",
         "--socket", str(sock), "--runtime-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=15)
    assert run.returncode == 1
    assert run.stderr.startswith("error: os-resource-failure: ")
    assert "too long" in run.stderr
    assert "Traceback" not in run.stderr and "ResourceWarning" not in run.stderr
    assert not sock.exists()


def test_daemon_signal_wakes_the_loop_through_its_wake_pipe(tmp_path, monkeypatch):
    """Python runs a signal handler between bytecodes, so a stop signal
    that lands just before epoll_wait would wait for another wake-up,
    were it not for the byte the signal writes to the wakeup fd: that is
    the write end of a pipe whose read end the platform watches."""
    seen = {}
    serve = Daemon.run

    def run(daemon):
        wakeup = signal.set_wakeup_fd(-1)
        if wakeup >= 0:
            signal.set_wakeup_fd(wakeup, warn_on_full_buffer=False)
            pipe = os.fstat(wakeup)
            seen["fifo"] = stat.S_ISFIFO(pipe.st_mode)
            seen["readers"] = [fd for fd in daemon.platform._readers
                               if fd != wakeup and os.fstat(fd).st_ino == pipe.st_ino]
        daemon.loop.request_stop()
        serve(daemon)

    monkeypatch.setattr(Daemon, "run", run)
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        assert main(["daemon", "--socket", str(tmp_path / "ctl.sock"),
                     "--runtime-dir", str(tmp_path)]) == 0
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    assert seen["fifo"]
    assert len(seen["readers"]) == 1  # the pipe's read end is a platform reader
    assert signal.set_wakeup_fd(-1) == -1  # given back once the daemon stopped


def test_daemon_gives_the_wakeup_fd_back_before_its_pipe_closes(tmp_path, monkeypatch):
    """A signal writes its byte to the wakeup fd, so that fd must not be
    closed while it is still the wakeup fd."""
    pipe = []
    closed, closed_while_wakeup = [], []
    real_close = os.close

    def close(fd):
        if threading.current_thread() is threading.main_thread():
            wakeup = signal.set_wakeup_fd(-1)
            if fd == wakeup:
                closed_while_wakeup.append(fd)
            elif wakeup >= 0:
                signal.set_wakeup_fd(wakeup, warn_on_full_buffer=False)
        closed.append(fd)
        real_close(fd)

    serve = Daemon.run

    def run(daemon):
        pipe.append(daemon.loop.wakeup_fd)
        daemon.loop.request_stop()
        serve(daemon)

    monkeypatch.setattr(Daemon, "run", run)
    monkeypatch.setattr(os, "close", close)
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        assert main(["daemon", "--socket", str(tmp_path / "ctl.sock"),
                     "--runtime-dir", str(tmp_path)]) == 0
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    assert pipe[0] in closed
    assert closed_while_wakeup == []
    assert signal.set_wakeup_fd(-1) == -1


def test_daemon_serves_everything_on_one_thread_and_stops_on_sigint(tmp_path):
    manifest = tmp_path / "modem.yaml"
    manifest.write_text(MODEM_YAML.format(hardware_type="sim-fpga-v1",
                                          endpoint_name="modem0"))
    sock = tmp_path / "ctl.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "proteus.cli", "daemon",
         "--socket", str(sock), "--runtime-dir", str(tmp_path), "--load", str(manifest)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    pty = None
    try:
        assert "daemon ready" in _read_line_with_timeout(proc.stdout, 15)
        with ControlClient(sock) as control, ControlClient(sock) as follower:
            dep = control.request("deploy", module_id="modem", ham_id="sim0")
            pty = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
            os.write(pty, b"AT\r")
            got = b""
            while b"OK\r\n" not in got and select.select([pty], [], [], 5)[0]:
                got += os.read(pty, 64)
            assert b"OK\r\n" in got  # the client is attached and served
            assert next(follower.follow_trace())["kind"] == "HamRegistered"
            with open(f"/proc/{proc.pid}/status") as fh:
                threads = [line.split()[1] for line in fh if line.startswith("Threads:")]
            assert threads == ["1"]
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=15)
    finally:
        if pty is not None:
            os.close(pty)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert rc == 0
    assert not sock.exists()
    assert not os.path.lexists(dep["link"])
