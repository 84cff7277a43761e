"""Running out of file descriptors: refused cleanly, and no spinning.

Each test lowers ``RLIMIT_NOFILE`` of a child process of its own
through ``preexec_fn``, never of the test process.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from proteus.control import ControlClient, RemoteError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NOFILE = 16  # the daemon's fd limit: a few control connections past its own fds


def _limit(n: int):
    def preexec() -> None:
        resource.setrlimit(resource.RLIMIT_NOFILE,
                           (n, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
    return preexec


def _read_until(fd: int, marker: bytes, timeout: float = 5.0) -> bytes:
    got = b""
    deadline = time.monotonic() + timeout
    while marker not in got and time.monotonic() < deadline:
        if select.select([fd], [], [], 0.05)[0]:
            got += os.read(fd, 256)
    return got


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0]) / 1e9


def test_daemon_out_of_fds_refuses_connections_without_spinning(tmp_path):
    peer = socket.create_server(("127.0.0.1", 0))  # a dial could reach it
    (tmp_path / "dialplan.conf").write_text(
        f"2323 = tcp:127.0.0.1:{peer.getsockname()[1]}\n")
    (tmp_path / "modem.yaml").write_text(textwrap.dedent("""\
        module_id: modem
        display_name: Modem
        implementations:
          - hardware_type: sim-fpga-v1
            behavior: modem
            image:
              behavior: modem-stub
        config:
          endpoint_name: modem0
          dial_plan: dialplan.conf
        """))
    sock = tmp_path / "ctl.sock"
    log = tmp_path / "daemon.log"
    with open(log, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "proteus.cli", "daemon", "--socket", str(sock),
             "--runtime-dir", str(tmp_path), "--load", str(tmp_path / "modem.yaml")],
            stdout=subprocess.PIPE, stderr=stderr, text=True, preexec_fn=_limit(NOFILE))
    held, pty = [], None
    try:
        assert select.select([proc.stdout], [], [], 15)[0], "the daemon never got ready"
        assert "daemon ready" in proc.stdout.readline()
        held.append(ControlClient(sock, timeout=5))
        dep = held[0].request("deploy", module_id="modem", ham_id="sim0")
        pty = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        os.write(pty, b"AT\r")
        assert b"OK\r\n" in _read_until(pty, b"OK\r\n")

        refused = 0
        while refused < 3:  # the first refusal, and two while still out of fds
            assert len(held) < NOFILE, "the daemon never ran out of fds"
            held.append(ControlClient(sock, timeout=5))  # closed below, whatever happens
            try:
                held[-1].request("status")
            except RemoteError as exc:
                held.pop().close()
                assert exc.code == "os-resource-failure"
                assert "out of file descriptors" in exc.message
                refused += 1
            except TimeoutError:
                pytest.fail("a connection past the fd limit got no answer")

        cpu = _cpu_seconds(proc.pid)
        time.sleep(1.0)
        assert _cpu_seconds(proc.pid) - cpu < 0.05  # under 5% of a core

        os.write(pty, b"AT\r")  # a running deployment is still served
        assert b"OK\r\n" in _read_until(pty, b"OK\r\n")
        os.write(pty, b"ATD2323\r")  # but a carrier needs an fd
        assert b"NO CARRIER" in _read_until(pty, b"NO CARRIER")
    finally:
        if pty is not None:
            os.close(pty)
        for client in held:
            client.close()
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            peer.close()
    warnings = [line for line in log.read_text().splitlines() if " WARNING " in line]
    assert len(warnings) == 1, warnings[:3]  # one exhaustion, one warning
    assert proc.returncode == 0


# runs in its own interpreter: it fills its fd table up
DEPLOY_AT_THE_LIMIT = r"""
import json
import os
import sys

from proteus.core import Platform
from proteus.errors import OsResourceError
from proteus.ham import SimulatedFpga
from proteus.manifest import Implementation, ModuleManifest

platform = Platform(runtime_dir=sys.argv[1])
platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
platform.load_module(ModuleManifest(
    module_id="shouter", display_name="Shouter",
    implementations=(Implementation(hardware_type="sim-fpga-v1",
                                    behavior="identity", image_behavior="upper"),),
    config={}))
held = []
try:
    while True:
        held.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
os.close(held.pop())  # exactly one fd free: too few for a PTY's two
try:
    platform.deploy("shouter", "sim0")
    message = None
except OsResourceError as exc:
    message = exc.message
free = 0
try:
    while True:
        held.append(os.open(os.devnull, os.O_RDONLY))
        free += 1
except OSError:
    pass
for fd in held:
    os.close(fd)
state = platform.status()["deployments"][0]["state"]
platform.shutdown()
print(json.dumps({"message": message, "free": free, "state": state}))
"""


def test_deploy_out_of_fds_names_the_cause_and_leaks_none(tmp_path):
    run = subprocess.run([sys.executable, "-c", DEPLOY_AT_THE_LIMIT, str(tmp_path)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=_limit(64))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["message"] is not None, "the deploy succeeded"
    assert "Too many open files" in result["message"], result["message"]
    assert result["free"] == 1  # the one it had: the deploy kept no fd
    assert result["state"] == "stopped"
    assert not list(tmp_path.glob("proteus/*"))  # nothing published


# runs in its own interpreter: it fills its fd table up
RESERVE_LOST = r"""
import json
import logging
import os
import socket
import sys

from proteus.daemon import Daemon

warnings = []
logging.getLogger("proteus.daemon").addHandler(
    type("Keep", (logging.Handler,), {"emit": lambda self, r: warnings.append(1)})())
daemon = Daemon(runtime_dir=sys.argv[1], socket_path=os.path.join(sys.argv[1], "ctl.sock"))
server = daemon.server
clients = []
for _ in range(2):  # waiting in the listener's backlog
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(str(server.socket_path))
    client.settimeout(5)
    clients.append(client)
os.close(server._reserve)  # as if another process took its fd back
server._reserve = -1
held = []
try:
    while True:
        held.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
server._accept()  # out of fds and without a reserve: one warning
server._accept()
lost = server._reserve
os.close(held.pop())  # one fd frees up
server._accept()
replies = [json.loads(client.recv(4096)) for client in clients]
print(json.dumps({"lost": lost, "reserve": server._reserve >= 0,
                  "warnings": len(warnings), "replies": replies}))
"""


def test_a_reserve_lost_at_a_refusal_is_taken_again_once_an_fd_frees(tmp_path):
    run = subprocess.run([sys.executable, "-c", RESERVE_LOST, str(tmp_path)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=_limit(64))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["lost"] == -1
    assert result["reserve"]  # taken again: later exhaustions are refused too
    assert result["warnings"] == 1
    assert [reply["error"]["code"] for reply in result["replies"]] == [
        "os-resource-failure"] * 2
