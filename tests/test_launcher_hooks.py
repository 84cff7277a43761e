"""The traced benchmark daemon still finds every name it wraps.

``perfbench/launcher.py`` wraps functions of the daemon's layers from
the outside.  A refactor that renames or bypasses one of them leaves its
per-layer metrics silently at zero; this drives a traced in-process
daemon through one deploy, echo, status and undeploy, and checks that
each wrapped layer recorded spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in its own interpreter: install() patches classes for the whole process
SCRIPT = r"""
import json
import os
import select
import sys
import time
from pathlib import Path

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]

import launcher
from spans import Recorder, SpanSet

rec = Recorder()
launcher.install(rec)

from proteus.control import ControlClient
from proteus.daemon import Daemon
from proteus.ham import SimulatedFpga

(tmp / "modem.yaml").write_text(
    "module_id: modem\n"
    "display_name: Modem\n"
    "implementations:\n"
    "  - hardware_type: sim-fpga-v1\n"
    "    behavior: modem\n"
    "    image:\n"
    "      behavior: modem-stub\n"
    "config:\n"
    "  endpoint_name: traced0\n")
daemon = Daemon(runtime_dir=tmp, socket_path=tmp / "ctl.sock")
daemon.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
daemon.start()
try:
    with ControlClient(daemon.server.socket_path) as client:
        client.request("load", path=str(tmp / "modem.yaml"))
        dep = client.request("deploy", module_id="modem", ham_id="sim0")
        fd = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        try:
            os.write(fd, b"A")
            got = b""
            deadline = time.monotonic() + 5
            while got != b"A" and time.monotonic() < deadline:
                if select.select([fd], [], [], 0.1)[0]:
                    got += os.read(fd, 16)
            assert got == b"A", got
            client.request("status")
        finally:
            os.close(fd)
        client.request("undeploy", deployment_id=dep["deployment_id"])
finally:
    daemon.stop()
rec.dump(tmp / "spans.npz")
spans = SpanSet([tmp / "spans.npz"])
print(json.dumps({name: spans.calls(name) for name in spans.names("")}))
"""


def test_traced_daemon_records_every_layer(tmp_path):
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    calls = json.loads(run.stdout.splitlines()[-1])
    for name in ("core.pump", "endpoint.pump_once", "channel.read", "trace.emit",
                 "daemon.call.deploy", "daemon.call.status", "daemon.call.undeploy"):
        assert calls.get(name, 0) > 0, (name, calls)
