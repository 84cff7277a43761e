"""Daemon processes: spawning, readiness, /proc readings and CPU pinning.

The daemon is started the way users start it,
``python -m proteus.cli daemon ...``, from the checkout's ``src`` tree.
The traced variant runs the same command line through
``perfbench/launcher.py``.  Only our own processes are pinned; /proc is
only read.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from proteus.control import ControlClient

HERE = Path(__file__).resolve().parent
MODULES = HERE / "modules"
HAMS = ("sim0", "sim1")
MANIFESTS = ("modem-a.yaml", "modem-b.yaml")
READY_TIMEOUT = 30.0
STOP_TIMEOUT = 10.0


def cpu_plan() -> tuple[set | None, set | None]:
    """(generator CPUs, daemon CPUs): two disjoint CPUs when we have two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def steal_seconds(cpus) -> float:
    """Time the hypervisor ran something else on ``cpus``, from /proc/stat."""
    wanted = {f"cpu{cpu}" for cpu in cpus}
    ticks = 0
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] in wanted:
                ticks += int(fields[8])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_status(pid: int) -> dict:
    """The fields of /proc/<pid>/status, as strings."""
    fields = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # the command name may contain spaces; fields resume after its ')'
    rest = stat[stat.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


class DaemonProcess:
    """One daemon with its own runtime directory under ``workdir``."""

    def __init__(self, root: Path, workdir: Path, cpus: set | None,
                 trace_out: Path | None = None):
        self.cpus = cpus or set(range(os.cpu_count() or 1))
        workdir.mkdir(parents=True, exist_ok=True)
        # a Unix socket path must fit in 108 bytes, so generator and daemon
        # both run in ``root`` and name the socket relative to it
        self.socket = os.path.relpath(workdir / "ctl.sock", root)
        argv = ["daemon", "--runtime-dir", str(workdir), "--socket", self.socket]
        for ham in HAMS:
            argv += ["--ham", ham]
        for manifest in MANIFESTS:
            argv += ["--load", str(MODULES / manifest)]
        if trace_out is None:
            command = [sys.executable, "-m", "proteus.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(trace_out), *argv]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log_path = workdir / "daemon.log"
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
        self.pid = self.proc.pid

    def wait_ready(self) -> float:
        """Seconds from spawn until ``status`` shows the hams and manifests."""
        deadline = self.started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}: "
                                   f"{self.log_tail()}")
            try:
                with ControlClient(self.socket, timeout=5.0) as client:
                    status = client.request("status")["status"]
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.002)
                continue
            hams = {h["ham_id"] for h in status["hams"]}
            modules = {m["module_id"] for m in status["modules"]}
            if hams >= set(HAMS) and len(modules) >= len(MANIFESTS):
                return time.perf_counter() - self.started
            time.sleep(0.002)
        raise RuntimeError(f"daemon not ready within {READY_TIMEOUT}s")

    def client(self) -> ControlClient:
        return ControlClient(self.socket)

    def status(self) -> dict:
        return proc_status(self.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def steal_seconds(self) -> float:
        return steal_seconds(self.cpus)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM, the way an operator stops the daemon; wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("daemon ignored SIGTERM")
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}: "
                               f"{self.log_tail()}")
