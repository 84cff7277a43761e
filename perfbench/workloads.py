"""The three workloads and the set-up phase they share.

A run is a sequence of daemon starts, and each start is driven by a
fresh generator process (``perfbench/segment.py``), one at a time; the
run pools their samples.  A Python process, daemon or generator, runs
faster or slower than the next by 10-30% (memory layout, hash seeds,
host load at the time), so a run measured by one generator process, or
on one daemon, inherits that process's luck; pooling ten starts spread
over the run averages it out.

Every start is timed from spawn until ``status`` answers.
``interactive`` and ``bulk`` split their measured time evenly over
``SEGMENTS`` starts.  On each of them ``PROBE_CYCLES`` cycles first
deploy the workload's modems, ask for ``status`` and undeploy them, with
no client attached, so those workloads also measure the control round
trips on an unloaded daemon.  They all come before the measured phase:
after bulk traffic ``status`` took longer, and a p50 taken over two
such populations jumps between them from run to run.  ``churn`` measures on every start, in
batches of ``CHURN_CYCLES`` cycles, so a daemon's deployment history,
which the program never prunes, is the same however fast the cycles
run.  No daemon outlives its start, and no start sees another's history.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from proteus.control import RemoteError
from proteus.errors import ProtocolError

from clients import (AT_TABLE, DIAL, BulkStream, Mismatch, Outcome,
                     PacedTerminal, at_reply, data_bytes, drive, exchange,
                     interactive_script, open_link)
from proc import DaemonProcess, cpu_plan

SEGMENTS = 10             # daemon starts per run of interactive and bulk
SEGMENT_GRACE = 60.0      # seconds a segment may take beyond its measured time
PROBE_CYCLES = 40         # control round trips per start of interactive and bulk
RATE = 250.0              # requests per second of one paced terminal
BULK_PAYLOAD = 64 * 1024  # seeded bytes per start, streamed over and over
BULK_RATE = 5e5           # bytes per second offered by the bulk stream
CHURN_CYCLES = 50         # deploy/undeploy cycles per daemon
CHURN_ECHOES = 4          # single bytes echoed per churn cycle
CHURN_DEPLOYMENT = ("modem-a", "sim0")
DEPLOYMENTS = {
    "interactive": [("modem-a", "sim0")],
    "bulk": [("modem-a", "sim0"), ("modem-b", "sim1")],
    "churn": [],
}


@dataclass
class RunData:
    """Raw observations of one run, before they become metrics."""

    setup_s: list = field(default_factory=list)
    rpc: dict = field(default_factory=lambda: {"deploy": [], "undeploy": [], "status": []})
    outcome: Outcome = field(default_factory=Outcome)
    seconds: float = 0.0          # length of the measured phases
    daemon_cpu_s: float = 0.0     # over the measured phases
    steal_s: float = 0.0          # hypervisor steal on the daemon's CPUs, same phases
    daemon_rss_mb: float = 0.0    # highest VmHWM of a measured daemon
    daemon_threads: int = 0       # highest thread count of a measured daemon
    cycles: int = 0
    span_files: list = field(default_factory=list)

    def merge(self, other: "RunData") -> None:
        self.setup_s += other.setup_s
        for op, samples in other.rpc.items():
            self.rpc[op] += samples
        self.outcome.merge(other.outcome)
        self.seconds += other.seconds
        self.daemon_cpu_s += other.daemon_cpu_s
        self.steal_s += other.steal_s
        self.daemon_rss_mb = max(self.daemon_rss_mb, other.daemon_rss_mb)
        self.daemon_threads = max(self.daemon_threads, other.daemon_threads)
        self.cycles += other.cycles
        self.span_files += other.span_files

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), default=str)

    @classmethod
    def from_json(cls, text: str) -> "RunData":
        fields = json.loads(text)
        fields["outcome"] = Outcome(**fields["outcome"])
        return cls(**fields)


def timed_rpc(data: RunData, client, op: str, **args) -> dict:
    data.outcome.attempted += 1
    start = time.perf_counter()
    reply = client.request(op, **args)
    data.rpc[op].append(time.perf_counter() - start)
    return reply


@contextmanager
def measured(data: RunData, daemon):
    """Charge the time and daemon CPU of the enclosed block to the run."""
    cpu, steal = daemon.cpu_seconds(), daemon.steal_seconds()
    start = time.perf_counter()
    try:
        yield
    finally:
        data.seconds += time.perf_counter() - start
        data.daemon_cpu_s += daemon.cpu_seconds() - cpu
        data.steal_s += daemon.steal_seconds() - steal


def deploy_all(data: RunData, client, workload: str) -> list:
    return [timed_rpc(data, client, "deploy", module_id=module_id, ham_id=ham_id)
            for module_id, ham_id in DEPLOYMENTS[workload]]


def undeploy_all(data: RunData, client, infos: list) -> None:
    for info in infos:
        timed_rpc(data, client, "undeploy", deployment_id=info["deployment_id"])


def probe(data: RunData, client, workload: str) -> None:
    """Deploy the workload's modems, ask for ``status``, undeploy them."""
    for _ in range(PROBE_CYCLES if DEPLOYMENTS[workload] else 0):
        infos = deploy_all(data, client, workload)
        timed_rpc(data, client, "status")
        undeploy_all(data, client, infos)


def run(workload: str, seed: int, seconds: float, root, workdir,
        traced: bool = False) -> RunData:
    """Daemon starts, each in its own generator process, until the run is done.

    ``traced`` starts the daemons through the launcher.
    """
    gen_cpus, _ = cpu_plan()
    if gen_cpus:
        os.sched_setaffinity(0, gen_cpus)
    data = RunData()
    start = 0
    while (data.seconds < seconds and not data.outcome.failed if workload == "churn"
           else start < SEGMENTS):
        budget = seconds - data.seconds if workload == "churn" else seconds / SEGMENTS
        data.merge(spawn_segment(workload, seed, start, budget, root, workdir, traced))
        start += 1
    return data


def spawn_segment(workload: str, seed: int, index: int, seconds: float, root,
                  workdir, traced: bool) -> RunData:
    """Run ``segment`` in a fresh generator process and read back its data.

    The child leads its own process group, daemon included, so a child
    that overstays its time is stopped together with its daemon.
    """
    out = workdir / f"segment-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(Path(__file__).resolve().parent / "segment.py"),
               workload, str(seed), str(index), repr(seconds), str(root),
               str(workdir), str(int(traced)), str(out)]
    child = subprocess.Popen(command, cwd=root, start_new_session=True,
                             env=dict(os.environ, PYTHONPATH=str(Path(root) / "src")))
    try:
        code = child.wait(seconds + SEGMENT_GRACE)
    except BaseException as exc:  # overrun, or this run is being stopped
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{workload} segment {index} overran by "
                               f"{SEGMENT_GRACE}s") from None
        raise
    if code != 0:
        raise RuntimeError(f"{workload} segment {index} exited with {code}")
    return RunData.from_json(out.read_text())


def segment(workload: str, seed: int, index: int, seconds: float, root, workdir,
            traced: bool) -> RunData:
    """One daemon start: set-up, probe cycles and ``seconds`` of measurement."""
    rng = random.Random(seed * 1000 + index)
    data = RunData()
    gen_cpus, daemon_cpus = cpu_plan()
    if gen_cpus:
        os.sched_setaffinity(0, gen_cpus)
    spans = workdir / f"spans-{index}.npz" if traced else None
    daemon = DaemonProcess(root, workdir / f"d{index}", daemon_cpus, spans)
    try:
        data.setup_s.append(daemon.wait_ready())
        with daemon.client() as client:
            probe(data, client, workload)
            infos = deploy_all(data, client, workload)
            MEASURED[workload](data, daemon, client, infos, rng, seconds)
            status = daemon.status()
            data.daemon_rss_mb = int(status["VmHWM"].split()[0]) / 1024
            data.daemon_threads = int(status["Threads"])
            undeploy_all(data, client, infos)
    finally:
        daemon.stop()
    if spans is not None:
        data.span_files.append(spans)
    return data


def interactive(data: RunData, daemon, client, infos, rng, seconds) -> None:
    """One person at a terminal: paced AT lines, a dial, then typed bytes."""
    n = int(RATE * seconds / 2)
    terminal = PacedTerminal(open_link(infos[0]["link"]), interactive_script(rng, n, n), RATE)
    try:
        with measured(data, daemon):
            drive([terminal], seconds)
    finally:
        os.close(terminal.fd)
    data.outcome.merge(terminal.outcome)


def bulk(data: RunData, daemon, client, infos, rng, seconds) -> None:
    """A bulk loopback stream on sim0 next to a paced terminal on sim1."""
    n = int(RATE * seconds / 2)
    payload = data_bytes(rng, BULK_PAYLOAD)
    script = interactive_script(rng, n, n)
    stream_fd = open_link(infos[0]["link"])
    terminal_fd = open_link(infos[1]["link"])
    try:
        data.outcome.attempted += 2
        try:
            data.outcome.latency["at"] += [
                exchange(stream_fd, b"ATE0\r", at_reply(b"ATE0", b"OK")),
                exchange(stream_fd, DIAL + b"\r", at_reply(DIAL, b"CONNECT", echo=False))]
        except (Mismatch, TimeoutError) as exc:
            data.outcome.fail(1, f"bulk stream set-up: {exc}")
            return
        stream = BulkStream(stream_fd, payload, BULK_RATE)
        terminal = PacedTerminal(terminal_fd, script, RATE)
        with measured(data, daemon):
            drive([stream, terminal], seconds)
    finally:
        os.close(stream_fd)
        os.close(terminal_fd)
    data.outcome.merge(stream.outcome)
    data.outcome.merge(terminal.outcome)


def churn(data: RunData, daemon, client, infos, rng, seconds) -> None:
    """A closed-loop operator deploying, probing and undeploying a modem.

    A failed RPC ends the batch: the next cycle could not start cleanly.
    """
    with measured(data, daemon):
        churn_batch(data, client, rng, time.perf_counter() + seconds)


def churn_batch(data: RunData, client, rng, deadline: float) -> None:
    module_id, ham_id = CHURN_DEPLOYMENT
    lines = [line for line, code in AT_TABLE.items() if code == b"OK"]
    out = data.outcome
    for _ in range(CHURN_CYCLES):
        if time.perf_counter() >= deadline:
            return
        try:
            info = timed_rpc(data, client, "deploy", module_id=module_id, ham_id=ham_id)
            probe_link(out, info["link"], rng.choice(lines), data_bytes(rng, CHURN_ECHOES))
            timed_rpc(data, client, "status")
            timed_rpc(data, client, "undeploy", deployment_id=info["deployment_id"])
        except (RemoteError, ProtocolError) as exc:
            out.fail(1, f"cycle {data.cycles}: {exc}")
            return
        if os.path.lexists(info["link"]):
            out.fail(1, f"cycle {data.cycles}: link {info['link']} survived undeploy")
        data.cycles += 1


def probe_link(out: Outcome, link: str, line: bytes, echoes: bytes) -> None:
    """Open a fresh endpoint, check an AT line, dial, echo bytes one by one."""
    out.attempted += 2 + len(echoes)
    try:
        fd = open_link(link)
    except OSError as exc:
        out.fail(2 + len(echoes), f"cannot open {link}: {exc}")
        return
    try:
        out.latency["at"].append(exchange(fd, line + b"\r", at_reply(line, b"OK")))
        # the dial only enables the echo; its latency would make at_ok bimodal
        exchange(fd, DIAL + b"\r", at_reply(DIAL, b"CONNECT"))
        for byte in echoes:
            out.latency["echo"].append(exchange(fd, bytes([byte]), bytes([byte])))
            out.verified_bytes += 1
    except (Mismatch, TimeoutError) as exc:
        out.fail(1, f"{link}: {exc}")
    finally:
        os.close(fd)


MEASURED = {"interactive": interactive, "bulk": bulk, "churn": churn}
