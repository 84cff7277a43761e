"""Stateful property test of a Platform driven only by ``serve()``.

A Hypothesis rule-based machine deploys the ``shouter`` module (the
``upper`` image behind the identity runtime) onto two simulated devices
under both policies, undeploys, and attaches real PTY clients that write
and read, and that pause reading while they write past the PTY's room.
The platform moves bytes only when a rule calls :meth:`Platform.serve`,
after waiting on its fd for no longer than its timeout, exactly as an
event loop does.  After every step the platform's epoll holds exactly
the masters of the attached clients of active deployments, each for
``EPOLLIN`` while it can take input and for ``EPOLLOUT`` while it holds
output back, and none for neither, and the master of each stopped
deployment whose client still reads its tail, for ``EPOLLOUT``.  Every byte a client reads is the
upper-cased byte it sent at that place in its stream.  Once a client
settles, every byte it sent has come back or is counted as dropped; if
its deployment was undeployed, that holds for every byte the platform
took from it.
"""

from __future__ import annotations

import os
import select
import shutil
import tempfile
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from proteus.core import Platform, Policy
from proteus.endpoint import DRAIN_WAIT
from proteus.errors import DeploymentNotActiveError, HardwareBusyError
from proteus.ham import SimulatedFpga

from conftest import epoll_events, make_manifest

HAMS = ("sim0", "sim1")
# what a client leaves unanswered at most: well inside one pass's intake,
# so an undeploy's final pass takes all of it
MAX_OUTSTANDING = 1024
SETTLE = 2.0  # seconds a settling client waits for its answers
# a client that pauses reading writes this, at most PAUSE_WRITES times:
# well past the PTY's room (about 12 KiB one way on Linux), and short of
# also filling the channel back, so its input is not held back
PAUSE_PAYLOAD = b"p" * 512
PAUSE_WRITES = 64


class Client:
    """A PTY client of one deployment, and the bytes it sent and got."""

    def __init__(self, fd, deployment, endpoint):
        self.fd = fd
        self.deployment = deployment  # kept to read its counters once stopped
        self.endpoint = endpoint
        self.sent = bytearray()
        self.got = bytearray()
        # what earlier clients of the same endpoint left on its counters
        self.start = self.counters()

    def read(self) -> None:
        while select.select([self.fd], [], [], 0)[0]:
            try:
                chunk = os.read(self.fd, 4096)
            except OSError:
                return  # EIO: the master has closed
            if not chunk:
                return
            self.got += chunk
        assert self.got == self.sent.upper()[:len(self.got)]

    def counters(self) -> tuple[int, int]:
        """(bytes the endpoint took from its clients, bytes dropped)"""
        return (self.endpoint.bytes_from_app,
                self.deployment.bytes_dropped + self.endpoint.bytes_dropped)

    def owed(self, stopped: bool) -> int:
        """How many bytes must come back or be counted as dropped.  An
        undeploy takes no more input: a write still on its way through
        the tty when the final pass read the master is the tty's to lose."""
        return self.counters()[0] - self.start[0] if stopped else len(self.sent)

    def answered(self) -> int:
        return len(self.got) + self.counters()[1] - self.start[1]


class PlatformMachine(RuleBasedStateMachine):
    deployments = Bundle("deployments")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="proteus-machine-")
        self.platform = Platform(runtime_dir=self.dir)
        for ham_id in HAMS:
            self.platform.register_ham(SimulatedFpga(ham_id, "sim-fpga-v1"))
        self.platform.load_module(make_manifest("shouter", "identity", "upper"))
        self.ham_of: dict[str, str] = {}
        self.state: dict[str, str] = {}  # deployment id -> its expected state
        self.occupant: dict[str, str] = {}  # ham id -> active deployment id
        self.queues: dict[str, list[str]] = {ham_id: [] for ham_id in HAMS}
        self.clients: dict[str, Client] = {}  # active deployment id -> its client

    # -- lifecycle ----------------------------------------------------------

    @initialize(target=deployments)
    def first_deploy(self):
        return self.deploy(HAMS[0], Policy.REJECT)

    @rule(target=deployments, ham_id=st.sampled_from(HAMS), policy=st.sampled_from(Policy))
    def deploy(self, ham_id, policy):
        if ham_id in self.occupant and policy is Policy.REJECT:
            with pytest.raises(HardwareBusyError):
                self.platform.deploy("shouter", ham_id, policy)
            return multiple()
        dep = self.platform.deploy("shouter", ham_id, policy)
        self.ham_of[dep] = ham_id
        if ham_id in self.occupant:
            self.queues[ham_id].append(dep)
            self.state[dep] = "pending"
        else:
            self.occupant[ham_id] = dep
            self.state[dep] = "active"
        return dep

    @rule(dep=deployments)
    def undeploy(self, dep):
        if self.state[dep] != "active":
            with pytest.raises(DeploymentNotActiveError):
                self.platform.undeploy(dep)
            return
        client = self.clients.pop(dep, None)
        self.platform.undeploy(dep)
        stopped = time.monotonic()
        self.state[dep] = "stopped"
        ham_id = self.ham_of[dep]
        del self.occupant[ham_id]
        if self.queues[ham_id]:
            nxt = self.queues[ham_id].pop(0)
            self.occupant[ham_id] = nxt
            self.state[nxt] = "active"
        if client is not None:
            # the final pass answered what it had sent; the tail is its own to read
            self._settle(client, stopped)

    # -- clients ------------------------------------------------------------

    def _unattached(self):
        return sorted(dep for dep in self.occupant.values() if dep not in self.clients)

    @precondition(lambda self: self._unattached())
    @rule(data=st.data())
    def attach(self, data):
        dep = data.draw(st.sampled_from(self._unattached()))
        deployment = self.platform._deployments[dep]
        fd = os.open(self.platform.deployment_info(dep)["link"],
                     os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        self.clients[dep] = Client(fd, deployment, deployment.endpoint)

    @precondition(lambda self: self.clients)
    @rule(data=st.data(), payload=st.binary(min_size=1, max_size=64))
    def write(self, data, payload):
        client = self.clients[data.draw(st.sampled_from(sorted(self.clients)))]
        if len(client.sent) - len(client.got) + len(payload) > MAX_OUTSTANDING:
            return
        client.sent += payload[:os.write(client.fd, payload)]

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def pause_reading(self, data):
        """The client writes, and is served, without reading until the
        PTY holds back output; it reads again at the next ``serve``."""
        client = self.clients[data.draw(st.sampled_from(sorted(self.clients)))]
        for _ in range(PAUSE_WRITES):
            if client.endpoint._out_pending:
                break
            try:
                client.sent += PAUSE_PAYLOAD[:os.write(client.fd, PAUSE_PAYLOAD)]
            except BlockingIOError:
                pass
            self._serve()
        assert client.endpoint._out_pending

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def close_client(self, data):
        dep = data.draw(st.sampled_from(sorted(self.clients)))
        client = self.clients.pop(dep)
        self._settle(client)

    @rule()
    def serve(self):
        self._serve()
        for client in self.clients.values():
            client.read()

    def _serve(self) -> None:
        timeout = self.platform.timeout()
        select.select([self.platform.fileno()], [], [],
                      0.02 if timeout is None else min(timeout, 0.02))
        self.platform.serve()

    def _settle(self, client: Client, stopped: float | None = None) -> None:
        """Serve until ``client`` has its answers, check them and close it.

        A client whose deployment ``stopped`` may lose a tail it starts
        reading only after ``DRAIN_WAIT``, as documented.
        """
        try:
            want = client.owed(stopped is not None)
            assert want <= len(client.sent)
            deadline = time.monotonic() + SETTLE
            client.read()
            late = stopped is not None and time.monotonic() - stopped >= DRAIN_WAIT
            while client.answered() < want and time.monotonic() < deadline:
                self._serve()
                client.read()
            if not late:
                assert client.answered() == want
        finally:
            os.close(client.fd)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def states_agree(self):
        for dep, state in self.state.items():
            assert self.platform.deployment_info(dep)["state"] == state

    @invariant()
    def epoll_holds_the_attached_active_masters(self):
        expected = {}
        for dep in self.occupant.values():
            endpoint = self.platform._deployments[dep].endpoint
            events = (0 if endpoint.holds_input else select.EPOLLIN) | (
                select.EPOLLOUT if endpoint._out_pending else 0)
            if endpoint._attached and events:
                expected[endpoint._master] = events
        for endpoint in self.platform._draining.values():
            expected[endpoint._master] = select.EPOLLOUT
        assert epoll_events(self.platform) == expected

    def teardown(self):
        try:
            for dep in list(self.clients):
                self._settle(self.clients.pop(dep))
        finally:
            for client in self.clients.values():
                os.close(client.fd)
            self.platform.shutdown()
            shutil.rmtree(self.dir, ignore_errors=True)


PlatformMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestPlatformMachine = PlatformMachine.TestCase
