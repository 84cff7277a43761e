"""The pump pass as a real PTY client sees it through ``Platform.serve()``:
the bytes it gets back, what one request costs in Python calls, what a
client or a TCP peer that pauses costs in passes, and what an undeploy
throws away.  ``tests/wakeups.py`` reports those passes per second from
the same scenes."""

from __future__ import annotations

import cProfile
import errno
import os
import select
import shutil
import socket
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import proteus
from proteus import endpoint as endpoint_module
from proteus.core import Platform
from proteus.endpoint import ATTACH_SAMPLE, DRAIN_WAIT
from proteus.ham import SimulatedFpga
from proteus.modem import Mode, Modem
from proteus.trace import TraceKind

from conftest import epoll_fds, make_manifest

PACKAGE = str(Path(proteus.__file__).parent)


class Served:
    """One deployment on a real platform and its PTY client, served the
    way the daemon serves it."""

    def __init__(self, root: Path, module: str, config: dict | None = None):
        self.platform = Platform(runtime_dir=root)
        self.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
        if module == "modem":
            self.platform.load_module(make_manifest(config=config))
        else:
            self.platform.load_module(make_manifest("shouter", "identity", "upper"))
        self.dep = self.platform.deploy(module, "sim0")
        self.deployment = self.platform._deployments[self.dep]
        self.fd = os.open(self.platform.deployment_info(self.dep)["link"],
                          os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        self.platform.pump(self.dep)  # samples attachment: the master is watched
        self.got = bytearray()

    def read(self) -> None:
        try:
            self.got += os.read(self.fd, 65536)
        except (BlockingIOError, OSError):
            pass  # nothing yet, or EIO once the master has closed

    def send(self, data: bytes) -> None:
        """Write ``data`` and serve until the module has taken all of it,
        so each chunk reaches the module on its own."""
        endpoint = self.deployment.endpoint
        want = endpoint.bytes_from_app + len(data)
        deadline = time.monotonic() + 5
        while data or endpoint.bytes_from_app < want or self.deployment.platform_handle.readable:
            assert time.monotonic() < deadline, "the platform did not take the chunk"
            if data:
                try:
                    data = data[os.write(self.fd, data):]
                except BlockingIOError:
                    pass
            self.platform.serve(0.05)
            self.read()

    def receive(self, size: int) -> bytes:
        deadline = time.monotonic() + 5
        while len(self.got) < size and time.monotonic() < deadline:
            self.platform.serve(0.01)
            self.read()
        return bytes(self.got)

    def fill(self, serve) -> int:
        """Write, and ``serve(timeout)``, without reading, until the
        platform stops taking the client's input; returns what was sent."""
        endpoint = self.deployment.endpoint
        sent = stalled = 0
        while stalled < 20:
            before = endpoint.bytes_from_app
            try:
                sent += os.write(self.fd, b"x" * 512)
            except BlockingIOError:
                pass
            serve(0.01)
            stalled = stalled + 1 if endpoint.bytes_from_app == before else 0
        return sent

    def passes(self, seconds: float) -> int:
        """How many passes the deployment gets, or looks at its client
        once it has stopped, while the platform is served, as the daemon
        serves it, for ``seconds``."""
        platform, count = self.platform, 0

        def counting(method):
            def counted(deployment_id, *args):
                nonlocal count
                count += deployment_id == self.dep
                return method(deployment_id, *args)
            return counted

        platform.pump, platform._linger = counting(platform.pump), counting(platform._linger)
        try:
            end = time.monotonic() + seconds
            while (left := end - time.monotonic()) > 0:
                platform.serve(left)
        finally:
            del platform.pump, platform._linger
        return count

    def serve_until(self, done, what: str) -> None:
        deadline = time.monotonic() + 5
        while not done():
            assert time.monotonic() < deadline, f"the platform did not {what}"
            self.platform.serve(0.01)

    def close(self) -> None:
        os.close(self.fd)
        self.platform.shutdown()


@pytest.fixture
def served(tmp_path):
    opened = []

    def serve(module):
        opened.append(Served(tmp_path, module))
        return opened[-1]

    yield serve
    for each in opened:
        each.close()


# ---------------------------------------------------------------------------
# scenes in which a deployment has nothing to move, shared with tests/wakeups.py

FLOOD = bytes(range(256)) * 1024  # what a TCP peer sends the client


def lingering(served: Served) -> None:
    """The client is sent 100 bytes it does not read, and the deployment
    stops: its master lingers for the client to read them."""
    os.write(served.fd, b"x" * 100)
    endpoint = served.deployment.endpoint
    served.serve_until(lambda: endpoint.bytes_to_app == 100, "answer")
    served.platform.undeploy(served.dep)
    assert served.platform._draining


def called(root: Path, buffer: int | None = None) -> tuple[Served, socket.socket]:
    """A modem deployment in a TCP call, and the peer's socket, which
    does not block; ``buffer`` sets the peer's receive buffer, which is
    not the platform's to bound."""
    with socket.socket() as listener:
        if buffer is not None:  # before listen(), so the window fits it
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        plan = root / "plan.conf"
        plan.write_text(f"1 = tcp:127.0.0.1:{listener.getsockname()[1]}\n")
        served = Served(root, "modem", config={"dial_plan": str(plan)})
        served.send(b"ATE0\rATD1\r")
        want = b"ATE0\r\r\nOK\r\n\r\nCONNECT\r\n"
        assert served.receive(len(want)) == want
        peer, _ = listener.accept()
    peer.setblocking(False)
    served.got.clear()
    return served, peer


def flood(served: Served, peer: socket.socket) -> int:
    """The peer sends ``FLOOD`` until the platform has no room for the
    modem's output; returns what it sent."""
    sent, out = 0, served.deployment.out_pending
    deadline = time.monotonic() + 5
    while len(out) < served.platform._capacity:
        assert time.monotonic() < deadline, "the output did not fill"
        try:
            sent += peer.send(FLOOD[sent:])
        except BlockingIOError:
            pass
        served.platform.serve(0.01)
    return sent


def drain(peer: socket.socket) -> bytes:
    """What the peer receives until nothing comes for 50 ms."""
    got = bytearray()
    while select.select([peer], [], [], 0.05)[0]:
        got += peer.recv(65536)
    return bytes(got)


def escape_withheld(root: Path) -> tuple[Served, socket.socket, int]:
    """A withheld ``+++`` whose guard time (0.1 s) ends while the output
    is full; returns the call, the peer, and what the peer sent."""
    served, peer = called(root)
    runtime = served.deployment.runtime
    runtime.guard_seconds = 0.1
    time.sleep(0.15)  # the guard silence before the escape
    served.send(b"+++")
    assert runtime._plus_count == 3
    sent = flood(served, peer)
    assert runtime.mode is Mode.DATA  # the output filled within the guard time
    return served, peer, sent


def peer_drained(root: Path) -> tuple[Served, socket.socket, int, int, bytes]:
    """A call whose carrier holds a backlog for the peer, and whose
    output is full, once the peer has read what reached it; returns the
    call, the peer, what the client and the peer sent, and what the
    peer received."""
    served, peer = called(root, buffer=4096)
    sent = served.fill(served.platform.serve)
    assert served.deployment.runtime.carrier.backlog
    flooded = flood(served, peer)
    return served, peer, sent, flooded, drain(peer)


def parsed(platform) -> list[dict]:
    return [{k: v for k, v in e.detail.items() if k != "deployment_id"}
            for e in platform.trace.events() if e.kind is TraceKind.COMMAND_PARSED]


def split(stream: bytes, cuts: list[int]) -> list[bytes]:
    edges = [0, *sorted(set(c % (len(stream) + 1) for c in cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


# ---------------------------------------------------------------------------
# the bytes a client gets back do not depend on how its writes are chunked

AT_LINES = [b"AT", b"at", b"ATE0", b"ATE1", b"ATH", b"ATZ", b"ATX", b"hello",
            b"", b"AT" + b"E" * 300]

modem_streams = st.tuples(
    st.lists(st.sampled_from(AT_LINES), max_size=6),
    st.booleans(),
    st.binary(max_size=40).map(lambda b: b.replace(b"\r", b"+")),
    st.lists(st.integers(min_value=0, max_value=2000), max_size=8),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(modem_streams)
def test_modem_answers_a_chunked_stream_as_a_fresh_modem_does(example):
    lines, dial, data, cuts = example
    stream = b"".join(line + b"\r" for line in lines)
    if dial:
        stream += b"ATD1\r" + data  # loopback: the data comes back, '+' and all
    root = Path(tempfile.mkdtemp())
    served = Served(root, "modem")
    try:
        for chunk in split(stream, cuts):
            served.send(chunk)
        reference = Modem()
        fed = reference.feed(stream)
        want = fed.to_app + reference.carrier_pump().to_app
        assert served.receive(len(want)) == want
        assert parsed(served.platform) == fed.events
    finally:
        served.close()
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(min_size=1, max_size=3000),
       st.lists(st.integers(min_value=0, max_value=3000), max_size=8))
def test_shouter_answers_a_chunked_stream_in_upper_case(stream, cuts):
    root = Path(tempfile.mkdtemp())
    served = Served(root, "shouter")
    try:
        for chunk in split(stream, cuts):
            served.send(chunk)
        assert served.receive(len(stream)) == stream.upper()
    finally:
        served.close()
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# what one request costs: Python calls in proteus, counted by cProfile

def calls_per_request(served: Served, request: bytes, reply: bytes, count: int = 200) -> float:
    """Mean calls of proteus functions, generated ``__init__``s included,
    per request served."""

    def exchange():
        os.write(served.fd, request)
        served.got.clear()
        while len(served.got) < len(reply):
            served.platform.serve(1.0)
            served.read()
        assert bytes(served.got) == reply

    for _ in range(20):
        exchange()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(count):
        exchange()
    profile.disable()
    calls = 0
    for entry in profile.getstats():
        code = entry.code
        # a NamedTuple's generated __new__ is compiled from "<string>"
        if not isinstance(code, str) and (code.co_filename.startswith(PACKAGE)
                                          or code.co_filename == "<string>"):
            calls += entry.callcount
    return calls / count


def test_an_echoed_byte_costs_few_calls(served):
    shouter = served("shouter")
    assert calls_per_request(shouter, b"a", b"A") <= 18


def test_a_modem_call_echo_and_an_at_line_cost_few_calls(served):
    modem = served("modem")
    assert calls_per_request(modem, b"AT\r", b"AT\r\r\nOK\r\n") <= 30
    modem.got.clear()
    modem.send(b"ATE0\rATD1\r")
    assert modem.receive(len(b"ATE0\r\r\nOK\r\n\r\nCONNECT\r\n")).endswith(b"CONNECT\r\n")
    assert calls_per_request(modem, b"a", b"a") <= 20


# ---------------------------------------------------------------------------
# a client that stops reading costs no passes until it reads again

def test_a_client_that_stops_reading_costs_no_passes(served):
    shouter = served("shouter")
    endpoint = shouter.deployment.endpoint
    sent = shouter.fill(shouter.platform.serve)
    assert endpoint.holds_input and endpoint._out_pending
    # the full PTY announces room for the output it holds back: no timer
    assert shouter.platform.timeout() is None
    assert shouter.passes(1.0) <= 5
    # the client reads again and gets every byte back
    assert shouter.receive(sent) == b"X" * sent
    assert shouter.deployment.bytes_dropped == endpoint.bytes_dropped == 0


def test_a_client_that_closes_with_both_directions_held_back_detaches(served):
    # input held back leaves the client's last bytes unread, so no read
    # finds out it has gone, and its master reports hangup for ever
    shouter = served("shouter")
    endpoint = shouter.deployment.endpoint
    shouter.fill(shouter.platform.serve)
    assert endpoint.holds_input and endpoint._out_pending
    os.close(shouter.fd)
    shouter.fd = os.open(os.devnull, os.O_RDONLY)  # for close()
    deadline = time.monotonic() + 0.2
    while endpoint._attached and time.monotonic() < deadline:
        shouter.platform.serve(0.01)
    assert not endpoint._attached
    # attachment is sampled again, no more often than that
    assert shouter.passes(1.0) <= 1.0 / ATTACH_SAMPLE + 5


def test_a_lingering_client_that_does_not_read_costs_no_looks(served, monkeypatch):
    monkeypatch.setattr(endpoint_module, "DRAIN_WAIT", 5.0)  # no end of it in this test
    shouter = served("shouter")
    platform = shouter.platform
    lingering(shouter)
    assert shouter.passes(0.2) <= 2
    # the client reads the tail, which wakes the platform once
    shouter.read()
    assert bytes(shouter.got) == b"X" * 100
    platform.serve(0)
    assert not platform._draining
    assert select.select([shouter.fd], [], [], 1.0)[0]  # hung up: EOF, or EIO
    try:
        assert os.read(shouter.fd, 1) == b""
    except OSError as exc:
        assert exc.errno == errno.EIO
    assert epoll_fds(platform) == set()
    assert platform.timeout() is None


def test_a_lingering_client_that_writes_and_closes_is_let_go_at_once(served, monkeypatch):
    # its input is never read, so the master stays readable; only the
    # hangup tells it has gone, and a look that opened the slave to
    # find its tail unread would wake the master's writers again
    monkeypatch.setattr(endpoint_module, "DRAIN_WAIT", 5.0)
    shouter = served("shouter")
    lingering(shouter)
    os.write(shouter.fd, b"late")
    os.close(shouter.fd)
    shouter.fd = os.open(os.devnull, os.O_RDONLY)  # for close()
    assert shouter.passes(0.2) <= 2
    assert not shouter.platform._draining


def test_a_drained_peer_and_a_client_that_does_not_read_cost_no_passes(tmp_path):
    # the client does not read, so the modem gets no room for output, and
    # the carrier's room for its backlog cannot call for a pass
    served, peer, sent, flooded, received = peer_drained(tmp_path)
    try:
        assert served.passes(0.5) <= 5
        # the client reads again: every byte arrives, both ways
        deadline = time.monotonic() + 10
        while (len(served.got) < flooded or len(received) < sent) and (
                time.monotonic() < deadline):
            served.platform.serve(0.01)
            served.read()
            try:
                received += peer.recv(65536)
            except BlockingIOError:
                pass
        assert bytes(served.got) == FLOOD[:flooded]
        assert received == b"x" * sent
        assert served.deployment.bytes_dropped == served.deployment.endpoint.bytes_dropped == 0
    finally:
        peer.close()
        served.close()


def test_a_peer_that_does_not_read_holds_the_client_back_within_64_kib(tmp_path):
    # the peer's receive buffer is capped: what it holds is not the
    # platform's; without a send buffer of its own, the carrier's grew to
    # megabytes, all taken from the client and lost on a reset
    served, peer = called(tmp_path, buffer=4096)
    try:
        served.fill(served.platform.serve)
        assert served.deployment.runtime.carrier.backlog
        assert served.deployment.endpoint.bytes_from_app <= 64 * 1024
    finally:
        peer.close()
        served.close()


def test_an_escape_whose_guard_time_ends_without_output_room_costs_no_passes(tmp_path):
    served, peer, sent = escape_withheld(tmp_path)
    try:
        assert served.passes(0.5) == 0
        # the client reads again: what the modem took from the peer, then
        # the escape's answer
        deadline = time.monotonic() + 5
        while not served.got.endswith(b"\r\nOK\r\n") and time.monotonic() < deadline:
            served.platform.serve(0.01)
            served.read()
        data = bytes(served.got[:-len(b"\r\nOK\r\n")])
        assert served.got == FLOOD[:len(data)] + b"\r\nOK\r\n"
        assert len(data) >= served.platform._capacity
        assert served.deployment.runtime.mode is Mode.COMMAND
        assert served.deployment.bytes_dropped == 0
    finally:
        peer.close()
        served.close()


# ---------------------------------------------------------------------------
# undeploy counts what it throws away

def test_undeploy_counts_the_bytes_it_drops(served):
    # the client writes and does not read: its answer fills the PTY, the
    # channel both ways and the platform's output, and the endpoint holds
    # input it read from the client that the channel has no room for
    shouter = served("shouter")
    platform, endpoint = shouter.platform, shouter.deployment.endpoint

    def serve(timeout):  # nested, as an embedder's own loop serves it
        select.select([platform.fileno()], [], [], timeout)
        platform.serve()

    shouter.fill(serve)
    assert shouter.deployment.out_pending and endpoint.holds_input
    held = len(endpoint._in_pending)
    seq = platform.trace.next_seq
    platform.undeploy(shouter.dep)
    deadline = time.monotonic() + DRAIN_WAIT
    while platform._draining and time.monotonic() < deadline + 1:
        shouter.read()
        serve(0.001)
    shouter.read()
    dropped = {e.detail["where"]: e.detail["bytes"] for e in platform.trace.events(seq)
               if e.kind is TraceKind.DATA_DROPPED}
    assert set(dropped) == {"channel", "platform", "endpoint"}
    # every byte the channel took came back, or is counted dropped
    assert len(shouter.got) + dropped["channel"] + dropped["platform"] == endpoint.bytes_from_app
    assert bytes(shouter.got) == b"X" * len(shouter.got)
    assert dropped["endpoint"] == held == endpoint.bytes_dropped
