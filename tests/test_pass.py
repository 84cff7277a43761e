"""The pump pass as a real PTY client sees it through ``Platform.serve()``:
the bytes it gets back, what one request costs in Python calls, and what
an undeploy throws away."""

from __future__ import annotations

import cProfile
import os
import select
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import proteus
from proteus.core import Platform
from proteus.endpoint import ATTACH_SAMPLE, DRAIN_WAIT
from proteus.ham import SimulatedFpga
from proteus.modem import Modem
from proteus.trace import TraceKind

from conftest import make_manifest

PACKAGE = str(Path(proteus.__file__).parent)


class Served:
    """One deployment on a real platform and its PTY client, served the
    way the daemon serves it."""

    def __init__(self, root: Path, module: str):
        self.platform = Platform(runtime_dir=root)
        self.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
        if module == "modem":
            self.platform.load_module(make_manifest())
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
        """How many passes the deployment gets while the platform is
        served, as the daemon serves it, for ``seconds``."""
        platform, pump, count = self.platform, self.platform.pump, 0

        def counted(deployment_id):
            nonlocal count
            count += deployment_id == self.dep
            return pump(deployment_id)

        platform.pump = counted
        try:
            end = time.monotonic() + seconds
            while (left := end - time.monotonic()) > 0:
                platform.serve(left)
        finally:
            del platform.pump
        return count

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
