"""Control protocol framing plus a live daemon behind a unix socket."""

from __future__ import annotations

import gc
import json
import os
import random
import select
import socket
import threading
import time
import warnings

import pytest

from proteus.control import (
    REQUEST_SCHEMA,
    ControlClient,
    ControlRequest,
    RemoteError,
    encode_request,
    encode_response,
    parse_request,
)
from proteus.daemon import Daemon, PlatformLoop
from proteus.errors import AlreadyRunningError, ProtocolError
from proteus.ham import SimulatedFpga
from proteus.modem import GUARD_SECONDS

from conftest import make_manifest


# ---------------------------------------------------------------------------
# wire format


def test_request_round_trip_simple():
    req = ControlRequest("deploy", {"module_id": "modem", "ham_id": "sim0",
                                    "policy": "queue"})
    assert parse_request(encode_request(req)) == req


def test_parse_fills_optional_defaults():
    req = parse_request(b'{"op": "trace"}')
    assert req.args == {"follow": False, "from_seq": 0}
    req = parse_request(b'{"op": "deploy", "module_id": "m", "ham_id": "h"}')
    assert req.args["policy"] == "reject"


def test_round_trip_over_generated_requests():
    rng = random.Random(77)
    values = ["m0", "sim0", "x-1", "", "42"]
    for _ in range(300):
        op = rng.choice(list(REQUEST_SCHEMA))
        required, optional = REQUEST_SCHEMA[op]
        args = {name: rng.choice(values) for name in required}
        for name, default in optional.items():
            if rng.random() < 0.5:
                args[name] = rng.choice([True, False, 3, "queue"])
        parsed = parse_request(encode_request(ControlRequest(op, args)))
        assert parsed.op == op
        for name, value in args.items():
            assert parsed.args[name] == value
        for name, default in optional.items():
            assert name in parsed.args


@pytest.mark.parametrize("line", [
    b"not json at all",
    b'"just a string"',
    b"[1, 2, 3]",
    b"{}",
    b'{"op": "vanish"}',
    b'{"op": "deploy"}',
    b'{"op": "deploy", "module_id": "m"}',
    b'{"op": "status", "extra": 1}',
    b'{"op": "undeploy"}',
])
def test_bad_requests_rejected(line):
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_response_encoding_shapes():
    ok = json.loads(encode_response(True, {"deployment_id": "d0"}))
    assert ok == {"ok": True, "deployment_id": "d0"}
    err = json.loads(encode_response(False, error_code="unknown-module",
                                     error_message="no such module: m"))
    assert err["ok"] is False
    assert err["error"] == {"code": "unknown-module", "message": "no such module: m"}


# ---------------------------------------------------------------------------
# a live daemon


MODEM_YAML = """\
module_id: modem
display_name: Hayes Modem
implementations:
  - hardware_type: sim-fpga-v1
    behavior: modem
    image:
      behavior: modem-stub
config:
  endpoint_name: modem0
"""


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    (tmp_path / "modem.yaml").write_text(MODEM_YAML)
    d.start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    with ControlClient(daemon.server.socket_path) as c:
        yield c


def test_start_op_acknowledges_running_daemon(client, daemon):
    reply = client.request("start")
    assert reply["running"] is True
    assert reply["socket"] == str(daemon.server.socket_path)


def test_status_lists_registered_hardware(client):
    status = client.request("status")["status"]
    assert status["hams"][0]["ham_id"] == "sim0"
    assert status["deployments"] == []


def test_load_deploy_status_undeploy_cycle(client, tmp_path):
    loaded = client.request("load", path=str(tmp_path / "modem.yaml"))
    assert loaded["module_id"] == "modem"
    dep = client.request("deploy", module_id="modem", ham_id="sim0")
    assert dep["state"] == "active"
    assert os.path.exists(dep["endpoint"])
    status = client.request("status")["status"]
    assert status["hams"][0]["busy"] is True
    client.request("undeploy", deployment_id=dep["deployment_id"])
    status = client.request("status")["status"]
    assert status["hams"][0]["busy"] is False
    assert not os.path.lexists(dep["link"])


def test_remote_errors_carry_stable_codes(client, tmp_path):
    with pytest.raises(RemoteError) as exc:
        client.request("deploy", module_id="ghost", ham_id="sim0")
    assert exc.value.code == "unknown-module"
    with pytest.raises(RemoteError) as exc:
        client.request("undeploy", deployment_id="d999")
    assert exc.value.code == "unknown-deployment"
    with pytest.raises(RemoteError) as exc:
        client.request("load", path=str(tmp_path / "nothing.yaml"))
    # unreadable manifest surfaces as an internal failure, not a hang
    assert exc.value.code


def test_busy_hardware_rejected_over_control(client, tmp_path):
    client.request("load", path=str(tmp_path / "modem.yaml"))
    client.request("deploy", module_id="modem", ham_id="sim0")
    with pytest.raises(RemoteError) as exc:
        client.request("deploy", module_id="modem", ham_id="sim0")
    assert exc.value.code == "hardware-busy"


def test_malformed_wire_data_gets_error_response(daemon):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(5)
    raw.connect(str(daemon.server.socket_path))
    raw.sendall(b"this is not json\n")
    reply = json.loads(raw.makefile("rb").readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "protocol-error"
    raw.close()


def test_trace_request_returns_recorded_events(client, tmp_path):
    client.request("load", path=str(tmp_path / "modem.yaml"))
    events = client.request("trace")["events"]
    kinds = [e["kind"] for e in events]
    assert "HamRegistered" in kinds and "ModuleLoaded" in kinds
    # from_seq is inclusive: resume just past the last event seen
    last = events[-1]["seq"]
    assert client.request("trace", from_seq=last + 1)["events"] == []
    assert client.request("trace", from_seq=last)["events"][0]["seq"] == last


def test_trace_follow_streams_live_events(daemon, tmp_path):
    follower = ControlClient(daemon.server.socket_path)
    stream = follower.follow_trace()
    with ControlClient(daemon.server.socket_path) as actor:
        actor.request("load", path=str(tmp_path / "modem.yaml"))
        actor.request("deploy", module_id="modem", ham_id="sim0")
    seen = []
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        event = next(stream)
        seen.append(event["kind"])
        if "EndpointOpened" in seen:
            break
    # from_seq=0 replays history (the ham was registered before we
    # connected) and then streams the live actions in order
    assert seen[:3] == ["HamRegistered", "ModuleLoaded", "DeployRequested"]
    assert "Deployed" in seen
    follower.close()


def test_concurrent_clients_are_serialized_safely(daemon, tmp_path):
    # many clients hammering status/load while one deploys: no wedging,
    # every response is well-formed
    import threading

    errors = []

    def worker(n):
        try:
            with ControlClient(daemon.server.socket_path) as c:
                for _ in range(20):
                    st = c.request("status")["status"]
                    assert "hams" in st
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
    for t in threads:
        t.start()
    with ControlClient(daemon.server.socket_path) as c:
        c.request("load", path=str(tmp_path / "modem.yaml"))
        dep = c.request("deploy", module_id="modem", ham_id="sim0")
        c.request("undeploy", deployment_id=dep["deployment_id"])
    for t in threads:
        t.join(10)
    assert not errors


# ---------------------------------------------------------------------------
# socket claiming


def test_second_daemon_refuses_claimed_socket(daemon, tmp_path):
    with pytest.raises(AlreadyRunningError):
        Daemon(runtime_dir=tmp_path / "other", socket_path=daemon.server.socket_path)


def test_stale_socket_file_is_reclaimed(tmp_path):
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(str(tmp_path / "ctl.sock"))
    stale.close()  # leaves the filesystem entry with nobody listening
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.start()
    try:
        with ControlClient(d.server.socket_path) as c:
            assert c.request("start")["running"] is True
    finally:
        d.stop()


def test_stopping_daemon_removes_socket(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.start()
    assert (tmp_path / "ctl.sock").exists()
    d.stop()
    assert not (tmp_path / "ctl.sock").exists()


# ---------------------------------------------------------------------------
# the daemon loop pumps deployments without manual help


def test_daemon_answers_at_dial_through_pty(daemon, tmp_path):
    with ControlClient(daemon.server.socket_path) as c:
        c.request("load", path=str(tmp_path / "modem.yaml"))
        dep = c.request("deploy", module_id="modem", ham_id="sim0")
    fd = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
    try:
        os.write(fd, b"ATE0\rATD5551234\r")
        got = bytearray()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                got.extend(os.read(fd, 4096))
            except BlockingIOError:
                pass
            if b"\r\nCONNECT\r\n" in got:
                break
            time.sleep(0.01)
        assert b"\r\nCONNECT\r\n" in got
    finally:
        os.close(fd)


def read_until(fd, marker, timeout=5.0):
    """What a client that only reads gets until ``marker`` or the timeout."""
    got = bytearray()
    deadline = time.monotonic() + timeout
    while marker not in got and time.monotonic() < deadline:
        if select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            got.extend(os.read(fd, 4096))
    return bytes(got)


def dial(daemon, tmp_path, number, manifest=MODEM_YAML):
    """Deploy the manifest's module, open its endpoint and dial ``number``."""
    (tmp_path / "dialer.yaml").write_text(manifest)
    with ControlClient(daemon.server.socket_path) as c:
        module_id = c.request("load", path=str(tmp_path / "dialer.yaml"))["module_id"]
        dep = c.request("deploy", module_id=module_id, ham_id="sim0")
    fd = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
    os.write(fd, b"ATD" + number + b"\r")
    assert read_until(fd, b"\r\nCONNECT\r\n").endswith(b"\r\nCONNECT\r\n")
    return fd


def test_active_deployments_start_no_threads(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i in range(3):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
    d.platform.load_module(make_manifest())
    d.start()
    try:
        idle = threading.active_count()
        for i in range(3):
            d.loop.call(lambda ham_id=f"sim{i}": d.platform.deploy("modem", ham_id))
        assert d.platform.active_count == 3
        assert threading.active_count() == idle
    finally:
        d.stop()


def test_call_after_stop_fails_at_once(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.start()
    d.stop()
    with pytest.raises(RuntimeError):
        d.loop.call(lambda: None, timeout=5)


def test_escape_answers_a_client_that_stays_silent(daemon, tmp_path):
    fd = dial(daemon, tmp_path, b"5551234")
    try:
        time.sleep(GUARD_SECONDS)  # leading guard silence
        os.write(fd, b"+++")
        # nothing else is written: only the trailing guard time ends the escape
        assert read_until(fd, b"\r\nOK\r\n", GUARD_SECONDS + 2) == b"\r\nOK\r\n"
    finally:
        os.close(fd)


BRIDGE_YAML = """\
module_id: bridge
display_name: TCP bridge
implementations:
  - hardware_type: sim-fpga-v1
    behavior: modem
    image:
      behavior: modem-stub
config:
  endpoint_name: bridge0
  dial_plan: plan.conf
"""


def test_tcp_remote_bytes_and_hangup_reach_a_silent_client(daemon, tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(5)
        port = server.getsockname()[1]
        (tmp_path / "plan.conf").write_text(f"5550000 = tcp:127.0.0.1:{port}\n")
        fd = dial(daemon, tmp_path, b"5550000", BRIDGE_YAML)
        try:
            remote, _ = server.accept()
            with remote:
                remote.sendall(b"hello from afar")
            assert (read_until(fd, b"\r\nNO CARRIER\r\n")
                    == b"hello from afar\r\nNO CARRIER\r\n")
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# control sockets are closed, not left to the garbage collector


def threads_settle_to(count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count() == count


def resource_warnings(caught):
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


def test_served_connection_is_closed(daemon):
    threads = threading.active_count()
    fds = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with ControlClient(daemon.server.socket_path) as c:
            c.request("status")
            # the traceback of an error answer keeps the serving thread's
            # frame, and so any file it left open, alive until collected
            with pytest.raises(RemoteError):
                c.request("undeploy", deployment_id="d404")
        assert threads_settle_to(threads)  # the serving thread is done
        assert len(os.listdir("/proc/self/fd")) == fds
        gc.collect()
    assert resource_warnings(caught) == []


def test_client_that_resets_ends_its_serving_thread_quietly(daemon, monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    threads = threading.active_count()
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(daemon.server.socket_path))
    raw.sendall(b'{"op": "status"}\n{"op": "status"}\n')
    time.sleep(0.05)
    raw.close()  # answers unread: the daemon's next read sees a reset
    assert threads_settle_to(threads)
    assert crashes == []


def test_failed_connect_closes_client_socket(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(FileNotFoundError):
            ControlClient(tmp_path / "nothing.sock")
        gc.collect()
    assert resource_warnings(caught) == []


# ---------------------------------------------------------------------------
# each wake-up pumps what fired, and every deployment once a deadline is due


@pytest.fixture
def two_modems(tmp_path):
    """A daemon with modems deployed on sim0 and sim1 and a count of the
    pump passes each gets."""
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i, name in enumerate(("modem0", "modem1")):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
        d.platform.load_module(make_manifest(f"m{i}", config={"endpoint_name": name}))
    passes = []
    pump = d.platform.pump

    def counting_pump(deployment_id, *args, **kwargs):
        passes.append(deployment_id)
        return pump(deployment_id, *args, **kwargs)

    d.platform.pump = counting_pump
    d.start()
    deps = [d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}")) for i in range(2)]
    fds = [os.open(d.platform.deployment_info(dep)["link"],
                   os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK) for dep in deps]
    try:
        # status samples attachment, so from here on both masters are watched
        deployments = d.loop.call(d.platform.status)["deployments"]
        assert [e["endpoint"]["open_count"] for e in deployments] == [1, 1]
        yield d, deps, fds, passes
    finally:
        for fd in fds:
            os.close(fd)
        d.stop()


def test_echo_on_one_deployment_does_not_pump_the_other(two_modems):
    d, (busy, idle), (fd, _), passes = two_modems
    before = passes.count(idle)
    payload = bytes(range(0x41, 0x41 + 50)) * 2  # no CR: echoed, never run
    os.write(fd, payload)
    assert read_until(fd, payload) == payload
    d.loop.call(lambda: None)  # the loop has finished that wake-up
    assert passes.count(busy) > 0
    assert passes.count(idle) == before


def test_one_echoed_byte_costs_one_pump_pass(two_modems):
    d, (dep, _), (fd, _), passes = two_modems
    d.loop.call(lambda: None)
    before = len(passes)
    os.write(fd, b"A")
    assert read_until(fd, b"A") == b"A"
    d.loop.call(lambda: None)
    assert passes[before:] == [dep]


def test_due_attach_sample_is_not_starved_by_a_streaming_neighbour(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i, name in enumerate(("stream0", "fresh0")):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
        d.platform.load_module(make_manifest(f"m{i}", config={"endpoint_name": name}))
    d.start()
    stop = threading.Event()
    streamed = [0]

    def stream(fd):
        # keep the neighbour's master firing: write and read back the loopback
        chunk = b"\x55" * 512
        while not stop.is_set():
            readable, writable, _ = select.select([fd], [fd], [], 0.05)
            if readable:
                streamed[0] += len(os.read(fd, 65536))
            if writable:
                try:
                    os.write(fd, chunk)
                except BlockingIOError:
                    pass

    streamer = None
    fd = None
    try:
        busy, fresh = (d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}"))
                       for i in range(2))
        fd = os.open(d.platform.deployment_info(busy)["link"],
                     os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        os.write(fd, b"ATE0\rATD5551234\r")
        assert read_until(fd, b"CONNECT\r\n").endswith(b"CONNECT\r\n")
        streamer = threading.Thread(target=stream, args=(fd,))
        streamer.start()
        time.sleep(0.2)
        assert streamed[0] > 0
        client = os.open(d.platform.deployment_info(fresh)["link"],
                         os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        try:
            sent = time.monotonic()
            os.write(client, b"AT\r")
            reply = read_until(client, b"\r\nOK\r\n", timeout=0.5)
            assert reply.endswith(b"\r\nOK\r\n"), reply
            assert time.monotonic() - sent < 0.5
        finally:
            os.close(client)
        before = streamed[0]
        time.sleep(0.05)
        assert streamed[0] > before  # the neighbour was streaming all along
    finally:
        stop.set()
        if streamer is not None:
            streamer.join(5)
            assert not streamer.is_alive()
        if fd is not None:
            os.close(fd)
        d.stop()


class BusyFdPlatform:
    """Platform stand-in: a pass is always due soon, and its one watched
    fd is readable on every poll."""

    def __init__(self, fd):
        self.fd = fd
        self.passes = []

    def pump_timeout(self):
        return 0.02

    def watch_fds(self):
        return {"d0": self.fd}

    def pump(self, deployment_id):
        self.passes.append(deployment_id)

    def pump_all(self):
        self.passes.append("all")

    def shutdown(self):
        pass


def test_due_deadline_is_served_while_an_fd_keeps_firing():
    r, w = os.pipe()
    os.write(w, b"x")  # never read: the fd fires on every poll
    platform = BusyFdPlatform(r)
    loop = PlatformLoop(platform)
    loop.start()
    try:
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            passes = list(platform.passes)
            if "d0" in passes and "all" in passes[passes.index("d0"):]:
                break
            time.sleep(0.01)
        # after the fd first fired, a full pass still came when due
        assert "all" in passes[passes.index("d0"):]
    finally:
        loop.stop()
        os.close(r)
        os.close(w)


def test_stop_ends_the_accept_thread_at_once(tmp_path):
    threads = threading.active_count()
    fds = len(os.listdir("/proc/self/fd"))
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.start()
    time.sleep(0.05)  # the accept thread is blocked in accept()
    started = time.monotonic()
    d.stop()
    assert time.monotonic() - started < 0.5
    assert not d.server._thread.is_alive()
    assert threading.active_count() == threads
    assert len(os.listdir("/proc/self/fd")) == fds
