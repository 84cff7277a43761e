"""Control protocol framing plus a live daemon behind a unix socket."""

from __future__ import annotations

import contextlib
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
from proteus.daemon import MAX_CLIENTS, MAX_LINE, Daemon, PlatformLoop
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
    optional_values = {"policy": ["reject", "queue"], "follow": [True, False],
                       "from_seq": [0, 3, 10**12]}
    for _ in range(300):
        op = rng.choice(list(REQUEST_SCHEMA))
        required, optional = REQUEST_SCHEMA[op]
        args = {name: rng.choice(values) for name in required}
        for name, default in optional.items():
            if rng.random() < 0.5:
                args[name] = rng.choice(optional_values[name])
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


@pytest.mark.parametrize("request_doc", [
    {"op": "load", "path": 7},
    {"op": "deploy", "module_id": 1, "ham_id": "sim0"},
    {"op": "deploy", "module_id": "modem", "ham_id": None},
    {"op": "deploy", "module_id": "modem", "ham_id": "sim0", "policy": "qeueu"},
    {"op": "undeploy", "deployment_id": ["d0"]},
    {"op": "trace", "follow": "yes"},
    {"op": "trace", "follow": 1},
    {"op": "trace", "from_seq": -1},
    {"op": "trace", "follow": True, "from_seq": -1},
    {"op": "trace", "from_seq": "abc"},
    {"op": "trace", "from_seq": True},
    {"op": "trace", "from_seq": 1.5},
])
def test_mistyped_arguments_get_protocol_error(daemon, tmp_path, request_doc):
    with connect_raw(daemon) as raw, raw.makefile("rb") as replies:
        raw.sendall(json.dumps({"op": "load", "path": str(tmp_path / "modem.yaml")}).encode()
                    + b"\n" + json.dumps(request_doc).encode() + b"\n")
        assert json.loads(replies.readline())["ok"] is True
        reply = json.loads(replies.readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "protocol-error"
    assert daemon.loop.call(daemon.platform.status)["deployments"] == []


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


def test_trace_follow_outlasts_the_request_timeout(daemon):
    follower = ControlClient(daemon.server.socket_path, timeout=0.5)
    emit = threading.Timer(1.0, daemon.loop.call,
                           args=(lambda: daemon.platform.load_module(make_manifest()),))
    try:
        stream = follower.follow_trace()
        assert next(stream)["kind"] == "HamRegistered"
        emit.start()
        started = time.monotonic()
        assert next(stream)["kind"] == "ModuleLoaded"  # after 1 s of silence
        assert time.monotonic() - started >= 0.5
    finally:
        emit.join(5)
        follower.close()
    assert not emit.is_alive()


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
# TCP carriers share the loop: a slow or absent peer stalls no neighbour


@contextlib.contextmanager
def bridge_beside_shouter(tmp_path, plan_text):
    """A daemon with a TCP bridge modem on sim0, dialling by ``plan_text``,
    and a shouter on sim1, each with a client attached."""
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    plan = tmp_path / "plan.conf"
    plan.write_text(plan_text)
    for i in range(2):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
    d.platform.load_module(make_manifest(
        "bridge", config={"endpoint_name": "bridge0", "dial_plan": str(plan)}))
    d.platform.load_module(make_manifest(
        "shouter", "identity", "upper", config={"endpoint_name": "shout1"}))
    d.start()
    fds = []
    try:
        for module_id, ham_id in (("bridge", "sim0"), ("shouter", "sim1")):
            dep = d.loop.call(lambda: d.platform.deploy(module_id, ham_id))
            fds.append(os.open(d.platform.deployment_info(dep)["link"],
                               os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK))
        d.loop.call(d.platform.status)  # samples attachment: both masters are watched
        yield d, fds[0], fds[1]
    finally:
        for fd in fds:
            os.close(fd)
        d.stop()


def assert_neighbour_answers(d, shout_fd):
    """The shouter echoes within 0.5 s, and so does a status request."""
    started = time.monotonic()
    os.write(shout_fd, b"x")
    assert read_until(shout_fd, b"X", timeout=0.5) == b"X"
    with ControlClient(d.server.socket_path, timeout=0.5) as c:
        assert "hams" in c.request("status")["status"]
    assert time.monotonic() - started < 0.5


def test_peer_that_stops_reading_stalls_only_its_own_client(tmp_path):
    with (socket.create_server(("127.0.0.1", 0)) as server,
          bridge_beside_shouter(tmp_path, f"42 = tcp:127.0.0.1:{server.getsockname()[1]}")
          as (d, fd, shout_fd)):
        os.write(fd, b"ATE0\rATD42\r")
        assert read_until(fd, b"\r\nCONNECT\r\n").endswith(b"\r\nCONNECT\r\n")
        remote, _ = server.accept()
        with remote:
            rng = random.Random(5)
            streamed = bytearray()
            # write until the client's writes stay blocked: the peer reads
            # nothing, so backpressure reaches the terminal
            while len(streamed) < 64 << 20:
                if not select.select([], [fd], [], 0.5)[1]:
                    break
                chunk = rng.randbytes(4096)
                try:
                    streamed += chunk[:os.write(fd, chunk)]
                except BlockingIOError:
                    pass
            else:
                pytest.fail("the client's writes never blocked")
            assert_neighbour_answers(d, shout_fd)
            received = bytearray()
            remote.settimeout(5)
            while len(received) < len(streamed):
                chunk = remote.recv(1 << 20)
                assert chunk, "the bridge hung up"
                received += chunk
            assert received == streamed


def test_black_holed_and_refused_dials_do_not_delay_a_neighbour(tmp_path):
    refused = socket.socket()
    refused.bind(("127.0.0.1", 0))
    refused_port = refused.getsockname()[1]
    refused.close()  # nothing listens there
    with socket.socket() as hole, socket.socket() as queued:
        hole.bind(("127.0.0.1", 0))
        hole.listen(0)
        queued.connect(hole.getsockname())  # fills the backlog: the next SYN is dropped
        plan = (f"1 = tcp:127.0.0.1:{hole.getsockname()[1]}\n"
                f"2 = tcp:127.0.0.1:{refused_port}\n")
        with bridge_beside_shouter(tmp_path, plan) as (d, fd, shout_fd):
            os.write(fd, b"ATE0\r")
            assert read_until(fd, b"\r\nOK\r\n").endswith(b"\r\nOK\r\n")
            dialled = time.monotonic()
            os.write(fd, b"ATD1\r")
            d.loop.call(lambda: None)  # the connect is under way
            assert_neighbour_answers(d, shout_fd)
            os.write(fd, b"AT\r")  # typed while dialling: run after the outcome
            assert read_until(fd, b"\r\nOK\r\n") == b"\r\nNO CARRIER\r\n\r\nOK\r\n"
            assert time.monotonic() - dialled >= 2.0  # the modem's connect_timeout
            started = time.monotonic()
            os.write(fd, b"ATD2\r")
            assert read_until(fd, b"\r\nNO CARRIER\r\n") == b"\r\nNO CARRIER\r\n"
            assert time.monotonic() - started < 0.5
            assert_neighbour_answers(d, shout_fd)


def test_carrier_and_follower_add_no_thread_and_no_timed_wake_up(tmp_path):
    with (socket.create_server(("127.0.0.1", 0)) as server,
          bridge_beside_shouter(tmp_path, f"42 = tcp:127.0.0.1:{server.getsockname()[1]}")
          as (d, fd, _)):
        threads = threading.active_count()
        follower = ControlClient(d.server.socket_path)
        try:
            stream = follower.follow_trace()
            os.write(fd, b"ATD42\r")
            assert read_until(fd, b"\r\nCONNECT\r\n").endswith(b"\r\nCONNECT\r\n")
            remote, _ = server.accept()
            with remote:
                # the dial line is traced once, with its outcome
                dials = (e["detail"] for e in stream if e["kind"] == "CommandParsed")
                assert next(dials) == {"deployment_id": "d0", "line": "ATD42",
                                       "commands": ["Dial"], "result": "CONNECT"}
                assert threading.active_count() == threads
                # connected and silent: only the socket wakes the loop for it
                assert d.loop.call(d.platform.pump_timeout) is None
        finally:
            follower.close()


# ---------------------------------------------------------------------------
# control sockets are closed, not left to the garbage collector


def threads_settle_to(count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count() == count


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def fds_settle_to(count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while open_fds() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return open_fds() == count


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
        assert threads_settle_to(threads)  # nothing was left running
        assert fds_settle_to(fds)  # the loop closes its end once it sees the hangup
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
        return {self.fd: ("d0", select.EPOLLIN, self)}

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


def test_stop_is_prompt_and_leaves_no_thread_fd_or_socket(tmp_path):
    threads = threading.active_count()
    fds = len(os.listdir("/proc/self/fd"))
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.start()
    time.sleep(0.05)  # the loop is waiting in epoll
    started = time.monotonic()
    d.stop()
    assert time.monotonic() - started < 0.5
    assert threading.active_count() == threads
    assert len(os.listdir("/proc/self/fd")) == fds
    assert not (tmp_path / "ctl.sock").exists()


def test_fd_number_reused_within_one_wake_up_keeps_its_new_owner(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    d.platform.load_module(make_manifest())
    d.start()
    client = None
    pair = ()
    try:
        dep = d.loop.call(lambda: d.platform.deploy("modem", "sim0"))
        client = os.open(d.platform.deployment_info(dep)["link"],
                         os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        d.loop.call(d.platform.status)  # samples attachment: the master is watched
        master, = (fd for fd, (owner, _, _) in d.loop.call(d.platform.watch_fds).items()
                   if owner == dep)
        fired = threading.Event()

        def undeploy_then_reuse_the_master_fd():
            d.platform.undeploy(dep)  # closing the master drops it from epoll
            ours, theirs = socket.socketpair()
            d.loop.register(ours.fileno(), fired.set)
            return ours, theirs

        pair = d.loop.call(undeploy_then_reuse_the_master_fd)
        assert pair[0].fileno() == master  # Linux hands out the lowest free fd
        pair[1].send(b"x")
        assert fired.wait(1.0)
        d.loop.call(lambda: d.loop.unregister(pair[0].fileno()))
    finally:
        for sock in pair:
            sock.close()
        if client is not None:
            os.close(client)
        d.stop()


class SocketPlatform:
    """Platform stand-in whose deployment d0 is pumped when its socket
    has bytes to read."""

    def __init__(self):
        self.sock = None
        self.passes = []

    def pump_timeout(self):
        return None

    def watch_fds(self):
        if self.sock is None:
            return {}
        return {self.sock.fileno(): ("d0", select.EPOLLIN, self.sock)}

    def pump(self, deployment_id):
        self.passes.append(deployment_id)
        self.sock.recv(64)

    def shutdown(self):
        pass


def test_new_holder_of_a_closed_fd_number_is_watched():
    # a carrier can close and a new one get the same number in one wake-up
    platform = SocketPlatform()
    loop = PlatformLoop(platform)
    loop.start()
    pairs = []

    def connect():
        pairs.append(socket.socketpair())
        platform.sock = pairs[-1][0]
        return platform.sock.fileno()

    try:
        first = loop.call(connect)
        pairs[0][1].send(b"x")
        deadline = time.monotonic() + 5
        while not platform.passes and time.monotonic() < deadline:
            time.sleep(0.01)
        assert platform.passes == ["d0"]

        def reconnect():
            platform.sock.close()  # which also drops it from epoll
            return connect()

        assert loop.call(reconnect) == first
        pairs[1][1].send(b"y")
        deadline = time.monotonic() + 1
        while len(platform.passes) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert platform.passes == ["d0", "d0"]
    finally:
        loop.stop()
        for pair in pairs:
            for sock in pair:
                sock.close()


# ---------------------------------------------------------------------------
# control clients are served on the loop thread, within bounds


def recv_line(sock):
    got = b""
    while not got.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        got += chunk
    return got


def hung_up(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True  # closed before it read all we sent


def connect_raw(daemon):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(5)
    raw.connect(str(daemon.server.socket_path))
    return raw


def test_idle_control_connections_add_no_thread(daemon):
    threads = threading.active_count()
    clients = []
    try:
        for _ in range(10):
            clients.append(ControlClient(daemon.server.socket_path))
            clients[-1].request("start")
        assert threading.active_count() == threads
    finally:
        for c in clients:
            c.close()


def test_overlong_request_line_gets_one_error_and_is_closed(daemon):
    request = b'{"op": "status"}'
    with connect_raw(daemon) as raw:
        # the longest line served: whitespace is valid JSON
        raw.sendall(b" " * (MAX_LINE - len(request)) + request + b"\n")
        assert json.loads(recv_line(raw))["ok"] is True
        raw.sendall(b" " * (MAX_LINE + 1))
        reply = json.loads(recv_line(raw))
        assert reply["error"]["code"] == "request-too-long"
        assert hung_up(raw)
    with ControlClient(daemon.server.socket_path) as c:
        assert c.request("start")["running"] is True


def test_connections_beyond_the_bound_are_refused(daemon):
    clients = []
    try:
        for _ in range(MAX_CLIENTS):
            clients.append(ControlClient(daemon.server.socket_path))
            clients[-1].request("start")
        with connect_raw(daemon) as refused:
            reply = json.loads(recv_line(refused))
            assert reply["error"]["code"] == "too-many-clients"
            assert hung_up(refused)
        assert clients[0].request("start")["running"] is True
        fds = open_fds()
        clients.pop().close()
        assert fds_settle_to(fds - 2)  # both ends: the loop has seen the hangup
        with ControlClient(daemon.server.socket_path) as c:
            assert c.request("start")["running"] is True
    finally:
        for c in clients:
            c.close()


def test_half_a_request_line_does_not_delay_another_client(daemon):
    with connect_raw(daemon) as slow, ControlClient(daemon.server.socket_path) as other:
        slow.sendall(b'{"op": "sta')
        daemon.loop.call(lambda: None)  # the daemon holds the half line
        started = time.monotonic()
        assert "hams" in other.request("status")["status"]
        assert time.monotonic() - started < 0.5
        slow.sendall(b'tus"}\n')
        assert json.loads(recv_line(slow))["ok"] is True


def test_client_that_reads_nothing_does_not_stall_the_loop(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    d.platform.load_module(make_manifest())
    answered = []
    status = d.platform.status

    def counting_status():
        answered.append(1)
        return status()

    d.platform.status = counting_status
    d.start()
    fd = None
    try:
        dep = d.loop.call(lambda: d.platform.deploy("modem", "sim0"))
        fd = os.open(d.platform.deployment_info(dep)["link"],
                     os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        d.loop.call(d.platform.status)  # samples attachment: the master is watched
        answered.clear()
        with connect_raw(d) as greedy:
            greedy.sendall(b'{"op": "status"}\n' * 2000)
            sent = time.monotonic()
            os.write(fd, b"A")
            assert read_until(fd, b"A", timeout=0.5) == b"A"
            assert time.monotonic() - sent < 0.5
            d.loop.call(lambda: None)
            # its answers are unsent, so the daemon stopped reading it
            assert len(answered) < 2000
            replies = b""
            while replies.count(b"\n") < 2000:
                replies += greedy.recv(65536)
            assert all(json.loads(line)["ok"] for line in replies.splitlines())
            assert len(replies.splitlines()) == 2000
    finally:
        if fd is not None:
            os.close(fd)
        d.stop()


def test_trace_follow_ends_when_the_daemon_stops(tmp_path):
    threads = threading.active_count()
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    d.start()
    follower = ControlClient(d.server.socket_path)
    try:
        stream = follower.follow_trace()
        assert next(stream)["kind"] == "HamRegistered"
        d.loop.call(lambda: d.platform.load_module(make_manifest()))
        assert next(stream)["kind"] == "ModuleLoaded"
        started = time.monotonic()
        d.stop()
        for _ in stream:
            pass  # ends once the daemon hangs up
        assert time.monotonic() - started < 1.0
        assert threading.active_count() == threads
    finally:
        follower.close()
        d.stop()
