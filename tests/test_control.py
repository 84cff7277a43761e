"""Control protocol framing plus a live daemon behind a unix socket."""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import os
import random
import select
import socket
import sys
import threading
import time
import warnings

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proteus import core
from proteus.control import (
    REQUEST_SCHEMA,
    ControlClient,
    ControlRequest,
    RemoteError,
    encode_request,
    encode_response,
    encode_status_response,
    parse_request,
)
from proteus.core import Platform, Policy
from proteus.daemon import MAX_CLIENTS, MAX_LINE, Daemon
from proteus.errors import (
    AlreadyRunningError,
    OsResourceError,
    ProteusError,
    ProtocolError,
    UnknownDeploymentError,
)
from proteus.ham import SimulatedFpga
from proteus.manifest import Implementation, ModuleManifest
from proteus.modem import GUARD_SECONDS, DialPlan, Mode, Modem, TcpTarget

from conftest import FakeEndpointFactory, epoll_events, epoll_fds, make_manifest


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
    b'{"op": []}',
    b'{"op": {}}',
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@given(value=JSON_VALUES | st.floats() | st.tuples(st.integers())
       | st.dictionaries(st.integers() | st.booleans(), st.text(max_size=3), max_size=2))
def test_control_lines_are_json_dumps_byte_for_byte(value):
    assert encode_response(True, {"value": value}) == (
        json.dumps({"ok": True, "value": value}) + "\n").encode()
    assert encode_request(ControlRequest("trace", {"from_seq": value})) == (
        json.dumps({"op": "trace", "from_seq": value}) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(module_ids=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3,
                           unique=True),
       display_name=st.text(max_size=8),
       resource=JSON_VALUES,
       bound=st.integers(1, 4),
       ops=st.lists(st.tuples(st.sampled_from(["deploy", "queue", "fail", "undeploy"]),
                              st.integers(0, 7)), max_size=20))
def test_joined_status_reply_is_the_encoded_status_byte_for_byte(
        tmp_path_factory, module_ids, display_name, resource, bound, ops):
    """Stopped entries go in pre-encoded; the reply must not differ by a byte."""
    platform = Platform(runtime_dir=tmp_path_factory.getbasetemp(),
                        endpoint_factory=FakeEndpointFactory())
    for ham_id in ("sim0", "sim1"):
        platform.register_ham(SimulatedFpga(ham_id, "sim-fpga-v1", resources={
            "deployments": resource, "cells": "250k"}))
    for module_id in module_ids:
        platform.load_module(ModuleManifest(module_id, display_name + "\u00e9\u6a21",
                                            (Implementation("sim-fpga-v1", "identity",
                                                            "identity"),)))
    platform.load_module(make_manifest("broken", "identity", image="no-such-image"))
    # active, stopped, active again, queued and failed, before the drawn ops
    preamble = [("deploy", 0), ("undeploy", 0), ("deploy", 0), ("queue", 0), ("fail", 1)]
    ids = []
    stopped = []  # in the order they stopped
    seen = set()

    def number(deployment_id):
        return int(deployment_id[1:])

    with mock.patch.object(core, "MAX_TOMBSTONES", bound):
        for op, k in preamble + ops:
            undeployed = None
            try:
                if op == "undeploy":
                    undeployed = ids[k % len(ids)]
                    platform.undeploy(undeployed)
                else:
                    module_id = "broken" if op == "fail" else module_ids[k % len(module_ids)]
                    policy = Policy.QUEUE if op == "queue" else Policy.REJECT
                    ids.append(platform.deploy(module_id, f"sim{k % 2}", policy))
            except ProteusError:
                pass
            # what stopped: the undeployed one first, then any queued one
            # whose activation failed, in queue order
            stopping = (set(ids) | set(platform._deployments)) - set(stopped)
            for deployment_id in sorted(stopping, key=lambda i: (i != undeployed, number(i))):
                deployment = platform._deployments.get(deployment_id)  # None: evicted at once
                if deployment is None or deployment.state.value == "stopped":
                    stopped.append(deployment_id)
            status = platform.status()
            assert encode_status_response(status) == encode_response(True, {"status": status})
            live = set(ids) - set(stopped)
            assert [entry["deployment_id"] for entry in status["deployments"]] == sorted(
                live | set(stopped[-bound:]), key=number)
            seen.update(entry["state"] for entry in status["deployments"])
    assert seen >= {"active", "pending", "stopped"}


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


def test_status_reply_on_the_wire_is_the_encoded_status(tmp_path):
    """Byte for byte, with stopped deployments before, at and past the
    bound, live ones among them by id, and one stopped out of id order."""
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for ham_id in ("sim0", "sim1"):
        d.platform.register_ham(SimulatedFpga(ham_id, "sim-fpga-v1", resources={"lut": 9}))
    d.platform.load_module(make_manifest())
    d.start()
    stopped, live = [], set()

    def deploy(ham_id, policy=Policy.REJECT):
        deployment_id = d.platform.deploy("modem", ham_id, policy)
        live.add(deployment_id)
        return deployment_id

    def cycles(count):
        for _ in range(count):
            deployment_id = deploy("sim0")
            d.platform.undeploy(deployment_id)
            live.remove(deployment_id)
            stopped.append(deployment_id)

    def check(states):
        status = d.loop.call(d.platform.status)
        listed = [entry["deployment_id"] for entry in status["deployments"]]
        kept = set(stopped[-core.MAX_TOMBSTONES:]) | live
        assert listed == sorted(kept, key=lambda i: int(i[1:]))
        assert {entry["state"] for entry in status["deployments"]} == states
        with connect_raw(d) as raw, raw.makefile("rb") as replies:
            raw.sendall(b'{"op": "status"}\n')
            assert replies.readline() == encode_response(True, {"status": status})

    try:
        check(set())
        d.loop.call(lambda: cycles(3))
        held = d.loop.call(lambda: deploy("sim1"))  # lives on among the stopped
        d.loop.call(lambda: deploy("sim1", Policy.QUEUE))
        check({"stopped", "active", "pending"})
        for count in (core.MAX_TOMBSTONES - 3, 1, 5):  # up to the bound, one past, more
            d.loop.call(lambda: cycles(count))
            check({"stopped", "active", "pending"})
        d.loop.call(lambda: d.platform.undeploy(held))  # stops after higher ids did
        live.remove(held)
        stopped.append(held)
        check({"stopped", "active"})
    finally:
        d.stop()


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


def test_a_deploy_and_the_status_behind_it_open_no_pty_between_them(
        daemon, tmp_path, monkeypatch):
    # no attach sample may wake the loop for a pass in between
    monkeypatch.setattr("proteus.endpoint.ATTACH_SAMPLE", 60.0)
    calls = []
    openpty, status = os.openpty, Platform.status
    monkeypatch.setattr(os, "openpty", lambda: calls.append("openpty") or openpty())
    monkeypatch.setattr(Platform, "status", lambda self: calls.append("status") or status(self))
    with ControlClient(daemon.server.socket_path) as c:
        c.request("load", path=str(tmp_path / "modem.yaml"))
        dep = c.request("deploy", module_id="modem", ham_id="sim0")
        assert c.request("status")["status"]["deployments"][0]["state"] == "active"
    assert calls == ["openpty", "status"]  # the deploy's own PTY, and nothing more
    assert os.path.lexists(dep["link"])


def test_an_answer_sent_before_the_request_is_read_is_raised(tmp_path):
    """A daemon that answers a connection and closes it unread, as it
    refuses one, is heard even when its close lands before the request
    is sent, which then meets a broken pipe."""
    path = tmp_path / "refusing.sock"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(str(path))
        listener.listen(2)
        with ControlClient(path, timeout=5) as refused, ControlClient(path, timeout=5) as cut:
            with listener.accept()[0] as conn:
                conn.sendall(encode_response(False, error_code="os-resource-failure",
                                             error_message="out of fds"))
            listener.accept()[0].close()  # without a word
            with pytest.raises(RemoteError) as answer:
                refused.request("status")
            assert (answer.value.code, answer.value.message) == (
                "os-resource-failure", "out of fds")
            with pytest.raises(ProtocolError, match="daemon closed the connection"):
                cut.request("status")


def test_remote_errors_carry_stable_codes(client, tmp_path):
    with pytest.raises(RemoteError) as exc:
        client.request("deploy", module_id="ghost", ham_id="sim0")
    assert exc.value.code == "unknown-module"
    with pytest.raises(RemoteError) as exc:
        client.request("undeploy", deployment_id="d999")
    assert exc.value.code == "unknown-deployment"
    with pytest.raises(RemoteError) as exc:
        client.request("load", path=str(tmp_path / "nothing.yaml"))
    # an unreadable manifest gets an error code, not a hang
    assert exc.value.code


@pytest.mark.parametrize("name", ["nothing.yaml", "."])
def test_unreadable_manifest_is_malformed_and_logs_nothing(client, tmp_path, caplog, name):
    with pytest.raises(RemoteError) as exc:
        client.request("load", path=str(tmp_path / name))  # missing, or a directory
    assert exc.value.code == "malformed-manifest"
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


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


@pytest.mark.parametrize("line", [b'{"op": []}', b'{"op": {}}'])
def test_an_op_that_is_no_string_gets_protocol_error_and_logs_nothing(daemon, caplog, line):
    with connect_raw(daemon) as raw, raw.makefile("rb") as replies:
        raw.sendall(line + b"\n")
        reply = json.loads(replies.readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "protocol-error"
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


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
    fds = open_fds()
    for _ in range(3):
        with pytest.raises(AlreadyRunningError):
            Daemon(runtime_dir=tmp_path / "other", socket_path=daemon.server.socket_path)
    with ControlClient(daemon.server.socket_path) as c:
        # answered only once the probes' connections, queued ahead of this
        # one, are accepted: none is accepted while the count settles
        c.request("start")
    # a refused daemon keeps no fd; the served one closes each probe's connection
    assert fds_settle_to(fds)


def test_daemon_that_cannot_bind_its_socket_keeps_no_fd(tmp_path):
    path = tmp_path / ("s" * 120)  # longer than an AF_UNIX address holds
    fds = open_fds()
    for _ in range(3):
        with pytest.raises(OsResourceError, match="too long"):
            Daemon(runtime_dir=tmp_path, socket_path=path)
    assert open_fds() == fds
    assert not path.exists()


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


def test_calls_handed_over_while_the_daemon_stops_end_at_once(tmp_path):
    """Threads that keep handing the loop calls while another stops it get
    each call served or a RuntimeError: none waits for its timeout, and
    none writes the closed wake eventfd."""
    fds = open_fds()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
            d.start()
            ended = []

            def hand_calls():
                try:
                    while True:
                        d.loop.call(lambda: None, timeout=5)
                except BaseException as exc:
                    ended.append(exc)

            callers = [threading.Thread(target=hand_calls) for _ in range(4)]
            for caller in callers:
                caller.start()
            time.sleep(random.random() * 0.005)
            d.stop()
            for caller in callers:
                caller.join(timeout=10)
            assert not any(caller.is_alive() for caller in callers)
            assert [type(exc) for exc in ended] == [RuntimeError] * len(callers), ended
    finally:
        sys.setswitchinterval(interval)
    assert open_fds() == fds


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
            # only the carrier's room for more announces the next pass: no timer runs
            assert d.loop.call(d.platform.timeout) is None
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


def test_dial_plan_host_that_name_lookup_cannot_encode_stops_no_one(monkeypatch, tmp_path):
    plan = tmp_path / "plan.conf"
    plan.write_text("1 = tcp:x..y:80\n")
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    d.platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    d.platform.load_module(make_manifest(config={"dial_plan": str(plan)}))
    d.start()
    fd = None
    try:
        with ControlClient(d.server.socket_path, timeout=2.0) as c:
            with pytest.raises(RemoteError) as refused:
                c.request("deploy", module_id="modem", ham_id="sim0")
            assert refused.value.code == "malformed-dial-plan"
            # a plan built in code is not parsed: dialling its host must not
            # take the loop down
            unchecked = DialPlan(entries={"1": TcpTarget("x..y", 80)})
            monkeypatch.setitem(core.RUNTIME_BEHAVIORS, "modem",
                                lambda config, clock: Modem(dial_plan=unchecked, clock=clock))
            dep = c.request("deploy", module_id="modem", ham_id="sim0")
            fd = os.open(dep["link"], os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
            os.write(fd, b"ATE0\rATD1\r")
            assert read_until(fd, b"\r\nNO CARRIER\r\n").endswith(b"\r\nNO CARRIER\r\n")
            assert "hams" in c.request("status")["status"]
    finally:
        if fd is not None:
            os.close(fd)
        d.stop()


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
                assert d.loop.call(d.platform.timeout) is None
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


class CountingPoller:
    """Stands in for an endpoint's ``select.poll`` and counts its polls."""

    def __init__(self, poller):
        self.poller = poller
        self.polls = 0

    def poll(self, timeout):
        self.polls += 1
        return self.poller.poll(timeout)


def test_one_echoed_byte_costs_one_pump_pass(two_modems):
    d, (dep, _), (fd, _), passes = two_modems
    endpoint = d.platform._deployments[dep].endpoint
    poller = CountingPoller(endpoint._poller)
    d.loop.call(lambda: setattr(endpoint, "_poller", poller))
    before = len(passes)
    os.write(fd, b"A")
    assert read_until(fd, b"A") == b"A"
    d.loop.call(lambda: None)
    assert passes[before:] == [dep]
    assert poller.polls == 0  # the pass read the master it was woken for, unpolled


WATCH_METHODS = ("watch", "watch_fd", "deadline")


def test_echoes_on_one_deployment_touch_no_idle_neighbour(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i in range(21):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
        d.platform.load_module(make_manifest(f"m{i}", config={"endpoint_name": f"modem{i}"}))
    d.start()
    fds = []
    try:
        deps = [d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}"))
                for i in range(21)]
        fds = [os.open(d.platform.deployment_info(dep)["link"],
                       os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK) for dep in deps]
        d.loop.call(d.platform.status)  # samples attachment: every master is watched
        calls = []

        def count_calls_of(owner):
            for name in WATCH_METHODS:
                method = getattr(owner, name, None)
                if method is not None:
                    setattr(owner, name, lambda *args, method=method, name=name:
                            calls.append(name) or method(*args))

        def instrument_the_idle_ones():
            for dep in deps[1:]:
                deployment = d.platform._deployments[dep]
                count_calls_of(deployment.endpoint)
                count_calls_of(deployment.runtime)

        d.loop.call(instrument_the_idle_ones)
        for i in range(200):  # fewer than a command line holds: each is only echoed
            byte = bytes([0x41 + i % 26])
            os.write(fds[0], byte)
            assert read_until(fds[0], byte) == byte
        d.loop.call(lambda: None)
        assert calls == []
    finally:
        for fd in fds:
            os.close(fd)
        d.stop()


def test_guard_and_dial_deadlines_fire_while_a_neighbour_keeps_firing(
        monkeypatch, tmp_path):
    def quick_modem(config, clock):
        runtime = core.ModemRuntime(config, clock)
        runtime.guard_seconds, runtime.connect_timeout = 0.2, 0.3
        return runtime

    monkeypatch.setitem(core.RUNTIME_BEHAVIORS, "modem", quick_modem)
    with socket.socket() as hole, socket.socket() as queued:
        hole.bind(("127.0.0.1", 0))
        hole.listen(0)
        queued.connect(hole.getsockname())  # fills the backlog: the next SYN is dropped
        plan = tmp_path / "plan.conf"
        plan.write_text(f"1 = tcp:127.0.0.1:{hole.getsockname()[1]}\n")
        d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
        for i in range(2):
            d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
            d.platform.load_module(make_manifest(
                f"m{i}", config={"endpoint_name": f"modem{i}", "dial_plan": str(plan)}))
        d.start()
        stop = threading.Event()
        streamer = None
        fds = []
        try:
            deps = [d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}"))
                    for i in range(2)]
            fds = [os.open(d.platform.deployment_info(dep)["link"],
                           os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK) for dep in deps]
            busy, fd = fds
            os.write(busy, b"ATE0\rATD5551234\r")
            assert read_until(busy, b"CONNECT\r\n").endswith(b"CONNECT\r\n")
            streamer = threading.Thread(target=keep_streaming, args=(busy, stop))
            streamer.start()
            os.write(fd, b"ATE0\rATD5551234\r")
            assert read_until(fd, b"CONNECT\r\n").endswith(b"CONNECT\r\n")
            time.sleep(0.3)  # the guard silence before the escape
            os.write(fd, b"+++")
            escaped = time.monotonic()
            assert read_until(fd, b"\r\nOK\r\n", timeout=2.0) == b"\r\nOK\r\n"
            assert 0.2 <= time.monotonic() - escaped < 1.0
            os.write(fd, b"ATD1\r")
            dialled = time.monotonic()
            assert (read_until(fd, b"\r\nNO CARRIER\r\n", timeout=2.0)
                    == b"\r\nNO CARRIER\r\n")
            assert 0.3 <= time.monotonic() - dialled < 1.0
        finally:
            stop.set()
            if streamer is not None:
                streamer.join(5)
            for fd in fds:
                os.close(fd)
            d.stop()


def keep_streaming(fd, stop, streamed=None):
    """Write to a loopback call and read it back until ``stop`` is set, so
    the daemon's side of ``fd`` keeps firing."""
    chunk = b"\x55" * 512
    while not stop.is_set():
        readable, writable, _ = select.select([fd], [fd], [], 0.05)
        if readable:
            got = os.read(fd, 65536)
            if streamed is not None:
                streamed[0] += len(got)
        if writable:
            try:
                os.write(fd, chunk)
            except BlockingIOError:
                pass


def test_undeploy_of_a_client_that_reads_nothing_stalls_no_one(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i in range(2):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
        d.platform.load_module(make_manifest(f"m{i}", config={"endpoint_name": f"modem{i}"}))
    d.start()
    fds = []
    try:
        deps = [d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}"))
                for i in range(2)]
        fds = [os.open(d.platform.deployment_info(dep)["link"],
                       os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK) for dep in deps]
        silent, neighbour = fds
        d.loop.call(d.platform.status)  # samples attachment: both masters are watched
        os.write(silent, b"AT\r")  # answered, and the answer left unread
        endpoint = d.platform._deployments[deps[0]].endpoint
        deadline = time.monotonic() + 5
        while endpoint.bytes_to_app < 9 and time.monotonic() < deadline:
            time.sleep(0.01)
        with connect_raw(d) as raw:
            raw.sendall(encode_request(ControlRequest(
                "undeploy", {"deployment_id": deps[0]})))
            sent = time.monotonic()
            time.sleep(0.02)  # the loop is serving the undeploy
            typed = time.monotonic()
            os.write(neighbour, b"AT\r")
            assert read_until(neighbour, b"\r\nOK\r\n", timeout=1.0).endswith(b"\r\nOK\r\n")
            answered = time.monotonic() - typed
            assert json.loads(recv_line(raw))["ok"] is True
            replied = time.monotonic() - sent
        # the loop did not wait for the silent client: DRAIN_WAIT is 250 ms
        assert answered < 0.1 and replied < 0.1, (answered, replied)
        # which still gets its unread answer, then the hangup
        assert read_until(silent, b"\r\nOK\r\n", timeout=1.0) == b"AT\r\r\nOK\r\n"
        assert hung_up_pty(silent, timeout=1.0)
    finally:
        for fd in fds:
            os.close(fd)
        d.stop()


def hung_up_pty(fd, timeout):
    """True once reading ``fd`` reports that its master has closed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            try:
                if os.read(fd, 4096) == b"":
                    return True
            except OSError:
                return True  # EIO: no master any more
    return False


def test_a_client_write_split_by_the_tty_costs_one_pump_pass(daemon, tmp_path):
    fd = dial(daemon, tmp_path, b"5551234")  # a loopback call: data comes back
    passes = []
    pump = daemon.platform.pump

    def counting_pump(deployment_id, *args, **kwargs):
        passes.append(deployment_id)
        return pump(deployment_id, *args, **kwargs)

    try:
        daemon.loop.call(lambda: setattr(daemon.platform, "pump", counting_pump))
        rng = random.Random(11)
        writes = 200
        for _ in range(writes):
            # the tty layer hands each 4 KiB write to the master in two pieces
            block = rng.randbytes(4096)
            assert os.write(fd, block) == len(block)
            got = bytearray()
            deadline = time.monotonic() + 5
            while len(got) < len(block) and select.select(
                    [fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                got += os.read(fd, 4096)
            assert got == block
        daemon.loop.call(lambda: None)  # the loop has finished that wake-up
        # a pass per piece makes 2 per write; on a busy CPU the loop now
        # and then wakes between the pieces, before the rest is there
        assert len(passes) <= writes * 1.5
    finally:
        os.close(fd)


def test_due_attach_sample_is_not_starved_by_a_streaming_neighbour(tmp_path):
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for i, name in enumerate(("stream0", "fresh0")):
        d.platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
        d.platform.load_module(make_manifest(f"m{i}", config={"endpoint_name": name}))
    d.start()
    stop = threading.Event()
    streamed = [0]

    streamer = None
    fd = None
    try:
        busy, fresh = (d.loop.call(lambda i=i: d.platform.deploy(f"m{i}", f"sim{i}"))
                       for i in range(2))
        fd = os.open(d.platform.deployment_info(busy)["link"],
                     os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
        os.write(fd, b"ATE0\rATD5551234\r")
        assert read_until(fd, b"CONNECT\r\n").endswith(b"CONNECT\r\n")
        streamer = threading.Thread(target=keep_streaming, args=(fd, stop, streamed))
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


def read_available(fd):
    """What ``fd`` holds now, without waiting."""
    got = bytearray()
    while select.select([fd], [], [], 0)[0]:
        try:
            chunk = os.read(fd, 4096)
        except OSError:
            break  # EIO: the master has closed
        if not chunk:
            break
        got += chunk
    return bytes(got)


def serve_until(platform, done, timeout=2.0):
    """Serve as a loop would: wait on the platform's fd, no longer than
    its timeout, then serve; until ``done()`` or ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not done() and time.monotonic() < deadline:
        wait = platform.timeout()
        wait = deadline - time.monotonic() if wait is None else wait
        select.select([platform.fileno()], [], [], max(0.0, min(wait, 0.1)))
        platform.serve()
    return done()


def open_client(platform, dep):
    return os.open(platform.deployment_info(dep)["link"],
                   os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)


def test_due_deadline_is_served_while_an_fd_keeps_firing(tmp_path):
    # the streaming shouter's master is ready on every serve; the fresh
    # client is found only by its own deployment's attach-sample deadline
    platform = Platform(runtime_dir=tmp_path)
    for i in range(2):
        platform.register_ham(SimulatedFpga(f"sim{i}", "sim-fpga-v1"))
    platform.load_module(make_manifest("shouter", "identity", "upper"))
    busy, fresh = (platform.deploy("shouter", f"sim{i}") for i in range(2))
    fds = []
    try:
        fds = [open_client(platform, dep) for dep in (busy, fresh)]
        streaming, client = fds
        platform.pump(busy)  # samples attachment: its master is watched
        os.write(client, b"hello")
        got = b""
        echoed = 0
        started = time.monotonic()
        while b"HELLO" not in got and time.monotonic() - started < 2.0:
            os.write(streaming, b"x" * 64)
            assert select.select([platform.fileno()], [], [], 1.0)[0]
            platform.serve()
            echoed += len(read_available(streaming))
            got += read_available(client)
        assert got == b"HELLO"
        assert echoed > 0  # the neighbour was served all along
    finally:
        for fd in fds:
            os.close(fd)
        platform.shutdown()


def test_new_holder_of_a_closed_fd_number_is_watched(monkeypatch, tmp_path):
    # a dial that times out and the dial typed behind it: one pass closes
    # the first carrier and opens the second, which gets the same fd number
    def quick_modem(config, clock):
        runtime = core.ModemRuntime(config, clock)
        runtime.connect_timeout = 0.1
        return runtime

    monkeypatch.setitem(core.RUNTIME_BEHAVIORS, "modem", quick_modem)
    with (socket.socket() as hole, socket.socket() as queued,
          socket.create_server(("127.0.0.1", 0)) as server):
        hole.bind(("127.0.0.1", 0))
        hole.listen(0)
        queued.connect(hole.getsockname())  # fills the backlog: the next SYN is dropped
        plan = tmp_path / "plan.conf"
        plan.write_text(f"1 = tcp:127.0.0.1:{hole.getsockname()[1]}\n"
                        f"2 = tcp:127.0.0.1:{server.getsockname()[1]}\n")
        platform = Platform(runtime_dir=tmp_path)
        platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
        platform.load_module(make_manifest(config={"dial_plan": str(plan)}))
        dep = platform.deploy("modem", "sim0")
        modem = platform._deployments[dep].runtime
        client = open_client(platform, dep)
        try:
            os.write(client, b"ATE0\rATD1\rATD2\r")
            platform.pump(dep)  # attaches and dials 1; dialling 2 waits for its outcome
            first = modem.carrier
            number = first.fileno()
            assert number in epoll_fds(platform)
            assert serve_until(platform, lambda: modem.carrier is not first)
            assert modem.carrier.fileno() == number  # Linux hands out the lowest free fd
            assert number in epoll_fds(platform)  # registered afresh for its new holder
            remote, _ = server.accept()
            with remote:
                remote.sendall(b"hi")  # only the new carrier's readiness announces it
                got = bytearray()

                def delivered():
                    got.extend(read_available(client))
                    return got.endswith(b"hi")

                assert serve_until(platform, delivered), bytes(got)
            assert bytes(got) == b"ATE0\r\r\nOK\r\n\r\nNO CARRIER\r\n\r\nCONNECT\r\nhi"
        finally:
            os.close(client)
            platform.shutdown()


def test_undeployed_deployment_leaves_no_fd_on_the_platform_epoll(tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as server:
        plan = tmp_path / "plan.conf"
        plan.write_text(f"1 = tcp:127.0.0.1:{server.getsockname()[1]}\n")
        platform = Platform(runtime_dir=tmp_path)
        platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
        platform.load_module(make_manifest(config={"dial_plan": str(plan)}))
        dep = platform.deploy("modem", "sim0")
        deployment = platform._deployments[dep]
        client = open_client(platform, dep)
        try:
            os.write(client, b"ATD1\r")
            platform.pump(dep)
            assert serve_until(platform, lambda: deployment.runtime.mode is Mode.DATA)
            master, carrier = deployment.endpoint._master, deployment.runtime.carrier.fileno()
            assert epoll_fds(platform) == {master, carrier}
            # the client has not read CONNECT, so its master stays open a while
            platform.undeploy(dep)
            assert platform._draining  # the master lingers for the client
            assert epoll_events(platform) == {master: select.EPOLLOUT}
            platform.serve()
            assert read_until(client, b"CONNECT\r\n").endswith(b"CONNECT\r\n")
            assert serve_until(platform, lambda: not platform._draining)
            assert hung_up_pty(client, timeout=1.0)
            assert epoll_fds(platform) == set()
            assert platform.timeout() is None
        finally:
            os.close(client)
            platform.shutdown()


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
        master, = d.loop.call(lambda: epoll_fds(d.platform))
        fired = threading.Event()

        def undeploy_then_reuse_the_master_fd():
            d.platform.undeploy(dep)  # closing the master drops it from epoll
            ours, theirs = socket.socketpair()
            d.platform.add_reader(ours.fileno(), fired.set)
            return ours, theirs

        pair = d.loop.call(undeploy_then_reuse_the_master_fd)
        assert pair[0].fileno() == master  # Linux hands out the lowest free fd
        pair[1].send(b"x")
        assert fired.wait(1.0)
        d.loop.call(lambda: d.platform.remove_reader(pair[0].fileno()))
    finally:
        for sock in pair:
            sock.close()
        if client is not None:
            os.close(client)
        d.stop()


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


def test_a_deployment_forgotten_before_its_pass_is_skipped(monkeypatch, tmp_path):
    """Requests served in one wake-up can stop a deployment whose PTY fired
    in it, and then enough others that its tombstone is evicted; the loop
    skips that deployment's pass and goes on serving."""
    monkeypatch.setattr(core, "MAX_TOMBSTONES", 1)
    d = Daemon(runtime_dir=tmp_path, socket_path=tmp_path / "ctl.sock")
    for ham_id in ("sim0", "sim1"):
        d.platform.register_ham(SimulatedFpga(ham_id, "sim-fpga-v1"))
    d.platform.load_module(make_manifest("shouter", "identity", "upper"))
    d.start()
    fds = []
    try:
        deps = [d.loop.call(lambda ham_id=ham_id: d.platform.deploy("shouter", ham_id))
                for ham_id in ("sim0", "sim1")]
        for dep in deps:
            fds.append(os.open(d.platform.deployment_info(dep)["link"],
                               os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK))
        d.loop.call(d.platform.status)  # samples attachment: no pass is due by timer
        with connect_raw(d) as raw, raw.makefile("rb") as replies:
            raw.sendall(b'{"op": "start"}\n')
            assert json.loads(replies.readline())["ok"] is True
            gate = threading.Event()
            held = threading.Thread(target=d.loop.call, args=(gate.wait,))
            held.start()  # the loop waits on the gate while both fds get ready
            try:
                os.write(fds[0], b"a")
                raw.sendall(b"".join(encode_request(ControlRequest(
                    "undeploy", {"deployment_id": dep})) for dep in deps))
                time.sleep(0.1)
            finally:
                gate.set()
                held.join(timeout=5)
            assert not held.is_alive()
            assert [json.loads(replies.readline())["ok"] for _ in deps] == [True, True]
        assert d.loop.call(lambda: d.platform.active_count, timeout=5) == 0
        with pytest.raises(UnknownDeploymentError):
            d.loop.call(lambda: d.platform.deployment_info(deps[0]))
    finally:
        for fd in fds:
            os.close(fd)
        d.stop()
