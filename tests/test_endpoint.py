"""Pseudo-terminal endpoints observed the way a native client sees them."""

from __future__ import annotations

import errno
import json
import logging
import os
import stat
import termios
import threading
import time
import tty

import pytest

from proteus.channel import create_duplex
from proteus.core import Platform
from proteus.endpoint import ATTACH_SAMPLE, PtyEndpoint, open_pty
from proteus.errors import NameInUseError, OsResourceError
from proteus.ham import SimulatedFpga
from proteus.trace import TraceLog

from conftest import make_manifest


@pytest.fixture
def real_platform(tmp_path):
    platform = Platform(runtime_dir=tmp_path)
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    yield platform
    platform.shutdown()


def deploy_shouter(platform, name="loud0"):
    platform.load_module(make_manifest("shouter", "identity", "upper",
                                       config={"endpoint_name": name}))
    return platform.deploy("shouter", "sim0")


def open_client(link_path):
    fd = os.open(str(link_path), os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
    return fd


def read_available(fd):
    try:
        return os.read(fd, 4096)
    except BlockingIOError:
        return b""


def pump_until(platform, dep, cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        platform.pump(dep)
        if cond():
            return True
        time.sleep(0.01)
    return False


def endpoint_of(platform, dep):
    return platform._deployments[dep].endpoint


def join_while_draining(platform, thread, timeout=5.0):
    """Join ``thread`` while pumping, which closes withdrawn endpoints'
    masters once their clients have read the tail."""
    deadline = time.monotonic() + timeout
    while thread.is_alive() and time.monotonic() < deadline:
        platform.pump_all()
        thread.join(0.01)


# ---------------------------------------------------------------------------
# publication


def test_deploy_publishes_character_device_node(real_platform, tmp_path):
    dep = deploy_shouter(real_platform)
    info = real_platform.deployment_info(dep)
    link = tmp_path / "proteus" / "loud0"
    assert str(link) == info["link"]
    assert link.is_symlink()
    assert os.path.realpath(link) == info["endpoint"]
    assert stat.S_ISCHR(os.stat(link).st_mode)  # looks like serial hardware


def test_stale_link_from_dead_instance_is_replaced(tmp_path):
    link_dir = tmp_path / "proteus"
    link_dir.mkdir()
    (link_dir / "loud0").symlink_to(tmp_path / "no-such-pty")  # dangling
    platform = Platform(runtime_dir=tmp_path)
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    dep = deploy_shouter(platform)
    assert (link_dir / "loud0").exists()  # now points at a live node
    platform.shutdown()


def test_live_name_collision_refused(real_platform):
    sim1 = SimulatedFpga("sim1", "sim-fpga-v1")
    real_platform.register_ham(sim1)
    deploy_shouter(real_platform)
    real_platform.load_module(make_manifest("other", "identity", "identity",
                                            config={"endpoint_name": "loud0"}))
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(NameInUseError):
        real_platform.deploy("other", "sim1")
    assert len(os.listdir("/proc/self/fd")) == fds  # the PTY it opened is closed
    assert not sim1.configured


def test_file_in_the_way_of_the_link_is_a_name_in_use(tmp_path):
    link_dir = tmp_path / "proteus"
    link_dir.mkdir()
    (link_dir / "loud0").write_text("not ours")
    platform = Platform(runtime_dir=tmp_path)
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    try:
        with pytest.raises(NameInUseError):
            deploy_shouter(platform)
        assert (link_dir / "loud0").read_text() == "not ours"
    finally:
        platform.shutdown()


def test_link_directory_removed_between_deploys_is_made_again(real_platform, tmp_path):
    dep = deploy_shouter(real_platform)
    real_platform.undeploy(dep)
    (tmp_path / "proteus").rmdir()  # empty once the link is gone
    dep = real_platform.deploy("shouter", "sim0")
    link = real_platform.deployment_info(dep)["link"]
    assert link == str(tmp_path / "proteus" / "loud0")
    assert stat.S_ISCHR(os.stat(link).st_mode)


# ---------------------------------------------------------------------------
# byte transparency


def test_client_roundtrip_through_module(real_platform):
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    try:
        os.write(fd, b"whisper")
        got = bytearray()
        assert pump_until(real_platform, dep,
                          lambda: got.extend(read_available(fd)) or bytes(got) == b"WHISPER")
    finally:
        os.close(fd)


def test_endpoint_is_eight_bit_clean(real_platform):
    # raw mode: control bytes, CR, LF, NUL, 0xFF all pass unmangled and
    # nothing is echoed locally by the terminal layer
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    payload = bytes([0x00, 0x03, 0x04, 0x0A, 0x0D, 0x11, 0x13, 0x7F, 0xFF]) + b"abc"
    try:
        os.write(fd, payload)
        got = bytearray()
        assert pump_until(real_platform, dep,
                          lambda: got.extend(read_available(fd)) or len(got) >= len(payload))
        assert bytes(got) == payload.upper()  # only the module's transform applied
    finally:
        os.close(fd)


def test_counters_track_traffic(real_platform):
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    try:
        os.write(fd, b"12345")
        got = bytearray()
        assert pump_until(real_platform, dep,
                          lambda: got.extend(read_available(fd)) or len(got) >= 5)
        snap = endpoint_of(real_platform, dep).snapshot()
        assert snap["bytes_from_app"] >= 5
        assert snap["bytes_to_app"] >= 5
        assert snap["sessions"] == 1
    finally:
        os.close(fd)


def test_a_status_entry_carries_its_json_whatever_the_endpoint_is_named(real_platform):
    dep = deploy_shouter(real_platform, name='lo"u\\d \u00e9\u6a21')
    snap = endpoint_of(real_platform, dep).snapshot()
    assert snap.json == json.dumps(dict(snap)).encode()
    [entry] = real_platform.status()["deployments"]
    assert entry["endpoint"]["name"] == 'lo"u\\d \u00e9\u6a21'
    assert entry.json == json.dumps(entry).encode()


# ---------------------------------------------------------------------------
# attach / detach bookkeeping


def wait(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.02)
    return False


def test_open_close_reopen_updates_open_count(real_platform):
    dep = deploy_shouter(real_platform)
    endpoint = endpoint_of(real_platform, dep)
    link = real_platform.deployment_info(dep)["link"]
    assert wait(lambda: endpoint.open_count == 0)
    fd = open_client(link)
    assert wait(lambda: endpoint.open_count == 1)
    os.close(fd)
    assert wait(lambda: endpoint.open_count == 0)
    fd = open_client(link)
    assert wait(lambda: endpoint.open_count == 1)
    assert endpoint.sessions == 2
    os.close(fd)


def test_withdraw_hangs_up_blocked_reader(real_platform):
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    os.set_blocking(fd, True)
    outcome = {}

    def blocked_read():
        try:
            outcome["data"] = os.read(fd, 64)
        except OSError as exc:
            outcome["errno"] = exc.errno

    reader = threading.Thread(target=blocked_read)
    reader.start()
    time.sleep(0.2)  # let it block in read()
    assert reader.is_alive()
    real_platform.undeploy(dep)
    reader.join(timeout=5)
    assert not reader.is_alive(), "reader never observed the hangup"
    assert outcome.get("data") == b"" or "errno" in outcome
    os.close(fd)


def test_withdraw_removes_link_and_stops_pump(real_platform, tmp_path):
    fds_before = set(os.listdir("/proc/self/fd"))
    threads_before = threading.active_count()
    dep = deploy_shouter(real_platform)
    endpoint = endpoint_of(real_platform, dep)
    real_platform.undeploy(dep)
    assert not (tmp_path / "proteus" / "loud0").is_symlink()
    assert endpoint.open_count == 0
    assert threading.active_count() <= threads_before
    assert set(os.listdir("/proc/self/fd")) <= fds_before  # master closed


def test_tail_of_stream_reaches_blocked_reader_before_hangup(real_platform):
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    os.set_blocking(fd, True)
    got = bytearray()

    def read_to_eof():
        while True:
            try:
                chunk = os.read(fd, 4096)
            except OSError:
                return
            if not chunk:
                return
            got.extend(chunk)

    reader = threading.Thread(target=read_to_eof)
    reader.start()
    os.write(fd, b"parting shot")
    endpoint = endpoint_of(real_platform, dep)
    # never pumped: the final pass of undeploy takes the line in, and
    # the reader collects the reply before the hangup, which passes
    # after the undeploy bring once it has
    real_platform.undeploy(dep)
    join_while_draining(real_platform, reader)
    assert not reader.is_alive()
    assert endpoint.bytes_from_app == 12
    assert bytes(got) == b"PARTING SHOT"
    os.close(fd)


# ---------------------------------------------------------------------------
# backpressure


def test_fast_writer_is_throttled_not_dropped(real_platform):
    # with the platform not pumping, a client can stuff at most the kernel
    # buffer plus one channel's worth; nothing may be lost once draining
    # resumes
    dep = deploy_shouter(real_platform)
    fd = open_client(real_platform.deployment_info(dep)["link"])
    payload = os.urandom(256 * 1024)
    sent = 0
    try:
        stalled = 0
        while sent < len(payload) and stalled < 50:
            try:
                n = os.write(fd, payload[sent:sent + 4096])
            except BlockingIOError:
                n = 0
            if n == 0:
                stalled += 1
                time.sleep(0.01)
            else:
                stalled = 0
                sent += n
        assert sent < len(payload), "backpressure never engaged"
        got = bytearray()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and sent < len(payload):
            real_platform.pump(dep)
            got.extend(read_available(fd))
            try:
                n = os.write(fd, payload[sent:sent + 4096])
                sent += n
            except BlockingIOError:
                pass
            time.sleep(0.001)
        assert sent == len(payload)
        while time.monotonic() < deadline and len(got) < len(payload):
            real_platform.pump(dep)
            got.extend(read_available(fd))
            time.sleep(0.001)
        assert bytes(got) == payload.upper()
    finally:
        os.close(fd)


def test_one_pass_delivers_answers_larger_than_the_channel(tmp_path):
    platform = Platform(runtime_dir=tmp_path, channel_capacity=16)
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    platform.load_module(make_manifest(config={"endpoint_name": "small0"}))
    dep = platform.deploy("modem", "sim0")
    fd = open_client(platform.deployment_info(dep)["link"])
    try:
        os.write(fd, b"AT\r" * 5)  # echo plus five OKs: 45 bytes of answer
        endpoint = endpoint_of(platform, dep)
        deadline = time.monotonic() + 5
        while endpoint.bytes_from_app < 15 and time.monotonic() < deadline:
            platform.pump(dep)
            time.sleep(0.005)
        # no further pass: the pass that took the commands in delivered it all
        want = b"AT\r\r\nOK\r\n" * 5
        got = bytearray()
        while len(got) < len(want) and time.monotonic() < deadline:
            got.extend(read_available(fd))
            time.sleep(0.005)
        assert bytes(got) == want
    finally:
        os.close(fd)
        platform.shutdown()


def test_input_without_a_platform_side_is_counted_and_traced(tmp_path):
    app, platform_side = create_duplex()
    platform_side.close()  # whatever the client writes has nowhere to go
    trace = TraceLog()
    endpoint = PtyEndpoint("d7", app, "orphan0", tmp_path, open_pty(), trace)
    fd = open_client(endpoint.link_path)
    try:
        os.write(fd, b"lost")
        deadline = time.monotonic() + 5
        while endpoint.bytes_dropped < 4 and time.monotonic() < deadline:
            endpoint.pump_once()
            time.sleep(0.005)
        assert endpoint.snapshot()["bytes_dropped"] == 4
        assert [(e.kind.value, e.detail) for e in trace.events()] == [
            ("DataDropped", {"deployment_id": "d7", "bytes": 4, "where": "endpoint"})]
    finally:
        os.close(fd)
        endpoint.withdraw()


# ---------------------------------------------------------------------------
# hygiene across many cycles


def test_repeated_cycles_leave_no_orphans(real_platform, tmp_path):
    fd_dir = "/proc/self/fd"
    before_fds = len(os.listdir(fd_dir))
    before_threads = threading.active_count()
    real_platform.load_module(make_manifest("shouter", "identity", "upper",
                                            config={"endpoint_name": "cycle0"}))
    for _ in range(10):
        dep = real_platform.deploy("shouter", "sim0")
        fd = open_client(real_platform.deployment_info(dep)["link"])
        os.write(fd, b"ping")
        got = bytearray()
        assert pump_until(real_platform, dep,
                          lambda: got.extend(read_available(fd)) or len(got) >= 4)
        os.close(fd)
        real_platform.undeploy(dep)
    assert os.listdir(str(tmp_path / "proteus")) == []
    assert wait(lambda: threading.active_count() <= before_threads)
    assert len(os.listdir(fd_dir)) <= before_fds + 2  # small slack for pytest io


# ---------------------------------------------------------------------------
# the spare PTY a deploy takes


@pytest.fixture
def openpty_calls(monkeypatch):
    """Every ``os.openpty`` call from here on, counted."""
    calls = []
    openpty = os.openpty
    monkeypatch.setattr(os, "openpty", lambda: calls.append(1) or openpty())
    return calls


def echo(platform, dep, data=b"hi"):
    """A fresh client of ``dep`` writes ``data``; what it reads back once
    the platform has served it."""
    fd = open_client(platform.deployment_info(dep)["link"])
    try:
        os.write(fd, data)
        got = bytearray()
        deadline = time.monotonic() + 5
        while len(got) < len(data) and time.monotonic() < deadline:
            platform.serve(0.1)  # the attach sample finds the client
            got += read_available(fd)
        return bytes(got)
    finally:
        os.close(fd)


def test_a_deploy_after_a_pass_only_wake_up_opens_no_pty(real_platform, openpty_calls):
    dep = deploy_shouter(real_platform)
    assert len(openpty_calls) == 1  # no spare yet: opened while the deploy waits
    assert echo(real_platform, dep) == b"HI"  # wake-ups for passes alone
    assert len(openpty_calls) == 2  # the spare, once
    real_platform.undeploy(dep)
    dep = real_platform.deploy("shouter", "sim0")
    assert len(openpty_calls) == 2  # the deploy took the spare
    assert echo(real_platform, dep) == b"HI"


@pytest.mark.parametrize("holds_slave", [True, False])
def test_a_spare_someone_touched_is_closed_not_handed_out(
        real_platform, openpty_calls, holds_slave):
    dep = deploy_shouter(real_platform)
    real_platform.serve(0)  # answers no request: the spare is opened
    _, spare_path = real_platform._spare._pty
    stranger = os.open(spare_path, os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)
    try:
        os.write(stranger, b"stale")
        if not holds_slave:
            os.close(stranger)  # its input stays in the PTY
        real_platform.undeploy(dep)
        del openpty_calls[:]
        dep = real_platform.deploy("shouter", "sim0")
        assert len(openpty_calls) == 1  # a fresh PTY instead
        if holds_slave:
            with pytest.raises(OSError):  # the spare's master has closed
                os.write(stranger, b"more")
    finally:
        if holds_slave:
            os.close(stranger)
    assert echo(real_platform, dep, b"x") == b"X"  # none of the stale input
    assert endpoint_of(real_platform, dep).bytes_from_app == 1


def test_a_deployment_on_the_spare_samples_attachment_from_its_deploy(
        real_platform, openpty_calls):
    dep = deploy_shouter(real_platform)
    real_platform.serve(0)  # the spare is opened
    time.sleep(2 * ATTACH_SAMPLE)
    real_platform.undeploy(dep)
    deployed = time.monotonic()
    dep = real_platform.deploy("shouter", "sim0")
    assert len(openpty_calls) == 2  # the first deploy's, and the spare
    _, deadline = endpoint_of(real_platform, dep).watch()
    assert deadline >= deployed + ATTACH_SAMPLE


def test_shutdown_closes_the_spare_and_leaves_no_fd(tmp_path):
    fds = set(os.listdir("/proc/self/fd"))
    platform = Platform(runtime_dir=tmp_path)
    platform.register_ham(SimulatedFpga("sim0", "sim-fpga-v1"))
    deploy_shouter(platform)
    platform.serve(0)  # the spare is opened
    assert platform._spare._pty is not None
    platform.shutdown()
    assert set(os.listdir("/proc/self/fd")) <= fds


def test_a_platform_with_its_own_endpoint_factory_opens_no_pty(
        platform, sim_ham, shouter_manifest, openpty_calls):
    platform.register_ham(sim_ham)
    platform.load_module(shouter_manifest)
    for _ in range(3):
        dep = platform.deploy("shouter", "sim0")
        platform.serve(0)
        platform.undeploy(dep)
        platform.serve(0)
    platform.shutdown()
    assert openpty_calls == []


def no_node(fd):
    raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))


def no_raw_mode(fd, when=None):
    raise termios.error(errno.EIO, os.strerror(errno.EIO))


@pytest.mark.parametrize("module, name, failure",
                         [(os, "ttyname", no_node), (tty, "setraw", no_raw_mode)])
def test_a_pty_that_cannot_be_set_up_fails_the_deploy_not_the_loop(
        real_platform, monkeypatch, module, name, failure):
    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(module, name, failure)
    with pytest.raises(OsResourceError, match="cannot set up pseudo-terminal"):
        deploy_shouter(real_platform)
    for _ in range(3):
        real_platform.serve(0)  # the spare fails the same way, quietly
    assert set(os.listdir("/proc/self/fd")) <= fds
    monkeypatch.undo()
    dep = real_platform.deploy("shouter", "sim0")
    assert echo(real_platform, dep) == b"HI"


def test_a_spare_that_cannot_be_opened_is_tried_once_per_deploy(
        real_platform, monkeypatch, caplog):
    dep = deploy_shouter(real_platform)
    tries = []

    def out_of_fds():
        tries.append(1)
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "openpty", out_of_fds)
    with caplog.at_level(logging.WARNING):
        for _ in range(5):
            real_platform.serve(0)
    assert len(tries) == 1
    assert caplog.records == []  # quietly
    real_platform.undeploy(dep)
    with pytest.raises(OsResourceError, match="Too many open files"):
        real_platform.deploy("shouter", "sim0")  # opened while it waits, in vain
    real_platform.serve(0)
    assert len(tries) == 3  # the deploy's own, and one more for a spare
