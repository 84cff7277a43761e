"""Pseudo-terminal endpoints observed the way a native client sees them."""

from __future__ import annotations

import os
import stat
import threading
import time

import pytest

from proteus.channel import create_duplex
from proteus.core import Platform
from proteus.endpoint import PtyEndpoint
from proteus.errors import NameInUseError
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
    real_platform.register_ham(SimulatedFpga("sim1", "sim-fpga-v1"))
    deploy_shouter(real_platform)
    real_platform.load_module(make_manifest("other", "identity", "identity",
                                            config={"endpoint_name": "loud0"}))
    with pytest.raises(NameInUseError):
        real_platform.deploy("other", "sim1")


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
    # never pumped: the final pass of undeploy takes the line in, then
    # lets the reader collect the reply before it hangs up
    real_platform.undeploy(dep)
    reader.join(timeout=5)
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
    endpoint = PtyEndpoint("d7", app, "orphan0", tmp_path, trace)
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
