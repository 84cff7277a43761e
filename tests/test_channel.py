"""Ring-buffer channel tests, checked against an independent FIFO model."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from proteus.channel import (
    DEFAULT_CAPACITY,
    ChannelHandle,
    DuplexChannel,
    RingBuffer,
    Side,
    create_duplex,
)
from proteus.errors import ClosedHandleError, InvalidCapacityError, PeerDisconnectedError


class FifoModel:
    """Reference bounded FIFO: a plain byte list with a capacity cap.

    Kept deliberately naive so it shares no logic with the ring buffer:
    no cursors, no wraparound, just slicing off the front.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = bytearray()

    def write(self, payload):
        room = self.capacity - len(self.data)
        accepted = payload[:room]
        self.data.extend(accepted)
        return len(accepted)

    def read(self, max_bytes):
        out = bytes(self.data[:max_bytes])
        del self.data[:max_bytes]
        return out

    @property
    def queued(self):
        return len(self.data)


# ---------------------------------------------------------------------------
# construction


def test_create_duplex_returns_two_empty_handles():
    app, plat = create_duplex(4096)
    assert isinstance(app, ChannelHandle)
    assert isinstance(plat, ChannelHandle)
    assert app.read(1) == b""
    assert plat.read(1) == b""


@pytest.mark.parametrize("capacity", [0, 1, 3, 5, 6, 7, 100, 4095])
def test_non_power_of_two_capacity_rejected(capacity):
    with pytest.raises(InvalidCapacityError) as exc:
        create_duplex(capacity)
    assert exc.value.code == "invalid-capacity"


def test_negative_capacity_rejected():
    with pytest.raises(InvalidCapacityError):
        RingBuffer(-4)


@pytest.mark.parametrize("capacity", [2, 4, 8, 1024, 4096, 1 << 16])
def test_power_of_two_capacity_accepted(capacity):
    app, plat = create_duplex(capacity)
    assert app.write(b"x") == 1
    assert plat.read(4) == b"x"


def test_default_capacity():
    assert DEFAULT_CAPACITY == 4096
    app, plat = create_duplex()
    assert app.write(b"\x00" * 5000) == 4096


def test_minimum_capacity_holds_exactly_two_bytes():
    app, plat = create_duplex(2)
    assert app.write(b"ab") == 2
    assert app.write(b"c") == 0  # full: partial write accepts nothing
    assert plat.read(10) == b"ab"
    assert app.write(b"c") == 1


# ---------------------------------------------------------------------------
# write / read basics


def test_write_returns_bytes_accepted():
    app, plat = create_duplex(4096)
    assert app.write(b"ATD") == 3


def test_write_empty_payload_is_noop():
    app, plat = create_duplex(4096)
    assert app.write(b"") == 0
    assert plat.read(16) == b""


def test_partial_write_when_nearly_full():
    app, plat = create_duplex(4096)
    assert app.write(b"\x00" * 4095) == 4095
    assert app.write(b"hello") == 1  # one byte of room left


def test_read_passes_bytes_through_in_order():
    app, plat = create_duplex(4096)
    app.write(b"AT")
    assert plat.read(2) == b"AT"


def test_read_respects_max_bytes():
    app, plat = create_duplex(4096)
    app.write(b"abcdef")
    assert plat.read(4) == b"abcd"
    assert plat.read(4) == b"ef"


def test_read_empty_returns_empty_bytes_not_none():
    app, plat = create_duplex(4096)
    assert plat.read(64) == b""


def test_directions_are_independent():
    app, plat = create_duplex(4)
    app.write(b"abcd")        # app->platform now full
    assert plat.write(b"wxyz") == 4  # other direction unaffected
    assert plat.read(8) == b"abcd"
    assert app.read(8) == b"wxyz"


def test_wraparound_preserves_order():
    app, plat = create_duplex(8)
    app.write(b"12345")
    assert plat.read(5) == b"12345"
    app.write(b"678901")  # crosses the physical end of the buffer
    assert plat.read(8) == b"678901"


# ---------------------------------------------------------------------------
# poll


def test_poll_reflects_buffer_state():
    app, plat = create_duplex(8)
    st = app.poll()
    assert not st.readable and st.writable and st.peer_open
    app.write(b"abc")
    assert plat.poll().readable
    assert not app.poll().readable  # own inbound still empty


def test_poll_writable_accounts_for_queued_bytes():
    # writable head-room plus bytes queued equals capacity, always.
    app, plat = create_duplex(16)
    rng = random.Random(7)
    model_queued = 0
    for _ in range(500):
        if rng.random() < 0.6:
            n = app.write(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9))))
            model_queued += n
        else:
            got = plat.read(rng.randrange(0, 9))
            model_queued -= len(got)
        writable = app.channel.app_to_platform.writable
        assert writable + model_queued == 16


def test_poll_peer_open_flag():
    app, plat = create_duplex(8)
    assert app.poll().peer_open
    plat.close()
    assert not app.poll().peer_open


# ---------------------------------------------------------------------------
# close semantics


def test_close_is_idempotent():
    app, plat = create_duplex(8)
    app.close()
    app.close()
    assert not app.is_open


def test_operations_on_closed_handle_raise():
    app, plat = create_duplex(8)
    app.close()
    with pytest.raises(ClosedHandleError):
        app.write(b"x")
    with pytest.raises(ClosedHandleError):
        app.read(1)


def test_write_to_departed_peer_raises():
    app, plat = create_duplex(8)
    plat.close()
    with pytest.raises(PeerDisconnectedError):
        app.write(b"x")


def test_reader_drains_then_sees_end_of_stream():
    app, plat = create_duplex(8)
    app.write(b"bye")
    app.close()
    assert plat.read(2) == b"by"   # queued data still flows
    assert plat.read(2) == b"e"
    assert plat.read(2) is None    # drained: end of stream
    assert plat.read(2) is None


def test_end_of_stream_only_after_drain():
    app, plat = create_duplex(8)
    app.close()
    assert plat.read(4) is None    # nothing was queued


# ---------------------------------------------------------------------------
# differential: random op sequences against the model


@pytest.mark.parametrize("capacity,seed", [(2, 0), (8, 1), (64, 2), (4096, 3)])
def test_random_ops_match_fifo_model(capacity, seed):
    rng = random.Random(seed)
    app, plat = create_duplex(capacity)
    model = FifoModel(capacity)
    for _ in range(20_000):
        if rng.random() < 0.5:
            payload = rng.randbytes(rng.randrange(0, capacity + 3))
            assert app.write(payload) == model.write(payload)
        else:
            want = rng.randrange(0, capacity + 3)
            assert plat.read(want) == model.read(want)
        assert app.channel.app_to_platform.readable == model.queued


def test_conservation_every_byte_written_is_read_once():
    rng = random.Random(99)
    app, plat = create_duplex(256)
    written = bytearray()
    consumed = bytearray()
    accepted_total = 0
    for _ in range(5_000):
        if rng.random() < 0.55:
            payload = rng.randbytes(rng.randrange(0, 300))
            n = app.write(payload)
            written.extend(payload[:n])
            accepted_total += n
        else:
            consumed.extend(plat.read(rng.randrange(0, 300)))
    consumed.extend(plat.read(256))
    assert bytes(consumed) == bytes(written)
    assert len(consumed) == accepted_total


def test_two_threads_transfer_losslessly():
    app, plat = create_duplex(64)
    payload = random.Random(5).randbytes(20_000)
    received = bytearray()

    def produce():
        view = memoryview(payload)
        while view:
            n = app.write(bytes(view[:37]))
            if n == 0:
                time.sleep(0.0002)  # peer hasn't drained yet
            view = view[n:]
        app.close()

    def consume():
        while True:
            chunk = plat.read(41)
            if chunk is None:
                return
            if not chunk:
                time.sleep(0.0002)
                continue
            received.extend(chunk)

    t1 = threading.Thread(target=produce)
    t2 = threading.Thread(target=consume)
    t1.start(); t2.start()
    t1.join(30); t2.join(30)
    assert not t1.is_alive() and not t2.is_alive()
    assert bytes(received) == payload


def test_side_enum_peers():
    assert Side.APPLICATION.peer is Side.PLATFORM
    assert Side.PLATFORM.peer is Side.APPLICATION


def test_duplex_channel_exposes_both_buffers():
    ch = DuplexChannel(16)
    assert ch.app_to_platform.capacity == 16
    assert ch.platform_to_app.capacity == 16


def test_reader_gets_every_byte_before_end_of_stream_across_threads():
    # the producer writes and closes while the consumer may be between
    # draining the ring and looking at the peer: the tail must not be lost
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(200):
            app, plat = create_duplex(64)
            payload = bytes([round_no % 256]) * (1 + round_no % 40)
            go = threading.Event()

            def produce():
                go.wait()
                app.write(payload)
                app.close()

            producer = threading.Thread(target=produce)
            producer.start()
            received = bytearray()
            go.set()
            while (chunk := plat.read(64)) is not None:
                received.extend(chunk)
            producer.join(5)
            assert not producer.is_alive()
            assert bytes(received) == payload, f"round {round_no}"
    finally:
        sys.setswitchinterval(old)
