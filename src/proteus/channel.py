"""Full-duplex byte channel between a native application and the platform.

A :class:`DuplexChannel` is one shared pair of bounded ring buffers with
exactly two handles, one per side.  Each direction has a single producer
and a single consumer; reads and writes never block and may be partial.
Closing a handle leaves already-buffered bytes readable by the peer
(drain semantics), after which the peer sees end-of-stream.  It also
drops the closed handle's link to its peer, so a pair of handles is no
reference cycle once either side is closed, and refcounting frees the
rings as soon as nothing holds the handles.

Nothing here takes a lock.  Each ring position has one writer: the
producer copies bytes in before it advances ``write_pos``, and the
consumer copies bytes out before it advances ``read_pos`` (Lamport,
"Specifying Concurrent Program Modules", 1983).  Whichever side looks at
the other's position sees either the old or the new value, never bytes
it may not yet touch.  That relies on the interpreter lock running each
attribute load and store whole and in program order, as CPython's does;
a build without it would need the positions published with barriers.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ClosedHandleError, InvalidCapacityError, PeerDisconnectedError

DEFAULT_CAPACITY = 4096


class RingBuffer:
    """Bounded single-producer, single-consumer FIFO of bytes with
    monotonic read/write counters.

    Capacity must be a power of two so positions wrap with a mask and a
    full buffer is always distinguishable from an empty one.  The ring
    is storage and positions only: the :class:`ChannelHandle` that
    writes it is its one producer, the one that reads it its consumer.
    """

    __slots__ = ("capacity", "_mask", "_storage", "read_pos", "write_pos")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2 or capacity & (capacity - 1):
            raise InvalidCapacityError(
                f"capacity must be a power of two >= 2, got {capacity}"
            )
        self.capacity = capacity
        self._mask = capacity - 1
        self._storage = bytearray(capacity)
        self.read_pos = 0
        self.write_pos = 0

    @property
    def readable(self) -> int:
        """Bytes queued; exact when the consumer asks."""
        return self.write_pos - self.read_pos

    @property
    def writable(self) -> int:
        """Free space; exact when the producer asks."""
        return self.capacity - (self.write_pos - self.read_pos)


class Side(enum.Enum):
    APPLICATION = "application"
    PLATFORM = "platform"

    @property
    def peer(self) -> "Side":
        return Side.PLATFORM if self is Side.APPLICATION else Side.APPLICATION


class PollStatus(NamedTuple):
    """Instantaneous snapshot of a handle's readable/writable byte counts."""

    readable: int
    writable: int
    peer_open: bool


class DuplexChannel:
    """Two ring buffers, one per direction."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.app_to_platform = RingBuffer(capacity)
        self.platform_to_app = RingBuffer(capacity)


class ChannelHandle:
    """One side of a duplex channel.

    The read and write directions are fixed by ``side``: the application
    handle writes into the app-to-platform buffer and reads the reverse
    one, the platform handle the opposite.  A handle must be used from a
    single thread of control; the two handles may be used concurrently.
    :func:`create_duplex` pairs two handles as each other's peer.
    """

    __slots__ = ("channel", "side", "_inbound", "_outbound", "_open", "_peer")

    def __init__(self, channel: DuplexChannel, side: Side,
                 peer: "ChannelHandle | None" = None):
        self.channel = channel
        self.side = side
        if side is Side.APPLICATION:
            self._inbound, self._outbound = channel.platform_to_app, channel.app_to_platform
        else:
            self._inbound, self._outbound = channel.app_to_platform, channel.platform_to_app
        self._open = True
        self._peer = peer
        if peer is not None:
            peer._peer = self

    def write(self, data: bytes) -> int:
        """Enqueue up to ``len(data)`` bytes, returning the accepted count.

        Never blocks; 0 means the outbound buffer is full.
        """
        if not self._open:
            raise ClosedHandleError(f"{self.side.value} handle is closed")
        if not self._peer._open:
            raise PeerDisconnectedError(f"{self.side.peer.value} handle has disconnected")
        ring = self._outbound
        write_pos = ring.write_pos
        n = ring.capacity - (write_pos - ring.read_pos)  # free space
        if len(data) < n:
            n = len(data)
        if n <= 0:
            return 0
        start = write_pos & ring._mask
        end = start + n
        if end <= ring.capacity:
            ring._storage[start:end] = data if n == len(data) else data[:n]
        else:  # wraps past the physical end
            first = ring.capacity - start
            ring._storage[start:] = data[:first]
            ring._storage[:end - ring.capacity] = data[first:n]
        ring.write_pos = write_pos + n  # publish only once the bytes are in
        return n

    def read(self, max_bytes: int) -> bytes | None:
        """Dequeue up to ``max_bytes`` from the inbound buffer.

        Returns ``b""`` when no data is currently available and ``None``
        once the peer has closed and all buffered bytes are drained.
        """
        if not self._open:
            raise ClosedHandleError(f"{self.side.value} handle is closed")
        # looked at before draining: a peer that writes and then closes
        # between the two steps must not hide its last bytes
        peer_open = self._peer._open
        ring = self._inbound
        read_pos = ring.read_pos
        n = ring.write_pos - read_pos
        if n > max_bytes:
            n = max_bytes
        if n <= 0:
            return b"" if peer_open else None
        start = read_pos & ring._mask
        end = start + n
        if end <= ring.capacity:
            data = bytes(ring._storage[start:end])
        else:  # wraps past the physical end
            data = bytes(ring._storage[start:]) + ring._storage[:end - ring.capacity]
        ring.read_pos = read_pos + n  # free the space only once it is copied
        return data

    @property
    def readable(self) -> int:
        """Bytes this side can read now; a cheap test before :meth:`read`."""
        inbound = self._inbound
        return inbound.write_pos - inbound.read_pos

    def close(self) -> None:
        """Close this side.  Idempotent."""
        self._open = False
        self._peer = None  # the peer still sees this side, closed

    def poll(self) -> PollStatus:
        return PollStatus(
            readable=self._inbound.readable,
            writable=self._outbound.writable,
            peer_open=self._peer is not None and self._peer._open,
        )

    @property
    def is_open(self) -> bool:
        return self._open


def create_duplex(capacity: int = DEFAULT_CAPACITY) -> tuple[ChannelHandle, ChannelHandle]:
    """Create a channel and return its (application, platform) handles.

    Both handles are open from the start, so neither side depends on the
    other having connected first.
    """
    channel = DuplexChannel(capacity)
    app = ChannelHandle(channel, Side.APPLICATION)
    return app, ChannelHandle(channel, Side.PLATFORM, peer=app)
