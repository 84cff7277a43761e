"""Full-duplex byte channel between a native application and the platform.

A :class:`DuplexChannel` is one shared pair of bounded ring buffers with
exactly two handles, one per side.  Each direction has a single producer
and a single consumer; reads and writes never block and may be partial.
Closing a handle leaves already-buffered bytes readable by the peer
(drain semantics), after which the peer sees end-of-stream.

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
from dataclasses import dataclass

from .errors import ClosedHandleError, InvalidCapacityError, PeerDisconnectedError

DEFAULT_CAPACITY = 4096


class RingBuffer:
    """Bounded single-producer, single-consumer FIFO of bytes with
    monotonic read/write counters.

    Capacity must be a power of two so positions wrap with a mask and a
    full buffer is always distinguishable from an empty one.  Only the
    producer calls :meth:`write` and only the consumer :meth:`read`.
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

    def write(self, data: bytes) -> int:
        """Enqueue up to the free space, returning the byte count accepted."""
        write_pos = self.write_pos
        n = min(len(data), self.capacity - (write_pos - self.read_pos))
        if n <= 0:
            return 0
        start = write_pos & self._mask
        first = min(n, self.capacity - start)
        self._storage[start:start + first] = data[:first]
        if first < n:
            self._storage[0:n - first] = data[first:n]
        self.write_pos = write_pos + n  # publish only once the bytes are in
        return n

    def read(self, max_bytes: int) -> bytes:
        """Dequeue up to ``max_bytes`` in FIFO order (empty when drained)."""
        read_pos = self.read_pos
        n = min(max_bytes, self.write_pos - read_pos)
        if n <= 0:
            return b""
        start = read_pos & self._mask
        first = min(n, self.capacity - start)
        out = bytes(self._storage[start:start + first])
        if first < n:
            out += bytes(self._storage[0:n - first])
        self.read_pos = read_pos + n  # free the space only once it is copied
        return out

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


@dataclass(frozen=True)
class PollStatus:
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
        return self._outbound.write(data)

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
        data = self._inbound.read(max_bytes)
        if not data and not peer_open:
            return None
        return data

    def close(self) -> None:
        """Close this side.  Idempotent."""
        self._open = False

    def poll(self) -> PollStatus:
        return PollStatus(
            readable=self._inbound.readable,
            writable=self._outbound.writable,
            peer_open=self._peer._open,
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
