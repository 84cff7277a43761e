"""Full-duplex byte channel between a native application and the platform.

A :class:`DuplexChannel` is one shared pair of bounded byte FIFOs with
exactly two handles, one per side.  Each direction has a single producer
and a single consumer; reads and writes never block and may be partial.
Closing a handle leaves already-buffered bytes readable by the peer
(drain semantics), after which the peer sees end-of-stream.  It also
drops the closed handle's link to its peer, so a pair of handles is no
reference cycle once either side is closed, and refcounting frees the
FIFOs as soon as nothing holds the handles.

Nothing here takes a lock.  Each direction is one ``bytearray``: the
producer appends what fits and the consumer copies the front and then
deletes it, which CPython does by moving the array's start.  Every step
on the storage (taking its length, appending, copying the front,
deleting it) is one C call, which the interpreter lock runs whole.  The
producer only appends, so the room it saw can only have grown by the
time it appends; the consumer deletes only the bytes it has already
copied, so the bytes it saw are still at the front.  A build without
the interpreter lock would need a lock per direction.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ClosedHandleError, InvalidCapacityError, PeerDisconnectedError

DEFAULT_CAPACITY = 4096


class RingBuffer:
    """Bounded single-producer, single-consumer FIFO of bytes.

    Capacity must be a power of two, at least 2.  The buffer is storage
    only: the :class:`ChannelHandle` that writes it is its one producer,
    the one that reads it its consumer.
    """

    __slots__ = ("capacity", "_storage")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2 or capacity & (capacity - 1):
            raise InvalidCapacityError(
                f"capacity must be a power of two >= 2, got {capacity}"
            )
        self.capacity = capacity
        self._storage = bytearray()

    @property
    def readable(self) -> int:
        """Bytes queued; exact when the consumer asks."""
        return len(self._storage)

    @property
    def writable(self) -> int:
        """Free space; exact when the producer asks."""
        return self.capacity - len(self._storage)


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
    """Two bounded FIFOs, one per direction."""

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
        buffer = self._outbound
        fifo = buffer._storage
        room = buffer.capacity - len(fifo)
        if len(data) > room:
            data = data[:room]
        fifo += data
        return len(data)

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
        fifo = self._inbound._storage
        n = len(fifo)
        if n > max_bytes:
            n = max_bytes
        if n <= 0:
            return b"" if peer_open else None
        data = bytes(fifo[:n])
        del fifo[:n]  # free the space only once it is copied
        return data

    @property
    def readable(self) -> int:
        """Bytes this side can read now; a cheap test before :meth:`read`."""
        return len(self._inbound._storage)

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
