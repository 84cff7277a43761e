"""PTY clients of the load generator.

They behave like an unmodified terminal program: open the published
endpoint link, write bytes, read bytes.  Nothing here imports the modem,
so every expected reply comes from the benchmark's own table.
"""

from __future__ import annotations

import os
import random
import selectors
import time
from collections import deque
from dataclasses import dataclass, field

REPLY_TIMEOUT = 2.0  # seconds a reply may take before it counts as failed
READ_CHUNK = 65536
WRITE_CHUNK = 4096
# '+' is withheld by the modem's escape guard, so generated data avoids it
DATA_ALPHABET = bytes(b for b in range(256) if b != ord("+"))

# AT lines and the exact bytes the modem must answer while echo is on:
# the echoed line, then the framed result code.
AT_TABLE = {
    b"AT": b"OK",
    b"ATE1": b"OK",
    b"ATH0": b"OK",
    b"ATI": b"ERROR",
    b"ATX9": b"ERROR",
    b"AT&F": b"ERROR",
}
DIAL = b"ATD5551234"


def at_reply(line: bytes, code: bytes, echo: bool = True) -> bytes:
    return (line + b"\r" if echo else b"") + b"\r\n" + code + b"\r\n"


def data_bytes(rng: random.Random, n: int) -> bytes:
    """``n`` seeded bytes drawn from every value except '+'."""
    return bytes(rng.choice(DATA_ALPHABET) for _ in range(n))


class Mismatch(Exception):
    """The endpoint answered bytes that differ from the expected reply."""


class InOrderMatcher:
    """Matches a byte stream against queued replies, strictly in order.

    Reads may split a reply or merge several; only the concatenation
    matters.  ``feed`` returns the tags of replies completed by the new
    bytes and raises :class:`Mismatch` on the first wrong byte, or on
    bytes that arrive while no reply is expected.
    """

    def __init__(self):
        self._pending: deque = deque()  # [tag, expected, matched-so-far]

    def expect(self, tag, reply: bytes) -> None:
        self._pending.append([tag, reply, 0])

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def oldest(self):
        return self._pending[0][0] if self._pending else None

    def feed(self, data: bytes) -> list:
        done = []
        pos = 0
        while pos < len(data):
            if not self._pending:
                raise Mismatch(f"unexpected bytes {data[pos:pos + 16]!r}")
            entry = self._pending[0]
            tag, reply, matched = entry
            take = min(len(reply) - matched, len(data) - pos)
            got = data[pos:pos + take]
            if got != reply[matched:matched + take]:
                raise Mismatch(f"expected {reply[matched:matched + take]!r}, "
                               f"got {got!r}")
            pos += take
            entry[2] = matched + take
            if entry[2] == len(reply):
                self._pending.popleft()
                done.append(tag)
        return done


@dataclass
class Request:
    kind: str        # "at" or "echo": the latency series it belongs to
    payload: bytes
    reply: bytes
    barrier: bool = False  # hold later requests until this one is answered


def interactive_script(rng: random.Random, n_at: int, n_echo: int) -> list[Request]:
    """A seeded AT mix, then a dial, then single data bytes to echo."""
    lines = list(AT_TABLE)
    script = [Request("at", line + b"\r", at_reply(line, AT_TABLE[line]))
              for line in (rng.choice(lines) for _ in range(n_at))]
    script.append(Request("at", DIAL + b"\r", at_reply(DIAL, b"CONNECT"),
                          barrier=True))
    script += [Request("echo", bytes([b]), bytes([b]))
               for b in data_bytes(rng, n_echo)]
    return script


def open_link(link: str) -> int:
    return os.open(link, os.O_RDWR | os.O_NOCTTY | os.O_NONBLOCK)


@dataclass
class Outcome:
    """What one client saw: latency samples per series, counts, errors."""

    latency: dict = field(default_factory=lambda: {"at": [], "echo": []})
    lateness: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verified_bytes: int = 0
    errors: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other: "Outcome") -> None:
        for kind, values in other.latency.items():
            self.latency.setdefault(kind, []).extend(values)
        self.lateness += other.lateness
        self.attempted += other.attempted
        self.failed += other.failed
        self.verified_bytes += other.verified_bytes
        self.errors += other.errors


class PacedTerminal:
    """Open-loop terminal: request ``i`` is due at ``start + i / rate``.

    Latency runs from the due time, so a stall also charges the requests
    queued behind it; ``lateness`` (send time minus due time) shows how
    far the generator itself fell behind.  After a mismatch or timeout
    the stream can no longer be matched, so the client stops: the open
    requests count as failed and the rest are never attempted.
    """

    def __init__(self, fd: int, script: list[Request], rate: float):
        self.fd = fd
        self.script = script
        self.interval = 1.0 / rate
        self.outcome = Outcome()
        self.matcher = InOrderMatcher()
        self.next_index = 0
        self.start = 0.0
        self.stop_at = float("inf")
        self.blocked = False
        self.done = False

    def begin(self, now: float, stop_at: float) -> None:
        self.start = now
        self.stop_at = stop_at

    def due(self, index: int) -> float:
        return self.start + index * self.interval

    def wanted_timeout(self, now: float) -> float:
        if self.done or self.blocked or self.next_index >= len(self.script):
            return REPLY_TIMEOUT
        return max(0.0, self.due(self.next_index) - now)

    def wants_write(self, now: float) -> bool:
        return False  # requests are a few bytes, written when due

    def finished_sending(self) -> bool:
        return (self.next_index >= len(self.script)
                or self.due(self.next_index) >= self.stop_at)

    def on_tick(self, now: float) -> None:
        if self.done:
            return
        while (not self.blocked and not self.finished_sending()
               and self.due(self.next_index) <= now):
            request = self.script[self.next_index]
            self.matcher.expect(self.next_index, request.reply)
            os.write(self.fd, request.payload)
            sent = time.perf_counter()
            self.outcome.attempted += 1
            self.outcome.lateness.append(sent - self.due(self.next_index))
            self.blocked = request.barrier
            self.next_index += 1
            now = sent
        oldest = self.matcher.oldest()
        if oldest is not None and now - self.due(oldest) > REPLY_TIMEOUT:
            self._abort(f"no reply to request {oldest} within {REPLY_TIMEOUT}s")
        elif self.matcher.outstanding == 0 and self.finished_sending():
            self.done = True

    def on_readable(self) -> None:
        try:
            data = os.read(self.fd, READ_CHUNK)
        except BlockingIOError:
            return
        now = time.perf_counter()
        try:
            completed = self.matcher.feed(data)
        except Mismatch as exc:
            self._abort(str(exc))
            return
        for index in completed:
            request = self.script[index]
            self.outcome.latency[request.kind].append(now - self.due(index))
            if request.kind == "echo":
                self.outcome.verified_bytes += len(request.reply)
            if request.barrier:
                self.blocked = False

    def _abort(self, why: str) -> None:
        self.outcome.fail(self.matcher.outstanding, why)
        self.done = True


class BulkStream:
    """Streams a seeded payload at a fixed rate and verifies the echo.

    Open loop: chunk ``i`` of ``WRITE_CHUNK`` bytes is due at
    ``start + i * WRITE_CHUNK / rate``, and the payload repeats while
    the measured phase lasts.  Every byte that comes back must equal the
    byte sent at the same offset.  Each accepted write counts as one
    attempted operation; a wrong byte or a missing tail counts as one
    failure and ends the stream.
    """

    def __init__(self, fd: int, payload: bytes, rate: float):
        self.fd = fd
        self._ring = payload + payload  # slices up to len(payload) never wrap
        self._len = len(payload)
        self.rate = rate
        self.outcome = Outcome()
        self.sent = 0
        self.start = 0.0
        self.last_verify = 0.0
        self.stop_at = float("inf")
        self.done = False

    def begin(self, now: float, stop_at: float) -> None:
        self.start = now
        self.last_verify = now
        self.stop_at = stop_at

    def _due(self, now: float) -> int:
        """Bytes the schedule has released by ``now``."""
        return (int((now - self.start) * self.rate / WRITE_CHUNK) + 1) * WRITE_CHUNK

    def wants_write(self, now: float) -> bool:
        return not self.done and now < self.stop_at and self._due(now) > self.sent

    def wanted_timeout(self, now: float) -> float:
        if self.done or now >= self.stop_at:
            return REPLY_TIMEOUT
        next_chunk = (self.sent // WRITE_CHUNK + 1) * WRITE_CHUNK
        return max(0.0, self.start + (next_chunk - WRITE_CHUNK) / self.rate - now)

    def on_writable(self) -> None:
        n = min(WRITE_CHUNK, self._due(time.perf_counter()) - self.sent)
        offset = self.sent % self._len
        try:
            n = os.write(self.fd, self._ring[offset:offset + n])
        except BlockingIOError:
            return
        self.sent += n
        self.outcome.attempted += 1

    def on_readable(self) -> None:
        try:
            data = os.read(self.fd, READ_CHUNK)
        except BlockingIOError:
            return
        offset = self.outcome.verified_bytes % self._len
        if len(data) > self._len or data != self._ring[offset:offset + len(data)]:
            self.outcome.fail(1, f"payload differs after byte "
                                 f"{self.outcome.verified_bytes}")
            self.done = True
            return
        self.outcome.verified_bytes += len(data)
        self.last_verify = time.perf_counter()

    def on_tick(self, now: float) -> None:
        if self.done or now < self.stop_at:
            return
        if self.outcome.verified_bytes >= self.sent:
            self.done = True
        elif now - max(self.stop_at, self.last_verify) > REPLY_TIMEOUT:
            self.outcome.fail(1, f"{self.sent - self.outcome.verified_bytes} "
                                 f"bytes never came back")
            self.done = True


def drive(clients: list, seconds: float) -> None:
    """Run clients on one selector loop: ``seconds`` of sending, then drain.

    Every client has ``fd``, ``done``, ``begin``, ``wanted_timeout``,
    ``wants_write``, ``on_readable`` and ``on_tick``; ``on_writable`` is
    called only while ``wants_write`` is true.
    """
    # select(2) takes microsecond timeouts; epoll rounds up to whole
    # milliseconds, which would make the paced sender late by design
    selector = selectors.SelectSelector()
    start = time.perf_counter()
    for client in clients:
        client.begin(start, start + seconds)
        selector.register(client.fd, selectors.EVENT_READ, client)
    try:
        while not all(c.done for c in clients):
            now = time.perf_counter()
            for client in clients:
                events = selectors.EVENT_READ
                if client.wants_write(now):
                    events |= selectors.EVENT_WRITE
                selector.modify(client.fd, events, client)
            timeout = min(c.wanted_timeout(now) for c in clients if not c.done)
            for key, mask in selector.select(min(timeout, 0.05)):
                client = key.data
                if client.done:
                    continue
                if mask & selectors.EVENT_READ:
                    client.on_readable()
                if mask & selectors.EVENT_WRITE and not client.done:
                    client.on_writable()
            now = time.perf_counter()
            for client in clients:
                client.on_tick(now)
    finally:
        selector.close()


def exchange(fd: int, payload: bytes, reply: bytes,
             timeout: float = REPLY_TIMEOUT) -> float:
    """Closed-loop request on one fd: write, wait for ``reply``, return seconds.

    Raises :class:`Mismatch` on a wrong byte and :class:`TimeoutError`
    when the reply is incomplete after ``timeout``.
    """
    matcher = InOrderMatcher()
    matcher.expect(0, reply)
    start = time.perf_counter()
    os.write(fd, payload)
    deadline = start + timeout
    with selectors.SelectSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"no complete reply to {payload!r}")
            if not selector.select(remaining):
                continue
            try:
                data = os.read(fd, READ_CHUNK)
            except BlockingIOError:
                continue
            if matcher.feed(data):
                return time.perf_counter() - start
