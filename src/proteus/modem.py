"""Hayes-style virtual modem: AT command interpreter plus data-mode carrier.

The interpreter accepts CR-terminated command lines, answers with verbose
result codes framed ``\\r\\n<code>\\r\\n``, and switches to data mode on a
successful dial.  In data mode bytes flow to the active carrier (loopback
by default, or a TCP bridge picked by the dial plan) and the classic
``+++`` escape, guarded by one second of silence on both sides, drops
back to command mode.  The clock is injectable so guard timing is
deterministic under test.
"""

from __future__ import annotations

import enum
import queue
import re
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import MalformedDialPlanError, NotAtPrefixedError

OK = "OK"
ERROR = "ERROR"
CONNECT = "CONNECT"
NO_CARRIER = "NO CARRIER"

CR = 0x0D
LINE_BUFFER_LIMIT = 256
GUARD_SECONDS = 1.0


def frame_result(code: str) -> bytes:
    """Verbose result-code framing: CR LF <code> CR LF."""
    return b"\r\n" + code.encode("ascii") + b"\r\n"


# --- parsed AT commands -----------------------------------------------------

@dataclass(frozen=True)
class Dial:
    target: str


@dataclass(frozen=True)
class Hangup:
    pass


@dataclass(frozen=True)
class SetEcho:
    enabled: bool


@dataclass(frozen=True)
class ResetDefaults:
    pass


@dataclass(frozen=True)
class Unknown:
    text: str


AtCommand = Union[Dial, Hangup, SetEcho, ResetDefaults, Unknown]


def parse_at_line(line: str) -> list[AtCommand]:
    """Parse one command line (CR/LF already stripped) into commands.

    Case-insensitive.  The line must begin ``AT``; the remainder is read
    left to right: ``D<dialstring>`` consumes the rest of the line,
    ``H[0]`` hangs up, ``E[0|1]`` sets echo, ``Z`` restores defaults.
    A bare ``AT`` yields an empty list.  An unrecognized character
    collapses everything from that point into one :class:`Unknown`
    command; commands parsed before it are kept, so their side effects
    still apply before the line errors.

    Raises :class:`NotAtPrefixedError` when the line does not start with
    ``AT``; callers turn that into an ERROR result code.
    """
    body = line.strip()
    if body[:2].upper() != "AT":
        raise NotAtPrefixedError(f"line does not begin with AT: {body!r}")
    rest = body[2:]
    commands: list[AtCommand] = []
    i = 0
    while i < len(rest):
        ch = rest[i].upper()
        if ch in " \t":
            i += 1
            continue
        if ch == "D":
            commands.append(Dial(rest[i + 1:].strip()))
            return commands
        if ch == "H":
            i += 1
            if i < len(rest) and rest[i] == "0":
                i += 1
            commands.append(Hangup())
            continue
        if ch == "E":
            i += 1
            # omitted digit means E0, per Hayes convention
            enabled = False
            if i < len(rest) and rest[i] in "01":
                enabled = rest[i] == "1"
                i += 1
            commands.append(SetEcho(enabled))
            continue
        if ch == "Z":
            i += 1
            commands.append(ResetDefaults())
            continue
        commands.append(Unknown(rest[i:]))
        return commands
    return commands


# --- dial plan --------------------------------------------------------------

@dataclass(frozen=True)
class LoopbackTarget:
    pass


@dataclass(frozen=True)
class NoCarrierTarget:
    pass


@dataclass(frozen=True)
class TcpTarget:
    host: str
    port: int


DialTarget = Union[LoopbackTarget, NoCarrierTarget, TcpTarget]

_DIALSTRING_RE = re.compile(r"^[0-9*#]+$")


def _normalize_dialstring(raw: str) -> str:
    """Strip dial modifiers a terminal may add: T/P prefix, separators."""
    s = raw.strip().rstrip(";")
    if s[:1].upper() in ("T", "P"):
        s = s[1:]
    return s.replace(" ", "").replace("-", "")


@dataclass
class DialPlan:
    """Map from dial strings (digits, ``*``, ``#``) to carrier targets.

    The default target answers any number not listed; out of the box that
    is loopback, so dialing anything connects offline.
    """

    entries: dict[str, DialTarget] = field(default_factory=dict)
    default: DialTarget = field(default_factory=LoopbackTarget)

    def __post_init__(self):
        for key in self.entries:
            if not _DIALSTRING_RE.match(key):
                raise MalformedDialPlanError(
                    f"dial string must be digits/*/#, got {key!r}"
                )

    def resolve(self, dialed: str) -> DialTarget:
        return self.entries.get(_normalize_dialstring(dialed), self.default)


def _parse_target(text: str) -> DialTarget:
    text = text.strip()
    if text == "loopback":
        return LoopbackTarget()
    if text == "none":
        return NoCarrierTarget()
    if text.startswith("tcp:"):
        hostport = text[4:]
        host, sep, port = hostport.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise MalformedDialPlanError(f"expected tcp:<host>:<port>, got {text!r}")
        return TcpTarget(host, int(port))
    raise MalformedDialPlanError(f"unknown dial target {text!r}")


def parse_dial_plan(text: str) -> DialPlan:
    """Parse a dial plan document.

    One ``dialstring = loopback | tcp:<host>:<port> | none`` entry per
    line, plus an optional ``default = ...`` line; ``#`` starts a comment.
    """
    entries: dict[str, DialTarget] = {}
    default: DialTarget = LoopbackTarget()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MalformedDialPlanError(f"line {lineno}: expected 'key = target'")
        key = key.strip()
        if not key:
            raise MalformedDialPlanError(f"line {lineno}: empty dial string")
        target = _parse_target(value)
        if key == "default":
            default = target
        elif key in entries:
            raise MalformedDialPlanError(f"line {lineno}: duplicate dial string {key!r}")
        else:
            entries[key] = target
    plan = DialPlan(entries=entries, default=default)
    return plan


def load_dial_plan(path: str) -> DialPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dial_plan(fh.read())


# --- carriers ---------------------------------------------------------------

class LoopbackCarrier:
    """Reflects every byte sent straight back to the receive side."""

    kind = "loopback"
    poll_interval = None  # sent bytes come back within the same pump pass

    def __init__(self):
        self._pending = deque()
        self.connected = True

    def send(self, data: bytes) -> None:
        if data:
            self._pending.append(data)

    def recv(self) -> tuple[bytes, bool]:
        """Return (buffered bytes, remote_closed)."""
        if not self._pending:
            return b"", False
        out = b"".join(self._pending)
        self._pending.clear()
        return out, False

    def close(self) -> None:
        self.connected = False
        self._pending.clear()


class TcpCarrier:
    """Bridges the data-mode byte stream to a TCP connection.

    The socket is serviced by its own transfer threads; the modem (which
    lives on the platform loop) exchanges data with them only through
    queues, which no fd announces, so the loop looks at them every
    ``poll_interval`` seconds.
    """

    kind = "tcp"
    poll_interval = 0.01
    _EOF = None

    def __init__(self, host: str, port: int, connect_timeout: float = 2.0):
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self.connected = True
        self._rx: queue.Queue = queue.Queue(maxsize=64)
        self._tx: queue.Queue = queue.Queue(maxsize=64)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._reader.start()
        self._writer.start()

    def _read_loop(self):
        try:
            while True:
                chunk = self._sock.recv(4096)
                if not chunk:
                    break
                self._rx.put(chunk)
        except OSError:
            pass
        self._rx.put(self._EOF)

    def _write_loop(self):
        try:
            while True:
                chunk = self._tx.get()
                if chunk is self._EOF:
                    break
                self._sock.sendall(chunk)
        except OSError:
            pass

    def send(self, data: bytes) -> None:
        if data and self.connected:
            self._tx.put(data)

    def recv(self) -> tuple[bytes, bool]:
        chunks = []
        closed = False
        while True:
            try:
                chunk = self._rx.get_nowait()
            except queue.Empty:
                break
            if chunk is self._EOF:
                closed = True
                break
            chunks.append(chunk)
        return b"".join(chunks), closed

    def close(self) -> None:
        if not self.connected:
            return
        self.connected = False
        self._tx.put(self._EOF)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


Carrier = Union[LoopbackCarrier, TcpCarrier]


# --- the modem itself -------------------------------------------------------

class Mode(enum.Enum):
    COMMAND = "command"
    DATA = "data"


@dataclass
class FeedResult:
    """Output of one interpreter step."""

    to_app: bytes = b""
    to_carrier: bytes = b""
    events: list = field(default_factory=list)


class Modem:
    """AT interpreter state machine with command and data modes.

    ``clock`` must be a monotonic float-returning callable; tests inject
    a fake one to drive the escape guard time.
    """

    def __init__(self, dial_plan: DialPlan | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 guard_seconds: float = GUARD_SECONDS,
                 connect_timeout: float = 2.0):
        self.dial_plan = dial_plan or DialPlan()
        self.clock = clock
        self.guard_seconds = guard_seconds
        self.connect_timeout = connect_timeout

        self.mode = Mode.COMMAND
        self.echo = True
        self.carrier: Carrier | None = None
        self._line = bytearray()
        self._line_overflow = False
        # escape-sequence progress: withheld '+' count and timing
        self._plus_count = 0
        self._plus_time = 0.0
        self._last_activity = self.clock()

    # -- command execution ---------------------------------------------------

    def execute(self, cmd: AtCommand) -> str:
        """Apply a single parsed command, returning its result code."""
        if isinstance(cmd, Dial):
            return self._dial(cmd.target)
        if isinstance(cmd, Hangup):
            self._drop_carrier()
            return OK
        if isinstance(cmd, SetEcho):
            self.echo = cmd.enabled
            return OK
        if isinstance(cmd, ResetDefaults):
            self._drop_carrier()
            self.echo = True
            self._line.clear()
            self._line_overflow = False
            self._plus_count = 0
            return OK
        return ERROR

    def _dial(self, dialstring: str) -> str:
        if not dialstring:
            return ERROR
        target = self.dial_plan.resolve(dialstring)
        if isinstance(target, NoCarrierTarget):
            return NO_CARRIER
        if isinstance(target, LoopbackTarget):
            self.carrier = LoopbackCarrier()
        else:
            try:
                self.carrier = TcpCarrier(target.host, target.port, self.connect_timeout)
            except OSError:
                return NO_CARRIER
        self.mode = Mode.DATA
        self._plus_count = 0
        self._last_activity = self.clock()
        return CONNECT

    def _drop_carrier(self) -> None:
        if self.carrier is not None:
            self.carrier.close()
            self.carrier = None
        self.mode = Mode.COMMAND

    # -- byte-stream interface ----------------------------------------------

    def feed(self, data: bytes) -> FeedResult:
        """Consume bytes arriving from the application side.

        Command mode accumulates a line until CR (echoing when enabled)
        and appends framed result codes to ``to_app``.  Data mode
        forwards to the carrier, withholding a possible ``+++`` escape
        until its trailing guard silence is decided.
        """
        result = FeedResult()
        if not data:
            return result
        self._check_escape(result)
        if self.mode is Mode.DATA:
            self._feed_data(data, result)
        else:
            self._feed_command(data, result)
        return result

    def _check_escape(self, result: FeedResult) -> None:
        # three withheld '+' followed by guard silence complete the escape
        if (self.mode is Mode.DATA and self._plus_count == 3
                and self.clock() - self._plus_time >= self.guard_seconds):
            self._plus_count = 0
            self.mode = Mode.COMMAND  # carrier stays up, Hayes-style
            result.to_app += frame_result(OK)
            result.events.append({
                "kind": "CommandParsed",
                "line": "+++",
                "commands": ["Escape"],
                "result": OK,
            })

    def _feed_command(self, data: bytes, result: FeedResult) -> None:
        for byte in data:
            if self.echo:
                result.to_app += bytes([byte])
            if byte == CR:
                overflowed = self._line_overflow
                line = self._line.decode("latin-1")
                self._line.clear()
                self._line_overflow = False
                if not overflowed:
                    self._run_line(line, result)
            elif self._line_overflow:
                pass  # discarding until CR
            else:
                self._line.append(byte)
                if len(self._line) > LINE_BUFFER_LIMIT:
                    self._line.clear()
                    self._line_overflow = True
                    result.to_app += frame_result(ERROR)
                    result.events.append({
                        "kind": "CommandParsed",
                        "line": "",
                        "error": "line-overflow",
                        "result": ERROR,
                    })

    def _run_line(self, line: str, result: FeedResult) -> None:
        stripped = line.strip()
        if not stripped:
            return  # bare CR gets no response
        try:
            commands = parse_at_line(stripped)
        except NotAtPrefixedError:
            result.to_app += frame_result(ERROR)
            result.events.append({
                "kind": "CommandParsed",
                "line": stripped,
                "error": "not-at-prefixed",
                "result": ERROR,
            })
            return
        code = OK
        for cmd in commands:
            code = self.execute(cmd)
            if code == ERROR:
                break
        result.to_app += frame_result(code)
        result.events.append({
            "kind": "CommandParsed",
            "line": stripped,
            "commands": [type(c).__name__ for c in commands],
            "result": code,
        })

    def _feed_data(self, data: bytes, result: FeedResult) -> None:
        now = self.clock()
        if self._plus_count:
            # a candidate escape is pending; it survives only if this
            # chunk arrives promptly and extends the '+' run to <= 3
            if (now - self._plus_time < self.guard_seconds
                    and not data.strip(b"+")
                    and self._plus_count + len(data) <= 3):
                self._plus_count += len(data)
                self._plus_time = now
                return
            withheld = b"+" * self._plus_count
            self._plus_count = 0
            self._forward(withheld + data, now, result)
            return
        if (now - self._last_activity >= self.guard_seconds
                and not data.strip(b"+") and len(data) <= 3):
            self._plus_count = len(data)
            self._plus_time = now
            return
        self._forward(data, now, result)

    def _forward(self, data: bytes, now: float, result: FeedResult) -> None:
        self._last_activity = now
        if self.carrier is not None:
            self.carrier.send(data)
        result.to_carrier += data

    def carrier_pump(self) -> FeedResult:
        """Deliver carrier traffic and time-driven transitions.

        Call periodically: completes the ``+++`` escape once the guard
        silence has elapsed, moves carrier-received bytes toward the
        application in data mode, and reports a lost remote as
        NO CARRIER.
        """
        result = FeedResult()
        self._check_escape(result)
        if self.carrier is None or self.mode is not Mode.DATA:
            # while escaped to command mode, carrier traffic stays queued
            return result
        data, closed = self.carrier.recv()
        if data:
            result.to_app += data
        if closed:
            self._drop_carrier()
            result.to_app += frame_result(NO_CARRIER)
        return result

    def pump_timeout(self) -> float | None:
        """Seconds until :meth:`carrier_pump` has work no input brings.

        That is the end of the guard silence after a withheld ``+++``,
        or the carrier's next look for received bytes; None when
        neither is pending.
        """
        if self.carrier is None or self.mode is not Mode.DATA:
            return None
        timeouts = [self.carrier.poll_interval]
        if self._plus_count == 3:
            timeouts.append(max(0.0, self._plus_time + self.guard_seconds - self.clock()))
        return min((t for t in timeouts if t is not None), default=None)

    def close(self) -> None:
        """Shut down any carrier (used when the deployment stops)."""
        self._drop_carrier()
