"""Hayes-style virtual modem: AT command interpreter plus data-mode carrier.

The interpreter accepts CR-terminated command lines, answers with verbose
result codes framed ``\\r\\n<code>\\r\\n``, and switches to data mode on a
successful dial.  In data mode bytes flow to the active carrier (loopback
by default, or a TCP bridge picked by the dial plan) and the classic
``+++`` escape, guarded by one second of silence on both sides, drops
back to command mode.  The clock is injectable so guard timing is
deterministic under test.

The modem has no thread: a TCP carrier's socket is non-blocking, and
whoever pumps the modem moves its bytes in :meth:`Modem.carrier_pump`.
:meth:`Modem.watch` names the socket and the epoll events to wait for,
and :meth:`Modem.pump_timeout` the deadline no fd announces.  A TCP dial
is answered once the connect is decided; until then, and while
``CARRIER_CHUNK`` bytes wait for the peer, :meth:`Modem.accepts_input`
is False and input waits upstream.  Name lookup of a host that is not
numeric still blocks.
"""

from __future__ import annotations

import enum
import errno
import os
import re
import select
import socket
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
# bytes a TCP carrier reads per pass, and holds for a peer that does not
# take them before the modem takes no more input
CARRIER_CHUNK = 4096


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

    backlog = b""  # the far end takes every byte at once

    def __init__(self):
        self._pending = deque()

    def connect_outcome(self) -> bool:
        return True

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
        self._pending.clear()


class TcpCarrier:
    """Bridges the data-mode byte stream to a TCP connection.

    The socket is non-blocking and connects in the background;
    :meth:`connect_outcome` tells once that is decided.  Bytes the peer
    does not take yet wait in ``backlog``.
    """

    def __init__(self, host: str, port: int):
        family, kind, proto, _, address = socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM)[0]
        self._sock = socket.socket(family, kind, proto)
        self._sock.setblocking(False)
        err = self._sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS):
            self._sock.close()
            raise OSError(err, os.strerror(err))
        self._poller = select.poll()
        self._poller.register(self._sock, select.POLLOUT)
        self.backlog = bytearray()

    def fileno(self) -> int:
        return self._sock.fileno()

    def connect_outcome(self) -> bool | None:
        """None while the connect is pending, else whether it succeeded."""
        if not self._poller.poll(0):
            return None
        return self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0

    def send(self, data: bytes) -> None:
        """Queue ``data``; :meth:`recv` sends it."""
        self.backlog += data

    def recv(self) -> tuple[bytes, bool]:
        """Send what the peer now takes of the backlog, then return
        (up to ``CARRIER_CHUNK`` received bytes, remote_closed)."""
        if self.backlog:
            try:
                del self.backlog[:self._sock.send(self.backlog)]
            except BlockingIOError:
                pass
            except OSError:
                self.backlog.clear()  # the peer is gone, as recv reports
        try:
            data = self._sock.recv(CARRIER_CHUNK)
        except BlockingIOError:
            return b"", False
        except OSError:
            return b"", True  # reset by the peer
        return data, not data

    def close(self) -> None:
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
        # a TCP dial awaiting its outcome: the dial line's event, the
        # deadline, and the input that came after the line
        self._dial_event: dict | None = None
        self._dial_deadline = 0.0
        self._held = b""
        self._line = bytearray()
        self._line_overflow = False
        # escape-sequence progress: withheld '+' count and timing
        self._plus_count = 0
        self._plus_time = 0.0
        self._last_activity = self.clock()

    # -- command execution ---------------------------------------------------

    def execute(self, cmd: AtCommand) -> str | None:
        """Apply a single parsed command, returning its result code.

        None means a dial whose result code comes with its outcome.
        """
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

    def _dial(self, dialstring: str) -> str | None:
        if not dialstring:
            return ERROR
        self._drop_carrier()  # a call held since +++ ends here
        target = self.dial_plan.resolve(dialstring)
        if isinstance(target, NoCarrierTarget):
            return NO_CARRIER
        try:
            self.carrier = (LoopbackCarrier() if isinstance(target, LoopbackTarget)
                            else TcpCarrier(target.host, target.port))
        except OSError:
            return NO_CARRIER
        self._dial_deadline = self.clock() + self.connect_timeout
        return None

    def _drop_carrier(self) -> None:
        if self.carrier is not None:
            self.carrier.close()
            self.carrier = None
        self._dial_event = None
        self.mode = Mode.COMMAND

    # -- byte-stream interface ----------------------------------------------

    def feed(self, data: bytes) -> FeedResult:
        """Consume bytes arriving from the application side.

        Command mode accumulates a line until CR (echoing when enabled)
        and appends framed result codes to ``to_app``.  Data mode
        forwards to the carrier, withholding a possible ``+++`` escape
        until its trailing guard silence is decided.  Input after a TCP
        dial line waits for the dial's outcome.
        """
        result = FeedResult()
        if data:
            self._check_escape(result)
            self._consume(data, result)
        return result

    def _consume(self, data: bytes, result: FeedResult) -> None:
        if self._dial_event is not None:
            self._held += data
        elif self.mode is Mode.DATA:
            self._feed_data(data, result)
        else:
            self._feed_command(data, result)

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
        for i, byte in enumerate(data):
            if self.echo:
                result.to_app += bytes([byte])
            if byte == CR:
                overflowed = self._line_overflow
                line = self._line.decode("latin-1")
                self._line.clear()
                self._line_overflow = False
                if not overflowed:
                    self._run_line(line, result)
                    if self.mode is Mode.DATA or self._dial_event is not None:
                        self._consume(data[i + 1:], result)  # no longer commands
                        return
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
        event = {
            "kind": "CommandParsed",
            "line": stripped,
            "commands": [type(c).__name__ for c in commands],
            "result": code,
        }
        if code is None:
            self._dial_event = event  # answered with the dial's outcome
            self._answer_dial(result)  # a loopback or local one is known at once
            return
        result.to_app += frame_result(code)
        result.events.append(event)

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

        Call when the fd :meth:`watch` names is ready, or when
        :meth:`pump_timeout` runs out: answers a pending dial once its
        connect succeeds, fails or times out, completes the ``+++``
        escape once the guard silence has elapsed, sends what the peer
        takes, moves received bytes toward the application in data mode,
        and reports a lost remote as NO CARRIER.
        """
        result = FeedResult()
        self._check_escape(result)
        if self._dial_event is not None:
            self._answer_dial(result)
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

    def _answer_dial(self, result: FeedResult) -> None:
        connected = self.carrier.connect_outcome()
        if connected is None and self.clock() < self._dial_deadline:
            return
        event, self._dial_event = self._dial_event, None
        if connected:
            self.mode = Mode.DATA
            self._plus_count = 0
            self._last_activity = self.clock()
        else:
            self._drop_carrier()
        event["result"] = CONNECT if connected else NO_CARRIER
        result.to_app += frame_result(event["result"])
        result.events.append(event)
        held, self._held = self._held, b""
        if held:
            self._consume(held, result)

    def accepts_input(self) -> bool:
        """False while a dial awaits its outcome, or while the peer has
        not taken ``CARRIER_CHUNK`` bytes sent to it."""
        return self._dial_event is None and not (
            self.mode is Mode.DATA and len(self.carrier.backlog) >= CARRIER_CHUNK)

    def watch(self, room: bool) -> tuple[TcpCarrier, int] | None:
        """The TCP carrier and the ``select.EPOLL*`` events on its fd that
        call for :meth:`carrier_pump`; None when there are none.

        That is the outcome of a pending connect, room for the backlog,
        and, in data mode while ``room`` says the output can take more,
        received bytes.
        """
        carrier = self.carrier
        if not isinstance(carrier, TcpCarrier):
            return None
        online = self.mode is Mode.DATA
        events = select.EPOLLIN if online and room else 0
        if self._dial_event is not None or online and carrier.backlog:
            events |= select.EPOLLOUT
        return (carrier, events) if events else None

    def pump_timeout(self) -> float | None:
        """Seconds until :meth:`carrier_pump` has work that neither input
        nor the carrier's fd brings.

        That is the connect timeout of a pending dial, or the end of the
        guard silence after a withheld ``+++``; None when neither is
        pending.
        """
        if self._dial_event is not None:
            deadline = self._dial_deadline
        elif self.mode is Mode.DATA and self._plus_count == 3:
            deadline = self._plus_time + self.guard_seconds
        else:
            return None
        return max(0.0, deadline - self.clock())

    def close(self) -> None:
        """Shut down any carrier (used when the deployment stops)."""
        self._drop_carrier()
