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
and :meth:`Modem.deadline` the time no fd announces.  A TCP dial
is answered once the connect is decided; until then, and while
``CARRIER_CHUNK`` bytes wait for the peer, ``Modem.accepts_input`` is
False and input waits upstream.  What these tell changes only when
``Modem.version`` moves on, so a pump need not ask after every step.
A dial plan's host names are looked up once, when the plan is parsed,
so a dial makes no name lookup and a TCP carrier dials only numeric
addresses.
"""

from __future__ import annotations

import enum
import errno
import functools
import os
import re
import select
import socket
import time
from collections import deque
from typing import Callable, NamedTuple, Union

from .errors import MalformedDialPlanError, NotAtPrefixedError

OK = "OK"
ERROR = "ERROR"
CONNECT = "CONNECT"
NO_CARRIER = "NO CARRIER"

LINE_BUFFER_LIMIT = 256
GUARD_SECONDS = 1.0
# bytes a TCP carrier reads per pass, holds for a peer that does not
# take them before the modem takes no more input, and asks its socket's
# send buffer to hold
CARRIER_CHUNK = 4096


def frame_result(code: str) -> bytes:
    """Verbose result-code framing: CR LF <code> CR LF."""
    return b"\r\n" + code.encode("ascii") + b"\r\n"


class _Value:
    """Base of the parsed commands and the dial targets without a port:
    immutable, and equal to (and hashed like) an instance of the very
    same type whose ``__slots__`` hold equal values.  Not a tuple, so
    values of two types never compare equal, however alike their fields:
    ``Hangup() != ResetDefaults()`` and ``Dial("1") != Unknown("1")``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


# --- parsed AT commands -----------------------------------------------------

class Dial(_Value):
    __slots__ = ("target",)

    def __init__(self, target: str):
        object.__setattr__(self, "target", target)


class Hangup(_Value):
    __slots__ = ()


class SetEcho(_Value):
    __slots__ = ("enabled",)

    def __init__(self, enabled: bool):
        object.__setattr__(self, "enabled", enabled)


class ResetDefaults(_Value):
    __slots__ = ()


class Unknown(_Value):
    __slots__ = ("text",)

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)


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

class LoopbackTarget(_Value):
    __slots__ = ()


class NoCarrierTarget(_Value):
    __slots__ = ()


class TcpTarget(NamedTuple):
    host: str  # numeric, once parsed: a plan looks its names up
    port: int


DialTarget = Union[LoopbackTarget, NoCarrierTarget, TcpTarget]

_DIALSTRING_RE = re.compile(r"^[0-9*#]+$")


def _normalize_dialstring(raw: str) -> str:
    """Strip dial modifiers a terminal may add: T/P prefix, separators."""
    s = raw.strip().rstrip(";")
    if s[:1].upper() in ("T", "P"):
        s = s[1:]
    return s.replace(" ", "").replace("-", "")


class DialPlan(NamedTuple("DialPlan", [("entries", dict), ("default", DialTarget)])):
    """Map from dial strings (digits, ``*``, ``#``) to carrier targets.

    The default target answers any number not listed; out of the box that
    is loopback, so dialing anything connects offline.  Immutable: the
    modems that dial by one plan file share one parsed plan.  ``entries``
    defaults to a fresh dict.
    """

    __slots__ = ()

    def __new__(cls, entries: dict[str, DialTarget] | None = None,
                default: DialTarget | None = None):
        entries = {} if entries is None else entries
        for key in entries:
            if not _DIALSTRING_RE.match(key):
                raise MalformedDialPlanError(
                    f"dial string must be digits/*/#, got {key!r}"
                )
        return tuple.__new__(cls, (entries, LoopbackTarget() if default is None else default))

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
        if (not sep or not host or not (port.isascii() and port.isdigit())
                or not 1 <= int(port) <= 65535):
            raise MalformedDialPlanError(
                f"expected tcp:<host>:<port> with a port in 1-65535, got {text!r}")
        try:
            address = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][4]
        except (OSError, UnicodeError) as exc:  # UnicodeError: a name it cannot encode
            raise MalformedDialPlanError(f"cannot look up the host in {text!r}: {exc}") from exc
        return TcpTarget(address[0], int(port))
    raise MalformedDialPlanError(f"unknown dial target {text!r}")


def parse_dial_plan(text: str) -> DialPlan:
    """Parse a dial plan document.

    One ``dialstring = loopback | tcp:<host>:<port> | none`` entry per
    line, plus an optional ``default = ...`` line; ``#`` starts a comment.
    Each host is looked up now, and its target holds the first address
    found; a host that does not resolve makes the plan malformed.
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
    """Read the plan at ``path`` afresh, and parse it unless these very
    bytes were parsed before: an edited plan takes effect at once, and
    an unchanged one costs a read."""
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        data = b""
        while chunk := os.read(fd, 65536):
            data += chunk
    finally:
        os.close(fd)
    return _parse_plan_bytes(data)


@functools.lru_cache(maxsize=8)  # a daemon's modules use a few plans
def _parse_plan_bytes(data: bytes) -> DialPlan:
    return parse_dial_plan(data.decode("utf-8"))


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

    ``host`` must be a numeric address, as a parsed plan holds: the
    carrier looks no name up.  The socket is non-blocking and connects
    in the background; :meth:`connect_outcome` tells once that is
    decided.  Bytes the peer does not take yet wait in ``backlog``; the
    socket's send buffer is kept to ``CARRIER_CHUNK``, so a peer that
    stops reading holds the client back within a few of them.
    """

    def __init__(self, host: str, port: int):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        socket.inet_pton(family, host.partition("%")[0])  # OSError unless numeric
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, CARRIER_CHUNK)
        self._sock.setblocking(False)
        err = self._sock.connect_ex((host, port))
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
                pass  # the peer is gone, as recv reports; the backlog goes with the carrier
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


class FeedResult:
    """Output of one interpreter step; ``events`` holds the detail of
    each command line it answered, traced as ``CommandParsed``, and
    ``dropped`` counts the bytes for the peer that a carrier took with it
    when it went down."""

    __slots__ = ("to_app", "to_carrier", "events", "dropped")

    def __init__(self, to_app: bytes = b"", to_carrier: bytes = b"",
                 events: list | None = None):
        self.to_app = to_app
        self.to_carrier = to_carrier
        self.events = [] if events is None else events
        self.dropped = 0


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
        self._dropped = 0  # backlog of a dropped carrier, for the next FeedResult
        self._line = bytearray()
        self._line_overflow = False
        # escape-sequence progress: withheld '+' count and timing
        self._plus_count = 0
        self._plus_time = 0.0
        self._last_activity = self.clock()
        # what watch(), deadline() and accepts_input tell changes only
        # when version moves on (see _changed)
        self.version = 0
        self.accepts_input = True

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
        except OSError:  # out of fds, or a host that is not numeric
            return NO_CARRIER
        self._dial_deadline = self.clock() + self.connect_timeout
        return None

    def _drop_carrier(self) -> None:
        if self.carrier is not None:
            self._dropped += len(self.carrier.backlog)
            self.carrier.close()
            self.carrier = None
            self._dial_event = None
            self.mode = Mode.COMMAND  # both go with the carrier
            self._changed()

    def _changed(self) -> None:
        """What :meth:`watch` or :meth:`deadline` tell may have changed:
        move ``version`` on and work out ``accepts_input`` afresh."""
        self.version += 1
        self.accepts_input = self._dial_event is None and not (
            self.mode is Mode.DATA and len(self.carrier.backlog) >= CARRIER_CHUNK)

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
            if self._plus_count == 3:
                self._check_escape(result)
            self._consume(data, result)
            if self._dropped:
                result.dropped, self._dropped = self._dropped, 0
        return result

    def _consume(self, data: bytes, result: FeedResult) -> None:
        if self._dial_event is not None:
            self._held += data
        elif self.mode is Mode.DATA:
            self._feed_data(data, result)
        else:
            self._feed_command(data, result)

    def _check_escape(self, result: FeedResult) -> None:
        # three withheld '+' followed by guard silence complete the escape;
        # the sum is the one deadline() returns, so a pass at it completes it
        if (self.mode is Mode.DATA
                and self.clock() >= self._plus_time + self.guard_seconds):
            self._plus_count = 0
            self.mode = Mode.COMMAND  # carrier stays up, Hayes-style
            self._changed()
            result.to_app += frame_result(OK)
            result.events.append({
                "line": "+++",
                "commands": ["Escape"],
                "result": OK,
            })

    def _feed_command(self, data: bytes, result: FeedResult) -> None:
        start = 0  # data[:start] is echoed, or was typed with echo off
        while True:
            end = data.find(b"\r", start)
            stop = len(data) if end < 0 else end
            if not self._line_overflow:
                room = LINE_BUFFER_LIMIT - len(self._line)
                if stop - start > room:
                    # the byte past the limit overflows the line; the rest
                    # is discarded until CR
                    cut = start + room + 1
                    if self.echo:
                        result.to_app += data[start:cut]
                    start = cut
                    self._line.clear()
                    self._line_overflow = True
                    result.to_app += frame_result(ERROR)
                    result.events.append({
                        "line": "",
                        "error": "line-overflow",
                        "result": ERROR,
                    })
                else:
                    self._line += data[start:stop]
            if self.echo:
                result.to_app += data[start:stop + 1]  # through the CR, if any
            if end < 0:
                return
            start = end + 1
            overflowed = self._line_overflow
            line = self._line.decode("latin-1")
            self._line.clear()
            self._line_overflow = False
            if not overflowed:
                self._run_line(line, result)
                if self.mode is Mode.DATA or self._dial_event is not None:
                    self._consume(data[start:], result)  # no longer commands
                    return

    def _run_line(self, line: str, result: FeedResult) -> None:
        stripped = line.strip()
        if not stripped:
            return  # bare CR gets no response
        try:
            commands = parse_at_line(stripped)
        except NotAtPrefixedError:
            result.to_app += frame_result(ERROR)
            result.events.append({
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
            "line": stripped,
            "commands": [type(c).__name__ for c in commands],
            "result": code,
        }
        if code is None:
            self._dial_event = event  # answered with the dial's outcome
            self._changed()
            self._answer_dial(result)  # a loopback or local one is known at once
            return
        result.to_app += frame_result(code)
        result.events.append(event)

    def _feed_data(self, data: bytes, result: FeedResult) -> None:
        now = self.clock()
        # up to three '+' after guard silence are withheld as a candidate
        # escape, which survives only a chunk that promptly extends it
        if (now - self._plus_time < self.guard_seconds if self._plus_count
                else now - self._last_activity >= self.guard_seconds) and (
                not data.strip(b"+") and self._plus_count + len(data) <= 3):
            self._plus_count += len(data)
            self._plus_time = now
            self._changed()
            return
        if self._plus_count:  # the run is broken: it goes first
            data = b"+" * self._plus_count + data
            self._plus_count = 0
            self._changed()
        self._last_activity = now
        self.carrier.send(data)
        result.to_carrier += data
        if self.carrier.backlog:  # a TCP peer has not taken it yet
            self._changed()

    def carrier_pump(self) -> FeedResult:
        """Deliver carrier traffic and time-driven transitions.

        Call when the fd :meth:`watch` names is ready, or at
        :meth:`deadline`: answers a pending dial once its
        connect succeeds, fails or times out, completes the ``+++``
        escape once the guard silence has elapsed, sends what the peer
        takes, moves received bytes toward the application in data mode,
        and reports a lost remote as NO CARRIER.
        """
        result = FeedResult()
        if self._plus_count == 3:
            self._check_escape(result)
        if self._dial_event is not None:
            self._answer_dial(result)
        if self.carrier is None or self.mode is not Mode.DATA:
            # while escaped to command mode, carrier traffic stays queued
            return result
        sent = bool(self.carrier.backlog)  # recv sends what the peer takes
        data, closed = self.carrier.recv()
        if data:
            result.to_app += data
        if closed:
            self._drop_carrier()
            result.to_app += frame_result(NO_CARRIER)
        elif sent:
            self._changed()
        if self._dropped:
            result.dropped, self._dropped = self._dropped, 0
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
            self._changed()
        else:
            self._drop_carrier()
        event["result"] = CONNECT if connected else NO_CARRIER
        result.to_app += frame_result(event["result"])
        result.events.append(event)
        held, self._held = self._held, b""
        if held:
            self._consume(held, result)

    def watch(self) -> tuple[TcpCarrier, int] | None:
        """The TCP carrier and the ``select.EPOLL*`` events on its fd that
        call for :meth:`carrier_pump`; None when there are none.

        That is the outcome of a pending connect, room for the backlog,
        and, in data mode, received bytes.  Wait on them only while the
        modem's output has room: :meth:`carrier_pump` needs it.
        """
        carrier = self.carrier
        if not isinstance(carrier, TcpCarrier):
            return None
        online = self.mode is Mode.DATA
        events = select.EPOLLIN if online else 0
        if self._dial_event is not None or online and carrier.backlog:
            events |= select.EPOLLOUT
        return (carrier, events) if events else None

    def deadline(self) -> float | None:
        """When, on the modem's clock, :meth:`carrier_pump` has work that
        neither input nor the carrier's fd brings.

        That is the connect timeout of a pending dial, or the end of the
        guard silence after a withheld ``+++``; None when neither is
        pending.  It changes only when input or a pump changes the state.
        """
        if self._dial_event is not None:
            return self._dial_deadline
        if self.mode is Mode.DATA and self._plus_count == 3:
            return self._plus_time + self.guard_seconds
        return None

    def close(self) -> int:
        """Shut down any carrier (used when the deployment stops), and
        return the bytes for the peer that it took with it."""
        self._drop_carrier()
        dropped, self._dropped = self._dropped, 0
        return dropped
