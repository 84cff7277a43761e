"""OS-visible character-device endpoints backed by pseudo-terminals.

Each active deployment publishes one PTY whose slave node any stock
terminal program can open like serial hardware.  A stable symlink under
the runtime directory gives the node a predictable name.  Publishing
tries the symlink first and looks only when that fails: a dangling link
left by a dead instance is replaced, a removed link directory is made
again, and anything else under the name is a name in use, whereupon the
PTY is closed.  A deploy need not open its PTY while the operator waits:
the platform keeps at most one :class:`SparePty`, which it opens once
after each deploy, at the end of a loop wake-up that answered no control
request.
The deploy that takes the spare polls its master once and uses it only
if that reports hangup alone, so nobody holds its slave open and nobody
has left input in it; otherwise the spare is closed and a fresh PTY
opened.  Shutting the platform down closes a spare no deploy took.
Attachment is sampled from the deploy on, not from when the spare was
opened.  The endpoint has no thread of its own:
whoever pumps the deployment (the platform loop in the daemon, or the
embedding program through ``Platform.pump``) moves its bytes between the
PTY master and the application handle of the deployment's duplex channel,
with backpressure in both directions and no reordering.

While a client is attached, the platform watches the master and a pass
reads it straight away, with no poll first: data is data, ``EAGAIN`` is
nothing, and ``EIO`` says the client has closed the node, which detaches
it.  Output a full PTY holds back waits for the master to report room,
and input the channel has no room for stops the watch for input, so a
client that stops reading costs no pass until it reads again.  A master
with no client reports hangup, not readiness, so until a client attaches,
attachment is sampled on a timer; so it is again once a client has gone
while input is held back, which leaves its last bytes unread.
:meth:`PtyEndpoint.watch` names the master with the events to watch for
and the deadline of the next pass no readiness announces; both change
only when ``PtyEndpoint.version`` moves on.  Withdrawing unpublishes the
node at once and takes no more input.  While an attached client has not
read its tail the master stays open, watched for ``EPOLLOUT`` edges:
the client's reads wake the master's writers, and its close hangs the
master up.  :meth:`PtyEndpoint.linger` looks at each edge, and closes the
master once the client has caught up or ``DRAIN_WAIT`` has passed; what it
then still holds for the client is counted dropped.
"""

from __future__ import annotations

import errno
import logging
import os
import select
import termios
import time
import tty
from json.encoder import encode_basestring_ascii

from .channel import ChannelHandle
from .control import EncodedDict
from .errors import NameInUseError, OsResourceError, ProteusError
from .trace import TraceKind, TraceLog

logger = logging.getLogger(__name__)

CHUNK = 4096
# the Linux tty layer hands a client's write to the master in pieces of
# this size (tty_write's split), so a read that returns a whole piece
# likely has more of the same write queued right behind it
TTY_WRITE_PIECE = 2048
# a master reports hangup, not readiness, while no client holds the
# node open, so attachment is sampled on a timer instead of watched
ATTACH_SAMPLE = 0.05
# how long a withdrawn endpoint lets an attached client read the tail
DRAIN_WAIT = 0.25


def open_pty() -> tuple[int, str]:
    """Open a pseudo-terminal; return its master, non-blocking, and the
    path of its slave node.  The slave is left in raw mode, so the byte
    stream is 8-bit clean (echo and CR/LF framing belong to whatever
    module sits behind the channel), and closed: clients open it by path."""
    try:
        master, slave = os.openpty()  # EMFILE says so, where pty.openpty would not
    except OSError as exc:
        raise OsResourceError(f"cannot allocate pseudo-terminal: {exc}") from exc
    try:
        tty.setraw(slave)
        path = os.ttyname(slave)  # ENODEV if the node is not under /dev
        os.set_blocking(master, False)
    except (OSError, termios.error) as exc:
        os.close(master)
        raise OsResourceError(f"cannot set up pseudo-terminal: {exc}") from exc
    except BaseException:
        os.close(master)
        raise
    finally:
        os.close(slave)
    return master, path


class SparePty:
    """At most one PTY opened ahead of the deploy that takes it.

    :meth:`refill` opens one, once after each :meth:`take`, whenever its
    owner has a moment; :meth:`take` hands it out only while nobody holds
    its slave open and nobody has left input in it, and otherwise closes
    it and opens a fresh one, as it does while there is none.
    """

    def __init__(self):
        self._pty: tuple[int, str] | None = None
        self.wanted = False  # a refill is due: one try per take

    def take(self) -> tuple[int, str]:
        """A PTY for :class:`PtyEndpoint`, which then owns it."""
        spare, self._pty = self._pty, None
        self.wanted = True
        if spare is not None:
            poller = select.poll()
            poller.register(spare[0], select.POLLIN)
            if poller.poll(0) == [(spare[0], select.POLLHUP)]:  # hangup alone
                return spare
            os.close(spare[0])
        return open_pty()

    def refill(self) -> None:
        """Open the spare; out of fds or PTYs, go without until the next take."""
        self.wanted = False
        try:
            self._pty = open_pty()
        except OsResourceError as exc:
            logger.debug("no spare PTY: %s", exc)

    def close(self) -> None:
        """Close the spare, and want no other."""
        self.wanted = False
        if self._pty is not None:
            os.close(self._pty[0])
            self._pty = None


def _publish(node: str, link_dir: str, name: str) -> str:
    """Link ``<link_dir>/<name>`` to ``node``, and return the link's path.

    A dangling link there is a stale leftover from a dead instance and is
    replaced; any other file there is a name in use.  A link directory
    that has been removed is made again.
    """
    link_path = os.path.join(link_dir, name)
    try:
        os.symlink(node, link_path)
        return link_path
    except FileExistsError:
        if os.path.exists(link_path):  # follows the link
            raise NameInUseError(f"endpoint name already published: {name}") from None
        stale = True
    except FileNotFoundError:
        stale = False
    except OSError as exc:
        raise OsResourceError(f"cannot create endpoint link: {exc}") from exc
    try:
        if stale:
            os.unlink(link_path)
        else:
            os.makedirs(link_dir, exist_ok=True)
        os.symlink(node, link_path)
    except OSError as exc:
        raise OsResourceError(f"cannot create endpoint link: {exc}") from exc
    return link_path


class PtyEndpoint:
    """One published endpoint: PTY node and link.

    ``pty`` is a (master, slave node) pair from :func:`open_pty`, which
    the endpoint then owns.  All methods run on the thread that pumps the
    deployment.
    """

    def __init__(self, deployment_id: str, app_handle: ChannelHandle, name: str,
                 link_dir: str, pty: tuple[int, str],
                 trace: TraceLog | None = None):
        self.deployment_id = deployment_id
        self.name = name
        self._handle: ChannelHandle | None = app_handle  # None once withdrawn
        self._trace = trace

        master, self.os_path = pty
        try:
            self.link_path = _publish(self.os_path, link_dir, name)
        except BaseException:
            os.close(master)
            raise
        self._master = master

        self._poller = select.poll()
        self._poller.register(master, select.POLLIN)
        self._attached = False
        self._sessions = 0
        self._sampled_at = time.monotonic()
        self._drain_until: float | None = None  # set once withdrawn
        self.bytes_from_app = 0
        self.bytes_to_app = 0
        self.bytes_dropped = 0
        self._in_pending = b""   # read from PTY, not yet accepted by channel
        self._out_pending = b""  # read from channel, not yet written to PTY
        # True while bytes read from the client wait for channel room,
        # which no readiness announces (see ``Platform.pump``)
        self.holds_input = False
        # what watch() tells changes only when version moves on
        self.version = 0

    # -- client attachment ---------------------------------------------------

    def _sample(self) -> bool:
        """Poll the master once to track attachment; True if it is readable.

        A readable master counts as attached even once hung up: a client
        that wrote and closed the node between two samples had a session,
        and the read that finds its bytes gone ends it.  While input is
        held back, though, or once the endpoint is withdrawn, no read can
        take those bytes, and a hung-up master counts as detached; held
        back, its last bytes then count as a session of their own once
        they can be read.
        """
        if self._master < 0:
            return False
        events = self._poller.poll(0)
        flags = events[0][1] if events else 0
        readable = bool(flags & select.POLLIN)
        self._set_attached(not flags & select.POLLHUP or (
            readable and not self._in_pending and self._handle is not None))
        if not self._attached:
            self._sampled_at = time.monotonic()
            self.version += 1  # the next sample is due later
        return readable

    def _set_attached(self, attached: bool) -> None:
        if attached != self._attached:
            self._attached = attached
            self.version += 1
            if attached:
                self._sessions += 1
            logger.debug("endpoint %s: client %s", self.name,
                         "attached" if attached else "detached")

    @property
    def open_count(self) -> int:
        """1 while a client holds the node open, sampled when read."""
        self._sample()
        return int(self._attached)

    @property
    def sessions(self) -> int:
        """How many times a client has attached, sampled when read."""
        self._sample()
        return self._sessions

    # -- pump ----------------------------------------------------------------

    def pump_once(self) -> tuple[int, int]:
        """Take what the client wrote into the channel, and write on output
        a full PTY held back; returns (in, out) byte counts.

        "in" is PTY toward platform, "out" is platform toward PTY; what
        the platform queues reaches the PTY through :meth:`notify`.
        Partial acceptance on either side leaves a pending remainder and
        stops further intake, so nothing is ever dropped.  With input held
        back, the master is sampled instead of read: a client that has
        gone reports hangup for ever, and no read can find it out.
        """
        accepted = 0
        if self._in_pending:
            self._sample()
        elif self._attached or self._sample():
            try:
                self._in_pending = os.read(self._master, CHUNK)
                if TTY_WRITE_PIECE <= len(self._in_pending) < CHUNK:
                    # only after a whole piece: a read that finds nothing
                    # raises, which would tax every keystroke
                    self._in_pending += os.read(self._master, CHUNK - len(self._in_pending))
            except BlockingIOError:
                pass
            except OSError as exc:
                if exc.errno != errno.EIO:
                    raise
                # the client closed the node: detached, and sampling resumes
                self._set_attached(False)
                self._sampled_at = time.monotonic()
        if self._in_pending:
            try:
                accepted = self._handle.write(self._in_pending)
            except ProteusError:
                # platform side gone; drop what cannot be delivered
                self._drop(len(self._in_pending))
                self._in_pending = b""
            else:
                self.bytes_from_app += accepted
                self._in_pending = self._in_pending[accepted:]
            if bool(self._in_pending) is not self.holds_input:
                self.holds_input = not self.holds_input
                self.version += 1
        return accepted, self._pump_outbound() if self._out_pending else 0

    def _drop(self, count: int) -> None:
        self.bytes_dropped += count
        if self._trace is not None:
            self._trace.emit(TraceKind.DATA_DROPPED, deployment_id=self.deployment_id,
                             bytes=count, where="endpoint")

    def _pump_outbound(self) -> int:
        """Move channel bytes to the PTY until one of them runs dry or full."""
        moved, held = 0, bool(self._out_pending)
        drained = self._handle is None
        while self._out_pending or not drained:
            if not self._out_pending:
                self._out_pending = self._handle.read(CHUNK) or b""
                drained = len(self._out_pending) < CHUNK  # the read emptied the channel
            try:
                n = os.write(self._master, self._out_pending)
            except BlockingIOError:
                n = 0
            except OSError:
                n = len(self._out_pending)  # master defunct; nothing to deliver to
            moved += n
            self.bytes_to_app += n
            self._out_pending = self._out_pending[n:]
            if self._out_pending:
                break
        # what watch() tells changes once output starts or stops being held back
        self.version += held != bool(self._out_pending)
        return moved

    # deliver to the client what the platform has just queued
    notify = _pump_outbound

    # -- what a loop waits on --------------------------------------------------

    def watch(self) -> tuple[tuple[PtyEndpoint, int] | None, float | None]:
        """((endpoint, events), deadline).  While a client is attached, the
        endpoint's master, as :meth:`fileno`, with the ``select.EPOLL*``
        events that call for a pass: ``EPOLLIN`` while input can be taken
        and ``EPOLLOUT`` while a full PTY holds output back; None when
        there are none.  Else the deadline: when, on ``time.monotonic``,
        the next attach sample is due, which no readiness of the master
        announces.  A withdrawn endpoint's master calls for a
        :meth:`linger` look on each ``EPOLLOUT`` edge, and at the
        deadline ``DRAIN_WAIT`` sets."""
        if self._drain_until is not None:
            return (self, select.EPOLLOUT | select.EPOLLET), self._drain_until
        if not self._attached:
            return None, self._sampled_at + ATTACH_SAMPLE
        events = (0 if self._in_pending else select.EPOLLIN) | (
            select.EPOLLOUT if self._out_pending else 0)
        return (self, events) if events else None, None

    def fileno(self) -> int:
        return self._master

    # -- lifecycle -----------------------------------------------------------

    def _client_behind(self) -> bool:
        """True while an attached client has not yet read all it was sent."""
        if not self.open_count:
            return False
        if self._out_pending:
            return True
        try:
            fd = os.open(self.os_path, os.O_RDONLY | os.O_NOCTTY | os.O_NONBLOCK)
        except OSError:
            return False
        try:
            # polling the slave flushes the line discipline first, so
            # bytes written to the master just now are counted
            return bool(select.select([fd], [], [], 0)[0])
        finally:
            os.close(fd)

    def withdraw(self) -> bool:
        """Remove the link and take no more input; True while the master
        stays open for the client to read the tail.

        What the platform already queued is taken from the channel, whose
        handle closes, and written on to the client; input read from the
        client that the channel never took is counted dropped.  Closing the master
        discards whatever the client has not read yet, so an attached
        client that is behind keeps it open until :meth:`linger` closes it.
        """
        try:
            os.unlink(self.link_path)
        except OSError:
            pass
        handle, self._handle = self._handle, None
        while handle.readable:  # at most the channel's capacity
            self._out_pending += handle.read(CHUNK)
        handle.close()
        if self._in_pending:  # read from the client, never to reach the platform
            self._drop(len(self._in_pending))
            self._in_pending = b""
        self._drain_until = time.monotonic() + DRAIN_WAIT
        return self.linger()

    def linger(self) -> bool:
        """One look at a withdrawn endpoint: write on what the client is
        owed, and close the master once it has read everything or
        ``DRAIN_WAIT`` has passed, counting dropped what it could not
        write.  True while the master stays open; a connected client
        observes hangup once it closes."""
        self._pump_outbound()
        if time.monotonic() < self._drain_until and self._client_behind():
            return True
        if self._out_pending:  # a full PTY held it back until the end
            self._drop(len(self._out_pending))
            self._out_pending = b""
        os.close(self._master)
        self._master = -1
        self._attached = False
        return False

    def snapshot(self) -> EncodedDict:
        """The endpoint's ``status`` entry, with its text; it samples
        attachment."""
        open_count = self.open_count  # first: a sample can count a session
        entry = {
            "name": self.name,
            "path": self.os_path,
            "link": self.link_path,
            "open_count": open_count,
            "sessions": self._sessions,
            "bytes_from_app": self.bytes_from_app,
            "bytes_to_app": self.bytes_to_app,
            "bytes_dropped": self.bytes_dropped,
        }
        name, path, link = map(encode_basestring_ascii, (self.name, self.os_path, self.link_path))
        return EncodedDict(entry, (
            '{"name": %s, "path": %s, "link": %s, "open_count": %d, "sessions": %d, '
            '"bytes_from_app": %d, "bytes_to_app": %d, "bytes_dropped": %d}' % (
                name, path, link, open_count, self._sessions, self.bytes_from_app,
                self.bytes_to_app, self.bytes_dropped)).encode())
