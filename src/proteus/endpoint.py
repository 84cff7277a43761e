"""OS-visible character-device endpoints backed by pseudo-terminals.

Each active deployment publishes one PTY whose slave node any stock
terminal program can open like serial hardware.  A stable symlink under
the runtime directory gives the node a predictable name.  The endpoint
has no thread of its own: whoever pumps the deployment (the platform
loop in the daemon, or the embedding program through
``Platform.pump``) moves its bytes between the PTY master and the
application handle of the deployment's duplex channel, with
backpressure in both directions and no reordering.  ``watch_fd`` and
``pump_timeout`` tell a loop when the endpoint next needs a pass.
"""

from __future__ import annotations

import errno
import logging
import os
import pty
import select
import time
import tty
from pathlib import Path

from .channel import ChannelHandle
from .errors import NameInUseError, OsResourceError, ProteusError
from .trace import TraceKind, TraceLog

logger = logging.getLogger(__name__)

CHUNK = 4096
# a master reports hangup, not readiness, while no client holds the
# node open, so attachment is sampled on a timer instead of watched
ATTACH_SAMPLE = 0.05
# retry interval for bytes held back by a full PTY or channel
BACKLOG_POLL = 0.01
# how long withdraw lets an attached client read the tail of the stream
DRAIN_WAIT = 0.25


class PtyEndpoint:
    """One published endpoint: PTY node and link.

    The slave is left in raw mode so the byte stream is 8-bit clean;
    echo and CR/LF framing belong to whatever module sits behind the
    channel.  All methods run on the thread that pumps the deployment.
    """

    def __init__(self, deployment_id: str, app_handle: ChannelHandle, name: str,
                 link_dir: Path, trace: TraceLog | None = None):
        self.deployment_id = deployment_id
        self.name = name
        self._handle = app_handle
        self._trace = trace

        link_dir = Path(link_dir)
        link_path = link_dir / name
        if link_path.is_symlink() or link_path.exists():
            if link_path.is_symlink() and not link_path.exists():
                link_path.unlink()  # stale leftover from a dead instance
            else:
                raise NameInUseError(f"endpoint name already published: {name}")
        try:
            link_dir.mkdir(parents=True, exist_ok=True)
            master, slave = pty.openpty()
        except OSError as exc:
            raise OsResourceError(f"cannot allocate pseudo-terminal: {exc}") from exc
        try:
            tty.setraw(slave)
            self.os_path = os.ttyname(slave)
        finally:
            os.close(slave)
        os.set_blocking(master, False)
        self._master = master
        try:
            os.symlink(self.os_path, link_path)
        except OSError as exc:
            os.close(master)
            raise OsResourceError(f"cannot create endpoint link: {exc}") from exc
        self.link_path = link_path

        self._poller = select.poll()
        self._poller.register(master, select.POLLIN)
        self._attached = False
        self._sessions = 0
        self._sampled_at = time.monotonic()
        self.bytes_from_app = 0
        self.bytes_to_app = 0
        self.bytes_dropped = 0
        self._in_pending = b""   # read from PTY, not yet accepted by channel
        self._out_pending = b""  # read from channel, not yet written to PTY

    # -- client attachment ---------------------------------------------------

    def _sample(self) -> bool:
        """Poll the master once to track attachment; True if it is readable."""
        if self._master < 0:
            return False
        events = self._poller.poll(0)
        flags = events[0][1] if events else 0
        attached = not flags & select.POLLHUP
        if attached != self._attached:
            self._attached = attached
            if attached:
                self._sessions += 1
            logger.debug("endpoint %s: client %s", self.name,
                         "attached" if attached else "detached")
        self._sampled_at = time.monotonic()
        return bool(flags & select.POLLIN)

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
        """One bounded pass both directions; returns (in, out) byte counts.

        "in" is PTY toward platform, "out" is platform toward PTY.
        Partial acceptance on either side leaves a pending remainder and
        stops further intake, so nothing is ever dropped.
        """
        readable = self._sample()
        return self._pump_inbound(readable), self._pump_outbound()

    def notify(self) -> None:
        """Deliver to the client what the platform has just queued."""
        self._pump_outbound()

    def _pump_inbound(self, readable: bool) -> int:
        if not self._in_pending and readable:
            try:
                self._in_pending = os.read(self._master, CHUNK)
            except BlockingIOError:
                pass
            except OSError as exc:
                if exc.errno != errno.EIO:  # EIO: client side fully closed
                    raise
        if not self._in_pending:
            return 0
        try:
            accepted = self._handle.write(self._in_pending)
        except ProteusError:
            # platform side gone; drop what cannot be delivered
            self.bytes_dropped += len(self._in_pending)
            if self._trace is not None:
                self._trace.emit(TraceKind.DATA_DROPPED, deployment_id=self.deployment_id,
                                 bytes=len(self._in_pending), where="endpoint")
            self._in_pending = b""
            return 0
        self.bytes_from_app += accepted
        self._in_pending = self._in_pending[accepted:]
        return accepted

    def _pump_outbound(self) -> int:
        """Move channel bytes to the PTY until one of them runs dry or full."""
        moved = 0
        while True:
            if not self._out_pending:
                try:
                    data = self._handle.read(CHUNK)
                except ProteusError:
                    data = None
                if not data:
                    return moved
                self._out_pending = data
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
                return moved

    # -- what a loop waits on --------------------------------------------------

    def watch_fd(self) -> int | None:
        """The master while a client is attached and input can be taken."""
        if self._attached and not self._in_pending:
            return self._master
        return None

    def pump_timeout(self) -> float | None:
        """Seconds until a pass is due that no readiness of the master announces."""
        if not self._attached:
            return max(0.0, self._sampled_at + ATTACH_SAMPLE - time.monotonic())
        if self._in_pending or self._out_pending:
            return BACKLOG_POLL
        return None

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

    def withdraw(self) -> None:
        """Remove the node and link; a connected client observes hangup.

        What the platform already queued is delivered first.  Closing
        the master discards whatever the client has not read yet, so an
        attached reader gets a bounded moment to catch up.
        """
        deadline = time.monotonic() + DRAIN_WAIT
        self._pump_outbound()
        while self._client_behind() and time.monotonic() < deadline:
            time.sleep(0.005)
            self._pump_outbound()
        self._handle.close()
        os.close(self._master)
        self._master = -1
        self._attached = False
        try:
            self.link_path.unlink()
        except OSError:
            pass

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "path": self.os_path,
            "link": str(self.link_path),
            "open_count": self.open_count,
            "sessions": self._sessions,
            "bytes_from_app": self.bytes_from_app,
            "bytes_to_app": self.bytes_to_app,
            "bytes_dropped": self.bytes_dropped,
        }
