"""Platform daemon: the single event loop plus the control socket server.

All platform work runs on one loop thread: the control requests, the
trace streams, and the pump passes that move every deployment's bytes
between its PTY, its module and its TCP carrier.  The daemon has no
other thread, whatever it serves.  The loop blocks in one epoll on a
wake eventfd, the PTY master of every attached endpoint, the socket of
every TCP carrier, the control listener and every control connection,
with a timeout only while a pass is due that no fd announces (see
:meth:`proteus.core.Platform.pump_timeout`).  Each wake-up serves the
control connections that are ready, then pumps only the deployments
whose fd fired; once that deadline has passed, or after
:meth:`PlatformLoop.kick`, it pumps every active deployment once, so a
busy neighbour cannot hold back a pass that is due.  Last, it tops up
each trace follower's output from the trace log.  A control request
reaches the platform through :meth:`PlatformLoop.call`, which runs in
place on the loop thread; other threads (tests, embedders) still hand
their calls to the loop.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import select
import socket
import threading
import time
from collections import deque
from pathlib import Path

from .control import encode_response, parse_request
from .core import Platform, Policy
from .errors import (
    AlreadyRunningError,
    DeploymentNotActiveError,
    ProteusError,
    ProtocolError,
    RequestTooLongError,
    TooManyClientsError,
)
from .paths import default_socket_path

logger = logging.getLogger(__name__)

MAX_LINE = 64 * 1024  # longest request line served, without its newline
MAX_CLIENTS = 64  # control connections served at once
RECV_SIZE = 64 * 1024


class _Call:
    def __init__(self, fn):
        self.fn = fn
        self.done = threading.Event()
        self.result = None
        self.error = None


class PlatformLoop:
    """Owns the platform; everything mutating runs on this one thread."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self._calls: deque[_Call] = deque()
        self._kicked = False
        self._wake = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._wake_lock = threading.Lock()  # no write once stop closed it
        self._epoll = select.epoll()
        self._epoll.register(self._wake, select.EPOLLIN)
        self._watched: dict[int, tuple] = {}  # as Platform.watch_fds gave it
        # registered fd -> the deployment it pumps, or the handler it calls;
        # a closed fd whose number was reused belongs to its new owner
        self._owner: dict[int, object] = {}
        self.after_wake = lambda: None  # runs on the loop thread after each wake-up's pumps
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="platform-loop",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def call(self, fn, timeout: float = 30.0):
        """Run ``fn`` on the loop thread and return its result.

        On the loop thread itself, as for a control request, ``fn`` runs
        in place.
        """
        if threading.current_thread() is self._thread:
            return fn()
        if not self._thread.is_alive():
            raise RuntimeError("platform loop is not running")
        call = _Call(fn)
        self._calls.append(call)
        self._wake_up()
        if not call.done.wait(timeout):
            raise TimeoutError("platform loop did not answer")
        if call.error is not None:
            raise call.error
        return call.result

    def kick(self) -> None:
        """Ask the loop for a pump pass now; safe from any thread, coalesces."""
        self._kicked = True
        self._wake_up()

    def register(self, fd: int, handler) -> None:
        """Call ``handler()`` whenever ``fd`` is readable, or as :meth:`modify` says.

        This, :meth:`modify` and :meth:`unregister` run on the loop
        thread.  A handler may be called when ``fd`` is not ready after
        all, for a closed fd whose number it reused.
        """
        self._epoll.register(fd, select.EPOLLIN)
        self._owner[fd] = handler

    def modify(self, fd: int, events: int) -> None:
        self._epoll.modify(fd, events)

    def unregister(self, fd: int) -> None:
        del self._owner[fd]
        self._epoll.unregister(fd)

    def _wake_up(self) -> None:
        with self._wake_lock:
            if self._wake < 0:
                raise RuntimeError("platform loop has stopped")
            os.eventfd_write(self._wake, 1)

    def _run(self) -> None:
        platform = self.platform
        # when a pass over every deployment is due; kept across wake-ups
        # that pump only what fired, since some timeouts are relative
        deadline = None
        while not self._stop.is_set():
            timeout = platform.pump_timeout()
            now = time.monotonic()
            if timeout is None:
                deadline = None  # nothing is due any more
            elif deadline is None or now + timeout < deadline:
                deadline = now + timeout
            events = self._epoll.poll(-1 if deadline is None else max(0.0, deadline - now))
            fired = {}  # the deployments to pump, once each, in order
            for fd, _ in events:
                owner = self._owner.get(fd)
                if fd == self._wake:
                    os.eventfd_read(self._wake)
                elif isinstance(owner, str):
                    fired[owner] = None
                elif owner is not None:  # None: unregistered by a handler above
                    owner()
            due = self._kicked or (deadline is not None
                                   and (not events or time.monotonic() >= deadline))
            while self._calls:
                call = self._calls.popleft()
                try:
                    call.result = call.fn()
                except BaseException as exc:
                    call.error = exc
                finally:
                    call.done.set()
            if due:
                self._kicked = False  # a kick that came in since is served by this pass
                deadline = None
                platform.pump_all()
            else:
                for deployment_id in fired:
                    try:
                        platform.pump(deployment_id)
                    except DeploymentNotActiveError:
                        pass  # a call above undeployed it
            self.after_wake()
            self._watch()

    def _watch(self) -> None:
        """Make epoll watch exactly the fds the platform wants watched."""
        wanted = self.platform.watch_fds()
        if wanted == self._watched:
            return
        for fd, (deployment_id, _, holder) in self._watched.items():
            if fd in wanted and wanted[fd][2] is holder:
                continue  # still watched; its events may change below
            if self._owner.get(fd) != deployment_id:
                continue  # closed with its holder, and the number reused since
            del self._owner[fd]
            try:
                self._epoll.unregister(fd)
            except OSError:
                pass  # closed with its holder, which also unregistered it
        for fd, (deployment_id, events, holder) in wanted.items():
            old = self._watched.get(fd)
            if old is None or old[2] is not holder:
                self._epoll.register(fd, events)
                self._owner[fd] = deployment_id
            elif old[1] != events:
                self._epoll.modify(fd, events)
        self._watched = wanted

    def stop(self) -> None:
        if self._stop.is_set():
            return  # second stop (e.g. daemon stopped from a test and teardown)
        if self._thread.is_alive():
            try:
                self.call(self.platform.shutdown, timeout=10.0)
            except Exception:
                logger.exception("shutdown on loop failed")
        else:
            # the loop never ran; nothing contends for the platform
            try:
                self.platform.shutdown()
            except Exception:
                logger.exception("shutdown failed")
        self._stop.set()
        self._wake_up()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            with self._wake_lock:
                self._epoll.close()
                os.close(self._wake)
                self._wake = -1


def _error_reply(exc: ProteusError) -> bytes:
    return encode_response(False, error_code=exc.code, error_message=exc.message)


class _Connection:
    """A control client: the bytes it sent and the answer it is still owed."""

    __slots__ = ("sock", "fd", "inbox", "outbox", "writing", "cursor")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.fd = sock.fileno()
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.writing = False  # watching for room to send, not for requests
        self.cursor: int | None = None  # a follower's next trace seq


class ControlServer:
    """Serves control connections on the platform loop's thread.

    Each connection reads requests up to ``\\n`` and gets each answer
    sent at once.  While part of an answer is unsent the connection
    waits for room and reads no further request, so a client that stops
    reading holds one answer and never stalls the loop.  A ``trace``
    request with ``follow`` turns its connection into a follower: after
    each wake-up the loop tops up its output from the trace, up to
    ``RECV_SIZE`` bytes, and it reads no further request.
    """

    def __init__(self, loop: PlatformLoop, socket_path: Path | str | None = None):
        self.loop = loop
        self.socket_path = Path(socket_path) if socket_path else default_socket_path()
        self._claim_socket()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(8)
        self._listener.setblocking(False)
        self._connections: set[_Connection] = set()
        loop.after_wake = self._feed_followers

    def _claim_socket(self) -> None:
        if not self.socket_path.exists():
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(str(self.socket_path))
        except OSError:
            self.socket_path.unlink()  # stale socket from a dead instance
        else:
            probe.close()
            raise AlreadyRunningError(
                f"another daemon is serving {self.socket_path}")
        finally:
            probe.close()

    def start(self) -> None:
        self.loop.call(lambda: self.loop.register(self._listener.fileno(), self._accept))

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return  # accepted every pending connection
            except OSError as exc:
                logger.warning("control accept failed: %s", exc)
                return
            sock.setblocking(False)
            if len(self._connections) >= MAX_CLIENTS:
                with sock:
                    try:
                        sock.send(_error_reply(TooManyClientsError(
                            f"the daemon serves at most {MAX_CLIENTS} control connections")))
                    except OSError:
                        pass  # gone already
                continue
            conn = _Connection(sock)
            self._connections.add(conn)
            self.loop.register(conn.fd, functools.partial(self._serve, conn))

    def _serve(self, conn: _Connection) -> None:
        """``conn`` is ready: send what it is owed, or read and answer."""
        if conn.outbox:
            self._flush(conn)
        else:
            try:
                data = conn.sock.recv(RECV_SIZE)
            except BlockingIOError:
                return  # woken for the closed fd whose number it reused
            except OSError:
                data = b""  # reset by the client
            if not data:
                if conn.inbox:  # a last request without its newline
                    self._handle_line(conn, bytes(conn.inbox))
                self._close(conn)
                return
            if conn.cursor is None:  # a follower's further lines are ignored
                conn.inbox += data
        self._answer(conn)

    def _answer(self, conn: _Connection) -> None:
        """Answer each complete request line until an answer is left unsent."""
        while not conn.outbox and conn.cursor is None and conn in self._connections:
            end = conn.inbox.find(b"\n", 0, MAX_LINE + 1)
            if end < 0:
                if len(conn.inbox) > MAX_LINE:
                    self._send(conn, _error_reply(RequestTooLongError(
                        f"request lines are at most {MAX_LINE} bytes")))
                    self._close(conn)
                return
            line = bytes(conn.inbox[:end + 1])
            del conn.inbox[:end + 1]
            self._handle_line(conn, line)

    def _send(self, conn: _Connection, reply: bytes) -> None:
        conn.outbox += reply
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what ``conn`` is owed; wait for room while some is left."""
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)  # the client went away
            return
        del conn.outbox[:sent]
        writing = bool(conn.outbox)
        if writing is not conn.writing:
            conn.writing = writing
            self.loop.modify(conn.fd, select.EPOLLOUT if writing else select.EPOLLIN)

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.remove(conn)
            self.loop.unregister(conn.fd)
            conn.sock.close()

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = parse_request(line)
            if request.op == "trace" and request.args["follow"]:
                conn.cursor = request.args["from_seq"]
                reply = encode_response(True, {"streaming": True})
            else:
                reply = encode_response(True, self._dispatch(request.op, request.args))
        except ProteusError as exc:
            reply = _error_reply(exc)
        except Exception as exc:
            logger.exception("request failed: %r", line[:200])
            reply = encode_response(False, error_code="internal-error",
                                    error_message=str(exc))
        self._send(conn, reply)

    def _dispatch(self, op: str, args: dict) -> dict:
        platform = self.loop.platform
        if op == "start":
            return {"running": True, "socket": str(self.socket_path)}
        if op == "status":
            return {"status": self.loop.call(platform.status)}
        if op == "load":
            module_id = self.loop.call(lambda: platform.load_module_file(args["path"]))
            return {"module_id": module_id}
        if op == "deploy":
            policy = Policy(args["policy"])
            def run():
                deployment_id = platform.deploy(args["module_id"], args["ham_id"], policy)
                return deployment_id, platform.deployment_info(deployment_id)
            deployment_id, info = self.loop.call(run)
            return {"deployment_id": deployment_id, **info}
        if op == "undeploy":
            self.loop.call(lambda: platform.undeploy(args["deployment_id"]))
            return {"deployment_id": args["deployment_id"]}
        if op == "trace":
            return {"events": [e.to_dict() for e in platform.trace.events(args["from_seq"])]}
        raise ProtocolError(f"unhandled op {op!r}")

    def _feed_followers(self) -> None:
        """Queue the trace events each follower has not had, until its
        outbox holds ``RECV_SIZE`` bytes, and send them."""
        trace = self.loop.platform.trace
        for conn in [c for c in self._connections if c.cursor is not None]:
            while len(conn.outbox) < RECV_SIZE and conn.cursor < trace.next_seq:
                event = trace.event(conn.cursor)
                conn.outbox += json.dumps({"event": event.to_dict()}).encode() + b"\n"
                conn.cursor += 1
            if conn.outbox and not conn.writing:
                self._flush(conn)

    def stop(self) -> None:
        """Close the listener and every connection, trace followers too."""
        if self._listener.fileno() >= 0:
            self.loop.call(self._close_all)
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    def _close_all(self) -> None:
        self.loop.unregister(self._listener.fileno())
        self._listener.close()
        for conn in list(self._connections):
            self._close(conn)


class Daemon:
    """Wires platform, loop, and control server together."""

    def __init__(self, runtime_dir: Path | str | None = None,
                 socket_path: Path | str | None = None):
        self.platform = Platform(runtime_dir=runtime_dir)
        self.loop = PlatformLoop(self.platform)
        self.server = ControlServer(self.loop, socket_path)

    def start(self) -> None:
        self.loop.start()
        self.server.start()
        logger.info("daemon ready on %s (pid %d)", self.server.socket_path, os.getpid())

    def stop(self) -> None:
        self.server.stop()
        self.loop.stop()
