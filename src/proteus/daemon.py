"""Platform daemon: the event loop plus the control socket server.

All platform work runs on the one thread that serves the daemon
(:meth:`Daemon.run`; ``proteusctl daemon`` serves on its main thread):
the control requests, the trace streams, and the passes that move every
deployment's bytes.  The daemon has no other thread, whatever it serves,
and one epoll, the platform's: a wake pipe, the control listener and
every control connection are readers on it
(:meth:`proteus.core.Platform.add_reader`).  The loop calls
:meth:`proteus.core.Platform.serve`, one ``epoll_wait`` per wake-up,
which serves the ready readers before any pass: a control request, or a
call another thread hands the loop through :meth:`PlatformLoop.call` and
the pipe.  After :meth:`PlatformLoop.kick` the loop pumps every active
deployment once.  Last, each wake-up tops up every trace follower's
output from the trace log.  A stop, from a signal handler too, sets a
flag and writes the pipe; the serving thread then closes everything.
The pipe's write end, ``PlatformLoop.wakeup_fd``, can be the process's
``signal.set_wakeup_fd``: a signal then wakes the loop with its own byte,
even one that lands after Python last looked for signals and before
``epoll_wait``, whose handler would otherwise wait for the next wake-up.
Closing the loop gives that wakeup fd back before it closes the pipe.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import logging
import os
import select
import signal
import socket
import threading
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Callable

from .control import RECV_SIZE, encode_response, encode_status_response, parse_request
from .core import Platform, Policy
from .errors import (
    AlreadyRunningError,
    OsResourceError,
    ProteusError,
    ProtocolError,
    RequestTooLongError,
    TooManyClientsError,
)
from .paths import default_socket_path

logger = logging.getLogger(__name__)

MAX_LINE = 64 * 1024  # longest request line served, without its newline
MAX_CLIENTS = 64  # control connections served at once


class PlatformLoop:
    """Owns the platform; everything mutating runs on the serving thread."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self._calls: deque[tuple[Callable, Future]] = deque()
        self._kicked = False
        self._stopping = False
        self._thread: threading.Thread | None = None  # the one in run()
        # the wake pipe: a byte in it wakes the loop; the write end takes a
        # signal's byte too, from signal.set_wakeup_fd
        self._wake_r, self.wakeup_fd = os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC)
        self._wake_lock = threading.Lock()  # no write from another thread once closed
        platform.add_reader(self._wake_r, self._woken)
        # called, if set, on the serving thread after each wake-up's pumps
        self.after_wake: Callable[[], None] | None = None

    def call(self, fn, timeout: float = 30.0):
        """Run ``fn`` on the serving thread and return its result; on that
        thread itself, as for a control request, in place."""
        if threading.current_thread() is self._thread:
            return fn()
        future = Future()
        self._calls.append((fn, future))
        if not self._wake_up():
            raise RuntimeError("platform loop has stopped")
        return future.result(timeout)

    def kick(self) -> None:
        """Ask the loop for a pump pass now; safe from any thread, coalesces."""
        self._kicked = True
        self._wake_up()

    def request_stop(self) -> None:
        """Ask :meth:`run` to return; safe from any thread, from a signal
        handler that interrupts the serving thread anywhere, and again."""
        self._stopping = True
        self._wake_up()

    def _wake_up(self) -> bool:
        """Write the wake pipe; False once :meth:`close` has closed it."""
        # the serving thread may be in a signal handler that interrupted the
        # lock's holder, and it closes the fd itself, once wakeup_fd gave it up
        serving = threading.current_thread() is self._thread
        with contextlib.nullcontext() if serving else self._wake_lock:
            wake = self.wakeup_fd
            if wake >= 0:
                try:
                    os.write(wake, b"\0")
                except BlockingIOError:
                    pass  # full: the loop has a wake-up coming already
        return wake >= 0

    def _woken(self) -> None:
        """Run the calls handed to the loop, and the pass a kick asks for."""
        os.read(self._wake_r, 65536)  # a pipe's default capacity: all of it
        while self._calls:
            fn, future = self._calls.popleft()
            try:
                future.set_result(fn())
            except BaseException as exc:
                future.set_exception(exc)
        if self._kicked:
            self._kicked = False  # a kick that came in since is served by this pass
            self.platform.pump_all()

    def run(self) -> None:
        """Serve the platform on this thread until :meth:`request_stop`."""
        self._thread = threading.current_thread()
        platform = self.platform
        while not self._stopping:
            platform.serve(None)  # None: until an fd is ready or a deadline comes
            if self.after_wake is not None:
                self.after_wake()

    def close(self) -> None:
        """Give back the signal wakeup fd if it is the wake pipe, shut the
        platform down and close the pipe; once served, on the serving
        thread."""
        with self._wake_lock:
            wake, self.wakeup_fd = self.wakeup_fd, -1
        if wake >= 0 and threading.current_thread() is threading.main_thread():
            # a signal must not write to the pipe once it has closed
            wakeup = signal.set_wakeup_fd(-1)
            if wakeup != wake:
                signal.set_wakeup_fd(wakeup)  # not the loop's to give back
        while self._calls:  # handed over before the stop, and never to be served
            self._calls.popleft()[1].set_exception(RuntimeError("platform loop has stopped"))
        if wake >= 0:
            self.platform.shutdown()
            os.close(wake)
            os.close(self._wake_r)


def _error_reply(exc: ProteusError) -> bytes:
    return encode_response(False, error_code=exc.code, error_message=exc.message)


def _turn_away(sock: socket.socket, exc: ProteusError) -> None:
    """Answer a connection that is not to be served with ``exc``, and close it."""
    with sock:
        try:
            sock.send(_error_reply(exc))
        except OSError:
            pass  # gone already


def _open_reserve() -> int:
    """An fd to give up for a moment once fds run out; -1 if none is free."""
    try:
        return os.open(os.devnull, os.O_RDONLY)
    except OSError:
        return -1  # ENFILE: another process took it; tried again at the next accept


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
    sent at once.  A read that brings one whole line, as a client sends
    a request, is answered from the bytes read, and an answer the socket
    takes whole is sent from the bytes encoded; only other reads go
    through the connection's ``inbox``, and only what an answer leaves
    unsent through its ``outbox``.  While part of an answer is unsent the
    connection waits for room and reads no further request, so a client
    that stops reading holds one answer and never stalls the loop.  A
    ``trace`` request with ``follow`` turns its connection into a
    follower: after each wake-up the loop tops up its output from the
    trace, up to ``RECV_SIZE`` bytes, and it reads no further request.  Out of fds, a
    connection is accepted on a reserve fd only to be refused.
    """

    def __init__(self, loop: PlatformLoop, socket_path: Path | str | None = None):
        self.loop = loop
        self.socket_path = Path(socket_path) if socket_path else default_socket_path()
        self._claim_socket()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._reserve = -1
        try:
            # given up for a moment to refuse a connection once fds run out
            self._reserve = os.open(os.devnull, os.O_RDONLY)
            self._listener.bind(str(self.socket_path))
            self._listener.listen(8)
        except OSError as exc:  # e.g. a path too long for AF_UNIX
            self._listener.close()
            if self._reserve >= 0:
                os.close(self._reserve)
            raise OsResourceError(f"cannot serve {self.socket_path}: {exc}") from exc
        self._exhausted = False  # warned that fds ran out; no accept since
        self._listener.setblocking(False)
        self._connections: set[_Connection] = set()
        self._followers: set[_Connection] = set()  # connections that stream the trace
        loop.platform.add_reader(self._listener.fileno(), self._accept)

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

    def _accept(self) -> None:
        if self._reserve < 0:  # lost to another opener at the last refusal
            self._reserve = _open_reserve()
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return  # accepted every pending connection
            except OSError as exc:
                if exc.errno not in (errno.EMFILE, errno.ENFILE):
                    logger.warning("control accept failed: %s", exc)
                elif self._reserve < 0:
                    self._warn_exhausted(exc)
                elif self._refuse(exc):
                    continue
                return
            self._exhausted = False
            sock.setblocking(False)
            if len(self._connections) >= MAX_CLIENTS:
                _turn_away(sock, TooManyClientsError(
                    f"the daemon serves at most {MAX_CLIENTS} control connections"))
                continue
            conn = _Connection(sock)
            self._connections.add(conn)
            self.loop.platform.add_reader(conn.fd, functools.partial(self._serve, conn))

    def _refuse(self, exc: OSError) -> bool:
        """Out of fds: give the reserve fd up to accept a waiting
        connection, answer it ``os-resource-failure``, close it and take
        the reserve back; False if none was waiting.  Left waiting, it
        would keep the listener readable, and the loop would spin."""
        os.close(self._reserve)
        try:
            sock, _ = self._listener.accept()
        except OSError:  # none waiting: at the fd limit, accept fails
            sock = None  # before it looks for a connection
        else:
            self._warn_exhausted(exc)
            sock.setblocking(False)
            _turn_away(sock, OsResourceError(
                f"the daemon is out of file descriptors: {exc.strerror}"))
        self._reserve = _open_reserve()
        return sock is not None

    def _warn_exhausted(self, exc: OSError) -> None:
        if not self._exhausted:  # once per exhaustion
            self._exhausted = True
            logger.warning("refusing control connections until fds free up: %s", exc)

    def _serve(self, conn: _Connection) -> None:
        """``conn`` is ready: send what it is owed, or read and answer."""
        if conn.outbox:
            self._send(conn)
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
            if conn.cursor is not None:
                return  # a follower's further lines are ignored
            if not conn.inbox and data.find(b"\n") == len(data) - 1 and len(data) <= MAX_LINE + 1:
                self._handle_line(conn, data)  # one whole line, as a request comes
                return
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

    def _send(self, conn: _Connection, reply: bytes | None = None) -> None:
        """Send ``reply``, all that ``conn`` is owed, or else its outbox;
        what the socket does not take waits in the outbox for room."""
        data = conn.outbox if reply is None else reply
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)  # the client went away
            return
        if reply is None:
            del conn.outbox[:sent]
        elif sent < len(reply):
            conn.outbox += memoryview(reply)[sent:]
        writing = bool(conn.outbox)
        if writing is not conn.writing:
            conn.writing = writing
            self.loop.platform.modify_reader(conn.fd,
                                             select.EPOLLOUT if writing else select.EPOLLIN)

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.remove(conn)
            self._followers.discard(conn)
            if not self._followers:
                self.loop.after_wake = None
            self.loop.platform.remove_reader(conn.fd)
            conn.sock.close()

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = parse_request(line)
            if request.op == "trace" and request.args["follow"]:
                conn.cursor = request.args["from_seq"]
                self._followers.add(conn)
                self.loop.after_wake = self._feed_followers
                reply = encode_response(True, {"streaming": True})
            elif request.op == "status":  # stopped deployments' entries come encoded
                reply = encode_status_response(
                    self._dispatch(request.op, request.args)["status"])
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
        for conn in list(self._followers):  # a failed send closes its connection
            while len(conn.outbox) < RECV_SIZE and conn.cursor < trace.next_seq:
                event = trace.event(conn.cursor)
                conn.outbox += json.dumps({"event": event.to_dict()}).encode() + b"\n"
                conn.cursor += 1
            if conn.outbox and not conn.writing:
                self._send(conn)

    def close(self) -> None:
        """Close every connection, trace followers too, and the listener,
        and remove the socket."""
        if self._listener.fileno() < 0:
            return
        for conn in list(self._connections):
            self._close(conn)
        self.loop.platform.remove_reader(self._listener.fileno())
        self._listener.close()
        if self._reserve >= 0:
            os.close(self._reserve)
            self._reserve = -1
        try:
            self.socket_path.unlink()
        except OSError:
            pass


class Daemon:
    """Wires platform, loop, and control server together."""

    def __init__(self, runtime_dir: Path | str | None = None,
                 socket_path: Path | str | None = None):
        self.platform = Platform(runtime_dir=runtime_dir)
        self.loop = PlatformLoop(self.platform)
        try:
            self.server = ControlServer(self.loop, socket_path)
        except BaseException:
            self.loop.close()  # e.g. another daemon serves the socket
            raise
        self._thread: threading.Thread | None = None

    def run(self) -> None:
        """Serve on this thread until ``loop.request_stop()``, then close
        the control socket and shut the platform down."""
        logger.info("daemon ready on %s (pid %d)", self.server.socket_path, os.getpid())
        try:
            self.loop.run()
        finally:
            self.server.close()
            self.loop.close()

    def start(self) -> None:
        """:meth:`run` on a thread of its own."""
        self._thread = threading.Thread(target=self.run, name="platform-loop",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the daemon :meth:`start` started, or close one never served."""
        self.loop.request_stop()
        if self._thread is not None:
            self._thread.join()
        else:
            self.server.close()
            self.loop.close()
