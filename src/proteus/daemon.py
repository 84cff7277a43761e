"""Platform daemon: the single event loop plus the control socket server.

All platform work runs on one loop thread: the calls control clients
hand it through :meth:`PlatformLoop.call`, and the pump passes that move
every deployment's bytes between its PTY and its module.  The thread
blocks in one epoll on a wake eventfd and the PTY master of every
attached endpoint, with a timeout only while a pass is due that no fd
announces (see :meth:`proteus.core.Platform.pump_timeout`).  Each
wake-up pumps only the deployments whose master fired; once that
deadline has passed, or after :meth:`PlatformLoop.kick`, it pumps every
active deployment once, so a busy neighbour cannot hold back a pass
that is due.  Control clients are handled concurrently but only ever
touch the platform via :meth:`PlatformLoop.call`; trace followers read
the (thread-safe) trace log directly.
"""

from __future__ import annotations

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
from .errors import AlreadyRunningError, DeploymentNotActiveError, ProteusError, ProtocolError
from .paths import default_socket_path

logger = logging.getLogger(__name__)


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
        self._watched: dict[str, int] = {}  # deployment_id -> registered fd
        self._watchers: dict[int, str] = {}  # the same, by fd
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="platform-loop",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def call(self, fn, timeout: float = 30.0):
        """Run ``fn`` on the loop thread and return its result."""
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
            fired = []
            for fd, _ in events:
                if fd == self._wake:
                    os.eventfd_read(self._wake)
                else:
                    fired.append(self._watchers[fd])
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
            self._watch()

    def _watch(self) -> None:
        """Make epoll watch exactly the fds the platform wants watched."""
        wanted = self.platform.watch_fds()
        if wanted == self._watched:
            return
        for deployment_id in self._watched.keys() - wanted.keys():
            try:
                self._epoll.unregister(self._watched[deployment_id])
            except OSError:
                pass  # closed with its endpoint, which also unregistered it
        for deployment_id in wanted.keys() - self._watched.keys():
            self._epoll.register(wanted[deployment_id], select.EPOLLIN)
        self._watched = wanted
        self._watchers = {fd: deployment_id for deployment_id, fd in wanted.items()}

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


class ControlServer:
    """Accepts control connections and dispatches requests to the loop."""

    def __init__(self, loop: PlatformLoop, socket_path: Path | str | None = None):
        self.loop = loop
        self.socket_path = Path(socket_path) if socket_path else default_socket_path()
        self._claim_socket()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(8)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="control-accept", daemon=True)

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
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # stop() shut the listener down
            threading.Thread(target=self._serve_client, args=(conn,),
                             daemon=True).start()

    def _serve_client(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as fh:
            try:
                while not self._stop.is_set():
                    line = fh.readline()
                    if not line:
                        return
                    self._handle_line(conn, line)
            except (BrokenPipeError, ConnectionResetError):
                return

    def _handle_line(self, conn: socket.socket, line: bytes) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            conn.sendall(encode_response(False, error_code=exc.code,
                                         error_message=exc.message))
            return
        try:
            if request.op == "trace":
                self._handle_trace(conn, request.args)
                return
            payload = self._dispatch(request.op, request.args)
        except ProteusError as exc:
            conn.sendall(encode_response(False, error_code=exc.code,
                                         error_message=exc.message))
            return
        except Exception as exc:
            logger.exception("request failed: %s", request.op)
            conn.sendall(encode_response(False, error_code="internal-error",
                                         error_message=str(exc)))
            return
        conn.sendall(encode_response(True, payload))

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
            policy = Policy.QUEUE if args.get("policy") == "queue" else Policy.REJECT
            def run():
                deployment_id = platform.deploy(args["module_id"], args["ham_id"], policy)
                return deployment_id, platform.deployment_info(deployment_id)
            deployment_id, info = self.loop.call(run)
            return {"deployment_id": deployment_id, **info}
        if op == "undeploy":
            self.loop.call(lambda: platform.undeploy(args["deployment_id"]))
            return {"deployment_id": args["deployment_id"]}
        raise ProtocolError(f"unhandled op {op!r}")

    def _handle_trace(self, conn: socket.socket, args: dict) -> None:
        platform = self.loop.platform
        from_seq = int(args.get("from_seq") or 0)
        if not args.get("follow"):
            events = [e.to_dict() for e in platform.trace.events(from_seq)]
            conn.sendall(encode_response(True, {"events": events}))
            return
        subscription = platform.trace.subscribe(from_seq)
        conn.sendall(encode_response(True, {"streaming": True}))
        while not self._stop.is_set():
            event = subscription.next(timeout=0.2)
            if event is None:
                continue
            try:
                conn.sendall(json.dumps({"event": event.to_dict()}).encode() + b"\n")
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()
        try:
            # wakes a blocked accept() with EINVAL; closing alone would not
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=2.0)
        self._listener.close()  # only now: no accept() can still use its fd
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
        self.server = ControlServer(self.loop, socket_path)

    def start(self) -> None:
        self.loop.start()
        self.server.start()
        logger.info("daemon ready on %s (pid %d)", self.server.socket_path, os.getpid())

    def stop(self) -> None:
        self.server.stop()
        self.loop.stop()
