"""Control protocol: line-delimited JSON over a local stream socket.

One request per line, one response per line; a ``trace`` request with
``follow`` additionally streams one event per line until the client
disconnects.  The client here is what the CLI uses; the server side
lives in :mod:`proteus.daemon`.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ProtocolError

# op name -> (required args, optional args with defaults)
REQUEST_SCHEMA: dict[str, tuple[tuple[str, ...], dict]] = {
    "start": ((), {}),
    "deploy": (("module_id", "ham_id"), {"policy": "reject"}),
    "undeploy": (("deployment_id",), {}),
    "status": ((), {}),
    "trace": ((), {"follow": False, "from_seq": 0}),
    "load": (("path",), {}),
}

# argument name -> (test of a valid value, what a valid value is)
_ARG_TYPES = {
    "module_id": (lambda v: isinstance(v, str), "a string"),
    "ham_id": (lambda v: isinstance(v, str), "a string"),
    "deployment_id": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str), "a string"),
    "policy": (lambda v: v in ("reject", "queue"), '"reject" or "queue"'),
    "follow": (lambda v: isinstance(v, bool), "true or false"),
    "from_seq": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
}


@dataclass(frozen=True)
class ControlRequest:
    op: str
    args: dict = field(default_factory=dict)


def encode_request(request: ControlRequest) -> bytes:
    return json.dumps({"op": request.op, **request.args}).encode() + b"\n"


def parse_request(line: bytes | str) -> ControlRequest:
    """Decode and validate one request line."""
    try:
        doc = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "op" not in doc:
        raise ProtocolError("request must be an object with an 'op' field")
    op = doc.pop("op")
    if op not in REQUEST_SCHEMA:
        raise ProtocolError(f"unknown op {op!r}")
    required, optional = REQUEST_SCHEMA[op]
    for name in required:
        if name not in doc:
            raise ProtocolError(f"op {op!r} requires {name!r}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ProtocolError(f"op {op!r} does not accept {sorted(unknown)}")
    for name, value in doc.items():
        valid, what = _ARG_TYPES[name]
        if not valid(value):
            raise ProtocolError(f"{name!r} must be {what}, got {value!r}")
    args = dict(optional)
    args.update(doc)
    return ControlRequest(op=op, args=args)


def encode_response(ok: bool, payload: dict | None = None,
                    error_code: str | None = None,
                    error_message: str | None = None) -> bytes:
    if ok:
        doc: dict = {"ok": True}
        doc.update(payload or {})
    else:
        doc = {"ok": False,
               "error": {"code": error_code, "message": error_message or ""}}
    return json.dumps(doc).encode() + b"\n"


class RemoteError(Exception):
    """An error response from the daemon, carrying its error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ControlClient:
    """Blocking client for the daemon's control socket."""

    def __init__(self, socket_path: Path | str, timeout: float = 10.0):
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(self.socket_path)
        except OSError:
            self._sock.close()
            raise
        self._file = self._sock.makefile("rb")

    def request(self, op: str, **args) -> dict:
        """Send one request, return the response payload or raise RemoteError."""
        self._sock.sendall(encode_request(ControlRequest(op, args)))
        return self._read_response()

    def _read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ProtocolError("daemon closed the connection")
        doc = json.loads(line)
        if not doc.get("ok"):
            err = doc.get("error") or {}
            raise RemoteError(err.get("code", "internal-error"), err.get("message", ""))
        doc.pop("ok", None)
        return doc

    def follow_trace(self, from_seq: int = 0):
        """Generator over trace events; runs until either side disconnects.

        Once the daemon has acknowledged the stream, waiting for the next
        event has no timeout: a quiet trace is not a dead daemon.
        """
        self.request("trace", follow=True, from_seq=from_seq)
        self._sock.settimeout(None)
        while True:
            line = self._file.readline()
            if not line:
                return
            doc = json.loads(line)
            if "event" in doc:
                yield doc["event"]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
