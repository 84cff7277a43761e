"""Control protocol: line-delimited JSON over a local stream socket.

One request per line, one response per line, each a JSON object in
UTF-8; a ``trace`` request with ``follow`` additionally streams one
event per line until the client disconnects.  The client here is what
the CLI uses; the server side lives in :mod:`proteus.daemon`.
"""

from __future__ import annotations

import json
import socket
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .errors import ProtocolError

RECV_SIZE = 64 * 1024  # bytes one recv takes at most, on either end

# json.dumps with its defaults, without the per-call check of its arguments
_encode = json.JSONEncoder().encode
_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: bytes | str):
    """``json.loads`` of one control line, which must be UTF-8, without
    the regular expressions ``json.loads`` runs around its scan."""
    text = (line.decode() if isinstance(line, bytes) else line).strip(" \t\n\r")
    doc, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _text(value) -> str:
    """``json.dumps(value)``.  A dict with str keys, a str, an int, a
    bool or None is written here, an :class:`EncodedDict` as its text,
    and anything else, a list of trace events say, by json's encoder,
    which sets itself up afresh on each call: for a control line that
    set-up costs more than the encoding, above all on a loop that wakes
    with cold caches."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict and all(type(key) is str for key in value):
        return "{%s}" % ", ".join([f"{encode_basestring_ascii(key)}: {_text(item)}"
                                   for key, item in value.items()])
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is EncodedDict:
        return value.json.decode()
    return _encode(value)


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


class ControlRequest(NamedTuple("ControlRequest", [("op", str), ("args", dict)])):
    """One request: its op and its arguments by name.  ``args`` defaults
    to a fresh dict."""

    __slots__ = ()

    def __new__(cls, op: str, args: dict | None = None):
        return tuple.__new__(cls, (op, {} if args is None else args))


def encode_request(request: ControlRequest) -> bytes:
    return _request_line(request.op, request.args)


def _request_line(op: str, args: dict) -> bytes:
    return (_text({"op": op, **args}) + "\n").encode()


def parse_request(line: bytes | str) -> ControlRequest:
    """Decode and validate one request line."""
    try:
        doc = _parse_line(line)
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
    unknown = [name for name in doc if name not in required and name not in optional]
    if unknown:
        raise ProtocolError(f"op {op!r} does not accept {sorted(unknown)}")
    for name, value in doc.items():
        valid, what = _ARG_TYPES[name]
        if not valid(value):
            raise ProtocolError(f"{name!r} must be {what}, got {value!r}")
    return ControlRequest(op, {**optional, **doc})


def encode_response(ok: bool, payload: dict | None = None,
                    error_code: str | None = None,
                    error_message: str | None = None) -> bytes:
    if ok:
        doc: dict = {"ok": True}
        doc.update(payload or {})
    else:
        doc = {"ok": False,
               "error": {"code": error_code, "message": error_message or ""}}
    return (_text(doc) + "\n").encode()


class EncodedDict(dict):
    """A read-only dict that carries ``json`` (bytes): its ``json.dumps``
    text, given or encoded once.

    :func:`encode_status_response` sends that text instead of encoding
    the dict again.  One instance can be handed to every caller, so its
    values must not change either; a copy (``dict(d)``, ``d.copy()``,
    :mod:`copy`) is a plain dict.
    """

    __slots__ = ("json",)

    def __init__(self, items: dict, text: bytes | None = None):
        super().__init__(items)
        self.json = _text(items).encode() if text is None else text

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"an {type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class EncodedList(list):
    """A read-only list that carries ``parts``: byte strings whose
    concatenation is its ``json.dumps`` text, given or encoded once.

    :func:`encode_status_response` joins the parts into the reply, so a
    long text kept elsewhere goes in with no copy of its own.  As with
    :class:`EncodedDict`, its items must not change, and a copy is a
    plain list.
    """

    __slots__ = ("parts",)

    def __init__(self, items: list, parts: list | None = None):
        super().__init__(items)
        self.parts = [_text(items).encode()] if parts is None else parts

    _read_only = EncodedDict._read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return list, (list(self),)


def frozen(value):
    """``value`` with each dict and list in it, itself too, made an
    :class:`EncodedDict` or :class:`EncodedList`: read-only, and
    encoded."""
    if isinstance(value, dict):
        return EncodedDict({key: frozen(item) for key, item in value.items()})
    if isinstance(value, list):
        return EncodedList([frozen(item) for item in value])
    return value


def encoded(value) -> bytes:
    """``json.dumps(value)`` as bytes; an :class:`EncodedDict` gives its own."""
    return value.json if type(value) is EncodedDict else _text(value).encode()


def encode_status_response(status: dict) -> bytes:
    """``encode_response(True, {"status": status})``, byte for byte,
    joined once.

    The keys must be strings, as :meth:`~proteus.core.Platform.status`
    gives them.  A value that is an :class:`EncodedList` goes in as its
    parts; everything else is encoded as usual.
    """
    parts = [b'{"ok": true, "status": {']
    for key, value in status.items():
        if len(parts) > 1:
            parts.append(b", ")
        parts += (encode_basestring_ascii(key).encode(), b": ")
        if type(value) is EncodedList:
            parts += value.parts
        else:
            parts.append(encoded(value))
    parts.append(b"}}\n")
    return b"".join(parts)


class RemoteError(Exception):
    """An error response from the daemon, carrying its error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ControlClient:
    """Blocking client for the daemon's control socket.

    It reads replies from the socket into a buffer of its own, one
    ``recv`` per wake-up, and takes each line out of it; a reply that
    fits one ``recv`` is not copied again.  A daemon that answers and
    closes before it reads the request, as it does to refuse a
    connection, still has its answer read.
    """

    def __init__(self, socket_path: Path | str, timeout: float = 10.0):
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(self.socket_path)
        except OSError:
            self._sock.close()
            raise
        self._rest = b""  # received after the last line taken

    def request(self, op: str, **args) -> dict:
        """Send one request, return the response payload or raise RemoteError."""
        try:
            self._sock.sendall(_request_line(op, args))
        except (BrokenPipeError, ConnectionResetError):
            pass  # closed without reading it: what it sent first is queued, if anything
        return self._read_response()

    def _read_line(self) -> bytes:
        """The next line the daemon sent; b"" once it has closed the
        connection before the line's end."""
        data, self._rest = self._rest, b""
        chunks = []
        while (end := data.find(b"\n") + 1) == 0:
            if data:
                chunks.append(data)
            try:
                data = self._sock.recv(RECV_SIZE)
            except ConnectionResetError:
                data = b""  # closed with our request unread
            if not data:
                return b""
        if end < len(data):
            self._rest = data[end:]
            data = data[:end]
        return b"".join((*chunks, data)) if chunks else data

    def _read_response(self) -> dict:
        line = self._read_line()
        if not line:
            raise ProtocolError("daemon closed the connection")
        doc = _parse_line(line)
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
        while line := self._read_line():
            doc = _parse_line(line)
            if "event" in doc:
                yield doc["event"]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
