"""Structured trace stream: the platform's observable debug output.

Every lifecycle action of the platform (registration, deployment,
parsed commands, dropped bytes) is appended to one totally ordered event
log that any number of readers can follow from any seq with
``events(since)``.  The bytes that pump passes move are counted, not
traced: an active deployment's ``status`` entry carries the totals.

Nothing here takes a lock.  Events are emitted on one thread: the
platform loop when daemonized, which also streams them to ``trace
--follow`` clients, or the embedding program's own thread.  A reader on
another thread still sees a prefix of the log, because CPython's
interpreter lock runs each list append and slice whole; a build without
it would need the log published under a lock.
"""

from __future__ import annotations

import enum
import time


class TraceKind(enum.Enum):
    HAM_REGISTERED = "HamRegistered"
    MODULE_LOADED = "ModuleLoaded"
    DEPLOY_REQUESTED = "DeployRequested"
    IMPLEMENTATION_MATCHED = "ImplementationMatched"
    DEPLOYED = "Deployed"
    ENDPOINT_OPENED = "EndpointOpened"
    COMMAND_PARSED = "CommandParsed"
    UNDEPLOYED = "Undeployed"
    DEPLOY_REJECTED = "DeployRejected"
    DEPLOY_QUEUED = "DeployQueued"
    DATA_DROPPED = "DataDropped"


class TraceEvent:
    __slots__ = ("seq", "timestamp", "kind", "detail")

    def __init__(self, seq: int, timestamp: float, kind: TraceKind,
                 detail: dict | None = None):
        self.seq = seq
        self.timestamp = timestamp
        self.kind = kind
        self.detail = {} if detail is None else detail

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "detail": self.detail,
        }


class TraceLog:
    """Append-only event log with strictly increasing sequence numbers."""

    def __init__(self):
        self._events: list[TraceEvent] = []

    def emit(self, kind: TraceKind, **detail) -> TraceEvent:
        event = TraceEvent(len(self._events), time.time(), kind, detail)
        self._events.append(event)
        return event

    def events(self, since: int = 0) -> list[TraceEvent]:
        """Snapshot of all events with seq >= ``since``."""
        return self._events[since:]

    def event(self, seq: int) -> TraceEvent:
        """The event numbered ``seq``."""
        return self._events[seq]

    @property
    def next_seq(self) -> int:
        """The seq the next event gets: a cursor at the present."""
        return len(self._events)
