"""Structured trace stream: the platform's observable debug output.

Every interesting platform action (registration, deployment, data
movement, parsed commands) is appended to one totally ordered event log
that any number of subscribers can follow from any starting point.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field


class TraceKind(enum.Enum):
    HAM_REGISTERED = "HamRegistered"
    MODULE_LOADED = "ModuleLoaded"
    DEPLOY_REQUESTED = "DeployRequested"
    IMPLEMENTATION_MATCHED = "ImplementationMatched"
    DEPLOYED = "Deployed"
    ENDPOINT_OPENED = "EndpointOpened"
    DATA_IN = "DataIn"
    DATA_OUT = "DataOut"
    COMMAND_PARSED = "CommandParsed"
    UNDEPLOYED = "Undeployed"
    DEPLOY_REJECTED = "DeployRejected"
    DEPLOY_QUEUED = "DeployQueued"
    DATA_DROPPED = "DataDropped"


@dataclass(slots=True)
class TraceEvent:
    seq: int
    timestamp: float
    kind: TraceKind
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "detail": self.detail,
        }


class TraceLog:
    """Append-only event log with strictly increasing sequence numbers.

    Emission happens on the platform loop; subscriptions may be consumed
    from any thread.
    """

    def __init__(self):
        self._events: list[TraceEvent] = []
        self._cond = threading.Condition()

    def emit(self, kind: TraceKind, **detail) -> TraceEvent:
        with self._cond:
            event = TraceEvent(len(self._events), time.time(), kind, detail)
            self._events.append(event)
            self._cond.notify_all()
        return event

    def events(self, since: int = 0) -> list[TraceEvent]:
        """Snapshot of all events with seq >= ``since``."""
        with self._cond:
            return self._events[since:]

    @property
    def next_seq(self) -> int:
        with self._cond:
            return len(self._events)

    def subscribe(self, from_seq: int | None = None) -> "TraceSubscription":
        """Follow the log from ``from_seq`` (default: the present)."""
        with self._cond:
            cursor = len(self._events) if from_seq is None else from_seq
        return TraceSubscription(self, cursor)


class TraceSubscription:
    """Cursor over the trace log; delivers events in seq order, no gaps."""

    def __init__(self, log: TraceLog, cursor: int):
        self._log = log
        self.cursor = cursor

    def next(self, timeout: float | None = None) -> TraceEvent | None:
        """Block up to ``timeout`` for the next event; None on timeout."""
        with self._log._cond:
            if self.cursor >= len(self._log._events):
                self._log._cond.wait(timeout)
            if self.cursor >= len(self._log._events):
                return None
            event = self._log._events[self.cursor]
            self.cursor += 1
            return event

    def drain(self) -> list[TraceEvent]:
        """All events available right now, without blocking."""
        with self._log._cond:
            events = self._log._events[self.cursor:]
            self.cursor = len(self._log._events)
        return list(events)
