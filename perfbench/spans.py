"""In-memory spans for the traced daemon, and the arithmetic over them.

A span is (name, thread, parent, start, end, aux).  ``aux`` is one
number the wrapper attaches to the call, such as bytes moved or the
wait before a call started.  Each thread appends to its own columns, so
recording takes no lock; the parent is the innermost span still open on
the same thread.  Nothing is written until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import threading
import time
from array import array


class _ThreadSpans:
    __slots__ = ("name", "parent", "start", "end", "aux", "stack")

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.stack: list[int] = []


class Recorder:
    """Collects spans and named samples inside one process."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.samples: dict[str, list] = {}
        self.gauges: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def open(self, name_id: int) -> tuple[_ThreadSpans, int]:
        spans = self._spans()
        index = len(spans.name)
        spans.name.append(name_id)
        spans.parent.append(spans.stack[-1] if spans.stack else -1)
        spans.aux.append(0.0)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(time.perf_counter())
        return spans, index

    @staticmethod
    def close(token: tuple[_ThreadSpans, int], aux: float = 0.0) -> None:
        spans, index = token
        spans.end[index] = time.perf_counter()
        spans.aux[index] = aux
        spans.stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def dump(self, path) -> None:
        """Write every span and sample to ``path`` as one ``.npz`` file."""
        import numpy as np

        with self._lock:
            threads = list(self._threads)
            names = sorted(self._names, key=self._names.get)
        columns = {key: [] for key in ("name", "thread", "parent", "start", "end", "aux")}
        offset = 0
        for thread_no, spans in enumerate(threads):
            n = len(spans.start)  # appended last, so every column has n rows
            parent = np.frombuffer(spans.parent, dtype=np.int64)[:n]
            columns["name"].append(np.frombuffer(spans.name, dtype=np.int32)[:n])
            columns["thread"].append(np.full(n, thread_no, dtype=np.int32))
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("start", "end", "aux"):
                columns[key].append(np.frombuffer(getattr(spans, key), dtype=np.float64)[:n])
            offset += n
        arrays = {key: (np.concatenate(parts) if parts else np.zeros(0))
                  for key, parts in columns.items()}
        meta = {"names": names, "samples": self.samples, "gauges": self.gauges}
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover.

    Children run on the parent's thread inside the parent's interval,
    one after another, so their durations add up without overlap.
    """
    import numpy as np

    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


class SpanSet:
    """Spans loaded from one or more dumps, grouped by name."""

    def __init__(self, paths):
        import numpy as np

        parts: dict[str, list] = {}
        self.samples: dict[str, list] = {}
        self.gauges: dict[str, float] = {}
        for path in paths:
            with np.load(path, allow_pickle=False) as dump:
                meta = json.loads(str(dump["meta"]))
                start, end, aux = dump["start"], dump["end"], dump["aux"]
                own = self_times(start, end, dump["parent"])
                closed = end >= start
                name = dump["name"]
            for name_id, label in enumerate(meta["names"]):
                mask = (name == name_id) & closed
                parts.setdefault(label, []).append(
                    np.stack([(end - start)[mask], own[mask], aux[mask]]))
            for key, values in meta["samples"].items():
                self.samples.setdefault(key, []).extend(values)
            for key, value in meta["gauges"].items():
                self.gauges[key] = self.gauges.get(key, 0) + value
        # one row each of duration, self time and aux per name
        self._spans = {label: np.concatenate(chunks, axis=1)
                       for label, chunks in parts.items()}
        self._empty = np.zeros((3, 0))

    def _rows(self, name: str):
        return self._spans.get(name, self._empty)

    def calls(self, name: str) -> int:
        return self._rows(name).shape[1]

    def durations(self, name: str) -> list:
        return self._rows(name)[0].tolist()

    def busy(self, name: str) -> float:
        return float(self._rows(name)[0].sum())

    def own(self, name: str) -> float:
        return float(self._rows(name)[1].sum())

    def aux_values(self, name: str):
        return self._rows(name)[2]

    def names(self, prefix: str) -> list[str]:
        return [name for name in self._spans if name.startswith(prefix)]
