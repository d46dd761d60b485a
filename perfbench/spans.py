"""In-memory span recorder for the traced benchmark run, and its analysis.

A wrapped call records one span: a name, its start and end on the
monotonic nanosecond clock, and the index of the span that was open when it
began (its parent, -1 for a root). Spans stay in memory while the program
runs and are written to one JSON file at the end.

Calls are synchronous and nested, so a span's children never overlap each
other: its self time is its duration minus the durations of its direct
children, and the self times of a tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []    # name id -> "module.function"
        self.modules: list[str] = []  # name id -> module the span is charged to
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _name_id(self, module: str, qualname: str) -> int:
        self.names.append(f"{module}.{qualname}")
        self.modules.append(module)
        return len(self.names) - 1

    def wrap(self, module: str, qualname: str, fn, nbytes=None):
        """Return fn wrapped so each call records a span.

        nbytes(args, result), when given, adds the call's computed byte
        count to the counter "<module>.<qualname>.bytes".
        """
        nid = self._name_id(module, qualname)
        byte_key = f"{self.names[nid]}.bytes"
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter_ns, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if nbytes is not None:
                counters[byte_key] += nbytes(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "modules": self.modules,
                                    "spans": self.spans, "counters": self.counters}))


class Trace:
    """Spans loaded from a SpanRecorder dump, with durations and self times."""

    def __init__(self, path: Path) -> None:
        data = json.loads(Path(path).read_text())
        self.names: list[str] = data["names"]
        self.modules: list[str] = data["modules"]
        self.counters: dict[str, int] = data["counters"]
        spans = data["spans"]
        self.name_of = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.duration_ns = [s[2] - s[1] for s in spans]
        self.self_ns = list(self.duration_ns)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.self_ns[p] -= self.duration_ns[i]

    def _ids(self, name: str) -> set[int]:
        return {i for i, n in enumerate(self.names) if n == name}

    def durations_us(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of every span called name, optionally only under parent."""
        ids, pids = self._ids(name), None if parent is None else self._ids(parent)
        return [d / 1e3 for i, d in enumerate(self.duration_ns)
                if self.name_of[i] in ids
                and (pids is None or (self.parent[i] >= 0
                                      and self.name_of[self.parent[i]] in pids))]

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.durations_us(name, parent))

    def module_calls(self, module: str) -> int:
        return sum(1 for nid in self.name_of if self.modules[nid] == module)

    def self_s_by_module(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.self_ns):
            out[self.modules[self.name_of[i]]] += s / 1e9
        return dict(out)

    def self_s_of(self, name: str) -> float:
        ids = self._ids(name)
        return sum(s for i, s in enumerate(self.self_ns) if self.name_of[i] in ids) / 1e9

    def root_s(self) -> float:
        """Total duration of the root spans: the traced part of the run."""
        return sum(d for i, d in enumerate(self.duration_ns) if self.parent[i] < 0) / 1e9


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile q in (0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
