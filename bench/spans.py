"""In-memory span tracer and its per-layer roll-up.

Spans are recorded from the benchmark's own files by wrapping the names the
production code resolves at call time (module globals and class attributes),
so nothing under ``src/`` changes. A span is ``[id, parent, name, start,
end]``; spans stay in a list until the run ends and are then written out.

Self time is attributed by a sweep over span start and end events: at every
instant the elapsed time goes to the innermost active spans (active spans with
no active child), split evenly when worker threads make several innermost at
once. On a single thread this equals a span's duration minus the time its
children cover, and in every case the self times of a tree sum to the root's
duration.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# The modules of src/langselect/ timed as layers. Span names start with the
# layer; anything else (the phase root, pass groupings) is the harness itself.
LAYERS = (
    "synthetic",
    "datasets",
    "store",
    "selectors",
    "clustering",
    "langid",
    "extraction",
    "prompts",
    "translation",
    "gateway",
    "report",
    "pipeline",
)
HARNESS_LAYER = "bench"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = [next(self._ids), self.current(), name, 0.0, 0.0]
        stack = self._stack()
        stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` on a worker thread as a child of ``parent``."""
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = previous

    def wrap(self, name, fn):
        """``fn`` traced; ``name`` is a string or a function of the call's arguments."""
        call = self.call
        if callable(name):
            namer = name

            def traced(*args, **kwargs):
                return call(namer(*args, **kwargs), fn, *args, **kwargs)
        else:

            def traced(*args, **kwargs):
                return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks are children of the submitting span."""
        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        return AdoptingPool

    def take_counts(self) -> dict[str, int]:
        """The counts recorded since the last call, which are then reset."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[list]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def split_by_root(spans: list[list]) -> list[list[list]]:
    """The spans of each root span (one per phase), in root start order."""
    parent = {s[0]: s[1] for s in spans}

    def root(sid: int) -> int:
        while parent[sid] is not None:
            sid = parent[sid]
        return sid

    trees: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        trees[root(span[0])].append(span)
    starts = {s[0]: s[3] for s in spans if s[1] is None}
    return [trees[r] for r in sorted(trees, key=starts.get)]


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else HARNESS_LAYER


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time per span id by the innermost-active sweep described above."""
    parent = {s[0]: s[1] for s in spans}
    events = []
    for sid, _, _, start, end in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    active: set[int] = set()
    leaves: set[int] = set()
    children = defaultdict(int)
    own: dict[int, float] = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)
    return own


def percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in microseconds, or 0 when fewer than ten
    samples lie beyond it."""
    n = len(durations)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(n - 1, int(q * n))] * 1e6


class Rollup:
    """Per-name and per-layer aggregates of the spans of one phase."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        own = self_times(spans)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.layer_self_s = {layer: 0.0 for layer in (*LAYERS, HARNESS_LAYER)}
        for sid, _, name, start, end in spans:
            self.self_s[name] += own.get(sid, 0.0)
            self.calls[name] += 1
            self.durations[name].append(end - start)
            self.layer_self_s[layer_of(name)] += own.get(sid, 0.0)

    def ancestors(self, span: list):
        p = span[1]
        while p is not None:
            node = self.by_id[p]
            yield node
            p = node[1]
