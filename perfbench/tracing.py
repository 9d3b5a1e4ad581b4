"""In-memory spans and counters recorded around the program's entry points.

A :class:`Tracer` replaces a function or method with a wrapper that opens a
span, calls the original and closes the span.  Spans are kept in memory as
plain tuples and analysed when the run ends; nothing is written while the
program works.

Parents.  A span opened while another span is open *on the same thread* is
its child.  A span opened on a thread with no open span (a server thread
decoding a frame, the service dispatcher merging shard answers) takes the
most recently opened span still open anywhere in the process as its
parent: the benchmark keeps one request in flight at a time, so that span
is the caller waiting for the hand-off.  Spans recorded in forked shard
workers arrive with no parent; :func:`attach` hangs each one under the
innermost span of the parent process whose interval contains it (all
timestamps are ``perf_counter_ns``, a system-wide monotonic clock on the
platforms the service forks on).

Self time.  A span's self time is its duration minus the part of its
interval covered by its children (their union, so two shards answering in
parallel are not subtracted twice).  Spans of one request share an id: the
id of their root span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: int  # perf_counter_ns
    end: int
    pid: int


class Tracer:
    """Spans and counters for one process (reset in forked children)."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (used in a freshly forked worker)."""
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        #: Scratch tables of the ``after`` hooks (objects seen, sizes, ...).
        self.state: Dict[str, dict] = defaultdict(dict)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: Dict[int, None] = {}  # insertion-ordered open span ids
        self._next = 0
        self._pid = os.getpid()
        self._paused = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``after(tracer, args, kwargs, result)`` may add counters once the
        call returned; it runs outside the span's interval.
        """
        if self._paused:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            self._next += 1
            sid = self._pid * 1_000_000_000 + self._next
            if stack:
                parent = stack[-1]
            else:
                parent = next(reversed(self._open), None) if self._open else None
            self._open[sid] = None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                del self._open[sid]
                self.spans.append(Span(sid, parent, name, start, end, self._pid))
        if after is not None:
            after(self, args, kwargs, result)
        return result

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own reference work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counters[name] += amount

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap_function(self, func: Callable, name: str, after=None, prefix: str = "repro") -> int:
        """Wrap ``func`` under every module-level name that resolves to it.

        Callers often import a function by name (``from x import f`` or
        ``import f as _f``); patching only its home module would miss them.
        Every loaded module under ``prefix`` whose attribute *is* ``func``
        gets the wrapper.  Returns how many names were patched.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, after)

        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no module name resolves to {func!r}")
        return patched

    def wrap_method(self, cls: type, attr: str, name: str, after=None) -> None:
        """Wrap the method ``cls.attr`` (instances and subclasses see it)."""
        tracer = self
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after)

        self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Shipping spans out of a worker process
    # ------------------------------------------------------------------
    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def load_spans(rows: Iterable[Sequence]) -> List[Span]:
    return [Span(*row) for row in rows]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def attach(parents: Sequence[Span], orphans: Sequence[Span]) -> List[Span]:
    """Give each orphan the innermost span of ``parents`` that contains it.

    Orphans contained by no parent span stay roots.
    """
    ordered = sorted(parents, key=lambda s: s.end - s.start)
    out = []
    for span in orphans:
        parent = None
        for candidate in ordered:
            if candidate.start <= span.start and span.end <= candidate.end:
                parent = candidate.sid
                break
        out.append(span._replace(parent=parent))
    return out


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus its children's union."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def trace_ids(spans: Sequence[Span]) -> Dict[int, int]:
    """Request id of every span: the id of its root ancestor."""
    parent = {s.sid: s.parent for s in spans}
    out: Dict[int, int] = {}
    for sid in parent:
        path = []
        node = sid
        while node not in out and parent.get(node) is not None:
            path.append(node)
            node = parent[node]
        root = out.get(node, node)
        out[node] = root
        for n in path:
            out[n] = root
    return out
