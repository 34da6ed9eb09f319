"""Wall-clock span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the program from the
outside: :meth:`Tracer.wrap_function` replaces a module-level function
in every loaded ``repro`` module that imported it by name (for example
``repro.serve.server.parse_query_string``), and
:meth:`Tracer.wrap_method` replaces a method on its class.  Each call of
a wrapped callable records one span: name, start, end, span id and
parent id.  Spans are kept in memory in flat arrays and written out by
:meth:`Tracer.dump` when the benchmark ends.

Self time is kept two ways.  While the run goes on, every instant
between two tracer events is charged to the span that was running
then: the innermost open span of the thread that produced the last
event (:meth:`Tracer.totals`).  A span opened on a thread whose stack
is empty gets the tracing thread's innermost span as its parent.  By
construction these self times sum to the traced wall time, so that sum
checks nothing.  :meth:`Tracer.span_self_times` therefore works self
time out again from the recorded spans alone, as a span's duration
minus the time its child spans cover, and with each thread's waits in
handoff spans (the crawl's ``SimScheduler``, which runs checks on
several threads but lets only one run at a time) charged once.  The two
agree, and sum to the traced wall time, only if spans nest inside their
recorded parents and no two threads ran at once.

Wrappers are installed and removed with :meth:`Tracer.enable` and
:meth:`Tracer.disable`, so untraced stretches run the program's own
functions with no tracing cost at all.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("name", "start", "span_id", "parent_id", "thread")

    def __init__(self, name: int, start: float, span_id: int,
                 parent_id: int, thread: int) -> None:
        self.name = name
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread


class Tracer:
    """Thread-aware span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: Counts recorded by result hooks, by name.
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: List[_Frame] = []
        self._home_thread: Optional[int] = None
        self._owner: Optional[_Frame] = None
        self._last = 0.0
        self._next_id = 0
        self._threads = 0
        self._patches: List[Tuple[object, str, object, object]] = []
        # Finished spans, one column per field.
        self.col_name = array("i")
        self.col_id = array("q")
        self.col_parent = array("q")
        self.col_start = array("d")
        self.col_end = array("d")
        #: 0 for the tracing thread, 1, 2, ... for the others.
        self.col_thread = array("i")

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = len(self.names)
            self._index[name] = index
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return index

    def _stack(self) -> Tuple[List[_Frame], int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack, 0
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            with self._lock:
                self._threads += 1
                local.thread = self._threads
        return stack, local.thread

    def push(self, name: int) -> None:
        stack, thread = self._stack()
        with self._lock:
            now = perf_counter()
            owner = self._owner
            if owner is not None:
                self.self_s[owner.name] += now - self._last
            self._last = now
            if stack:
                parent = stack[-1].span_id
            elif self._home_stack:
                parent = self._home_stack[-1].span_id
            else:
                parent = -1
            frame = _Frame(name, now, self._next_id, parent, thread)
            self._next_id += 1
            stack.append(frame)
            self._owner = frame

    def pop(self) -> None:
        stack = self._stack()[0]
        with self._lock:
            now = perf_counter()
            owner = self._owner
            if owner is not None:
                self.self_s[owner.name] += now - self._last
            self._last = now
            frame = stack.pop()
            self.calls[frame.name] += 1
            self.col_name.append(frame.name)
            self.col_id.append(frame.span_id)
            self.col_parent.append(frame.parent_id)
            self.col_start.append(frame.start)
            self.col_end.append(now)
            self.col_thread.append(frame.thread)
            if stack:
                self._owner = stack[-1]
            elif self._home_stack:
                self._owner = self._home_stack[-1]
            else:
                self._owner = None

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (the driver's own)."""
        self.push(self.name_index(name))
        try:
            yield
        finally:
            self.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, original: Callable, name: str,
                 hook: Optional[Callable] = None) -> Callable:
        index = self.name_index(name)
        push, pop = self.push, self.pop
        if hook is None:
            def traced(*args, **kwargs):
                push(index)
                try:
                    return original(*args, **kwargs)
                finally:
                    pop()
        else:
            def traced(*args, **kwargs):
                push(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    pop()
                hook(self, result)
                return result
        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def wrap_function(self, module: str, attr: str, name: str,
                      hook: Optional[Callable] = None,
                      skip: Tuple[str, ...] = ()) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module other than
        those in ``skip`` bound it by name."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrapper(original, name, hook)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if (mod is None or not mod_name.startswith("repro")
                    or mod_name in skip):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, traced))
                    bound += 1
        if not bound:
            raise LookupError(f"{module}.{attr} is bound nowhere")

    def wrap_method(self, cls: type, attr: str, name: str,
                    hook: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._patches.append((cls, attr, original,
                              self._wrapper(original, name, hook)))

    def enable(self) -> None:
        """Install every wrapper (call from the tracing thread, with no
        traced call in progress)."""
        self._home_thread = threading.get_ident()
        for target, attr, _original, traced in self._patches:
            setattr(target, attr, traced)

    def disable(self) -> None:
        for target, attr, original, _traced in self._patches:
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {name: (self.calls[i], self.self_s[i])
                for i, name in enumerate(self.names)}

    def span_self_times(self, handoffs: Tuple[str, ...]
                        ) -> Tuple[Dict[str, float], float]:
        """Self seconds by span name from the recorded spans alone, and
        the seconds spent in handoffs.

        A span's self time is its duration minus the union of its
        children's intervals, whatever thread they ran on.  Spans named
        in ``handoffs`` are where a thread waits for another (the
        scheduler's run loop on the tracing thread, a process's yield
        on its own thread); they get no self time of their own.
        Instead, the handoff time is the time covered by handoff spans
        of the tracing thread during which no thread was active.  A
        thread is active inside its entry spans (those whose parent is
        a handoff span or on another thread) except where it sits in
        one of its own handoff spans.
        """
        names, parent = self.col_name, self.col_parent
        start, end, thread = self.col_start, self.col_end, self.col_thread
        count = len(names)
        handoff = {self._index[name] for name in handoffs
                   if name in self._index}
        row_of = array("q", [-1]) * self._next_id
        for row, span_id in enumerate(self.col_id):
            row_of[span_id] = row
        covered = array("d", [0.0]) * count
        rows = sorted(range(count), key=start.__getitem__)
        rows.sort(key=parent.__getitem__)
        index = 0
        while index < count:
            owner = parent[rows[index]]
            group = []
            while index < count and parent[rows[index]] == owner:
                row = rows[index]
                group.append((start[row], end[row]))
                index += 1
            if owner >= 0 and row_of[owner] >= 0:
                covered[row_of[owner]] = _length(_merge(group))
        self_s: Dict[str, float] = {}
        entries: Dict[int, list] = {}
        waits: Dict[int, list] = {}
        for row in range(count):
            span = (start[row], end[row])
            up = row_of[parent[row]] if parent[row] >= 0 else -1
            if names[row] in handoff:
                waits.setdefault(thread[row], []).append(span)
                continue
            name = self.names[names[row]]
            self_s[name] = (self_s.get(name, 0.0)
                            + span[1] - span[0] - covered[row])
            if up < 0 or names[up] in handoff or thread[up] != thread[row]:
                entries.setdefault(thread[row], []).append(span)
        active = _merge([span for tid, spans in entries.items()
                         for span in _subtract(_merge(spans),
                                               _merge(waits.get(tid, [])))])
        home = _merge(waits.get(0, []))
        return self_s, _length(home) - _length(_intersect(home, active))

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        with open(path, "w") as handle:
            json.dump({
                "names": self.names,
                "spans": {
                    "name": self.col_name.tolist(),
                    "id": self.col_id.tolist(),
                    "parent": self.col_parent.tolist(),
                    "start": self.col_start.tolist(),
                    "end": self.col_end.tolist(),
                    "thread": self.col_thread.tolist(),
                },
            }, handle)



def _merge(spans: list) -> list:
    """The union of ``(start, end)`` intervals as sorted disjoint ones."""
    out: list = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return out


def _length(merged: list) -> float:
    return sum(hi - lo for lo, hi in merged)


def _subtract(a: list, b: list) -> list:
    """``a`` minus ``b``, both sorted and disjoint."""
    out = []
    first = 0
    for lo, hi in a:
        while first < len(b) and b[first][1] <= lo:
            first += 1
        cursor, k = lo, first
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > cursor:
                out.append([cursor, b[k][0]])
            cursor = max(cursor, b[k][1])
            k += 1
        if cursor < hi:
            out.append([cursor, hi])
    return out


def _intersect(a: list, b: list) -> list:
    """``a`` and ``b`` intersected, both sorted and disjoint."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append([lo, hi])
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out
