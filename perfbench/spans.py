"""In-memory span recorder for the traced run.

The benchmark replaces public functions of the library in the namespace its
callers look them up from, so the library itself is never edited.  Every call
of a replaced function appends one span (name, start, end, parent) to flat
arrays; at exit the spans are reduced to per-name totals and self times.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array
from typing import Callable, Optional

from summary import self_times

OnResult = Callable[[int, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # run_sweep runs cells on threads when workers > 1: each thread keeps
        # its own stack of open spans, and the lock orders the appends.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, on_result: Optional[OnResult] = None) -> Callable:
        """fn with a span around every call; on_result(span, args, result)
        runs after the span has closed."""
        nid = self._name_id(name)
        lock, local, clock = self._lock, self._local, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(start)
                name_of.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(idx, args, result)
            return result

        return traced

    def patch(self, module: str, attr: str, span: str, on_result: Optional[OnResult] = None) -> None:
        """Replace module.attr by its traced form until restore()."""
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._restore.append((mod, attr, original))
        setattr(mod, attr, self.wrap(span, original, on_result))

    def restore(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and `outer` seconds,
        the time of spans whose parent belongs to another layer (the first
        dotted part of the name), so nested calls within a layer count once."""
        names, name_of, parent = self.names, self.name_of, self.parent
        selfs = self_times(parent, self.start, self.end)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0} for name in names}
        layer = [name.split(".", 1)[0] for name in names]
        for i, nid in enumerate(name_of):
            dur = self.end[i] - self.start[i]
            row = out[names[nid]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += selfs[i]
            p = parent[i]
            if p < 0 or layer[name_of[p]] != layer[nid]:
                row["outer_s"] += dur
        return out
