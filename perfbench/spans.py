"""Boundary spans recorded from outside the program.

:class:`SpanRecorder` wraps entry points of each layer (a module
function or a class method) for the duration of one run.  Every call
records ``(name, start, end, parent, rank)``: ``parent`` is the index of
the enclosing recorded span on the same thread (-1 at top level) and
``rank`` comes from the runtime's ``rank-N`` thread name (-1 for the
calling thread).  Spans stay in memory until :meth:`SpanRecorder.save`.
A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

#: (owner import path, attribute, span name) for every wrapped boundary.
#: ``adlb.rpc`` wraps ``AdlbClient._rpc``, the one funnel every data call
#: with a server round trip goes through (create, store, retrieve,
#: refcount, flush_refcounts, ...), so read-cache hits and oneways,
#: which make no round trip, are not counted as calls.
BOUNDARIES = [
    ("repro.api", "compile_swift", "core.compile"),
    ("repro.tcl.interp:Interp", "eval", "tcl.eval"),
    ("repro.mpi.comm:Comm", "send", "mpi.send"),
    ("repro.mpi.comm:Comm", "recv", "mpi.recv"),
    ("repro.mpi.comm:Comm", "recv_poll", "mpi.recv_poll"),
    ("repro.adlb.client:AdlbClient", "_rpc", "adlb.rpc"),
    ("repro.adlb.client:AdlbClient", "get", "adlb.get"),
    ("repro.interlang.python_interp:EmbeddedPython", "eval", "interlang.python"),
    ("repro.interlang.r_bridge:EmbeddedR", "eval", "interlang.r"),
]


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class SpanRecorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one (spans, stack, rank) triple per thread that recorded
        self._threads: list[tuple[list, list, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> tuple[list, list, int]:
        st = getattr(self._local, "st", None)
        if st is None:
            name = threading.current_thread().name
            rank = int(name[5:]) if name.startswith("rank-") else -1
            st = ([], [], rank)
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def _wrap(self, fn, name: str):
        state = self._state

        def wrapper(*args, **kwargs):
            spans, stack, rank = state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, rank)

        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for path, attr, name in BOUNDARIES:
            owner = _resolve(path)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """All finished spans, parents re-indexed into this flat list."""
        out = []
        with self._lock:
            threads = list(self._threads)
        for spans, _, _ in threads:
            base = len(out)
            for s in spans:
                if s is None:  # still open: its thread never returned
                    s = ("unfinished", 0.0, 0.0, -1, -1)
                name, t0, t1, parent, rank = s
                out.append((name, t0, t1, parent + base if parent >= 0 else -1, rank))
        return out

    def save(self, path: str) -> int:
        """Write one JSON array per line: name, start, end, parent, rank."""
        spans = self.spans()
        with open(path, "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        return len(spans)


def summarize(spans: list[tuple[str, float, float, int, int]]) -> dict:
    """Per span name: call count, total time and self time (seconds)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += t1 - t0
        row["self"] += t1 - t0 - child[i]
    return out
