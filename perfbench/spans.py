"""In-memory call spans and their per-name aggregates.

A Tracer wraps callables so that each call records one span
``(id, parent, name, start, end, work)``.  Ids are handed out at call entry,
so a parent's id is always smaller than its children's.  The parent is the
innermost traced call still open on the same thread; threads of a pool each
get their own stack.  ``work`` is an optional per-call count (for example
multiply-adds of a matrix product) computed from the call's arguments and
result.

Spans are only kept in memory while the traced code runs; ``write_tsv``
writes them out afterwards and ``aggregate`` reduces them to per-name
counts, inclusive times and self times.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Tracer:
    """Records spans of wrapped calls on ``clock`` (seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next = itertools.count()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """Return a wrapper of fn that records a span named ``name``.

        ``work(result, *args, **kwargs)``, if given, returns the call's work
        count; it runs after the span has ended.
        """
        nid = self._name_id(name)
        local, spans, next_id, clock = self._local, self.spans, self._next, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, nid, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            w = work(result, *args, **kwargs) if work is not None else 0
            # one list.append per span: atomic under the interpreter lock
            spans.append((sid, parent, nid, start, end, w))
            return result

        return traced

    def named_spans(self):
        """Spans with the name id replaced by the name."""
        names = self.names
        return [(sid, parent, names[nid], start, end, w)
                for sid, parent, nid, start, end, w in self.spans]

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\twork\n")
            for sid, parent, name, start, end, w in self.named_spans():
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{w}\n")


def aggregate(spans):
    """Per-name ``{"calls", "s", "self_s", "work"}`` from named spans.

    ``calls`` counts every span.  ``s`` sums the durations of the outermost
    spans of each name only, so a recursive call is not counted twice.
    ``self_s`` sums, over every span, its duration minus the durations of its
    direct children; across a recursive chain this is the time no deeper
    traced call covered.  ``work`` sums the per-call work counts.
    """
    by_id = {sp[0]: sp for sp in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _w in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for sid, parent, name, start, end, w in spans:
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        dur = end - start
        rec["calls"] += 1
        rec["work"] += w
        rec["self_s"] += dur - child_time.get(sid, 0.0)
        up = parent
        while up >= 0 and by_id[up][2] != name:
            up = by_id[up][1]
        if up < 0:
            rec["s"] += dur
    return out


def call_tree(spans):
    """Inclusive time and calls per call path (a tuple of names).

    Ids grow from parent to child, so walking spans in id order sees every
    parent's path before its children's.
    """
    paths: dict[int, tuple] = {}
    out: dict[tuple, list] = {}
    for sid, parent, name, start, end, _w in sorted(spans):
        path = paths[parent] + (name,) if parent >= 0 else (name,)
        paths[sid] = path
        rec = out.setdefault(path, [0, 0.0])
        rec[0] += 1
        rec[1] += end - start
    return out
