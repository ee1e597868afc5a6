"""In-memory spans for the traced benchmark run.

A :class:`Tracer` rebinds a module attribute (the name a caller looks up
at call time, such as ``storen.protocol.hash_eval``) to a wrapper that
records one span per call: name, start, end, parent span and operation
id.  Spans live in flat arrays, so half a million of them cost a few tens
of megabytes, and are written out once at the end.

Parents follow a per-thread stack.  A call made on a thread whose stack
is empty -- a pool thread that ``run_verifier_client`` starts -- takes the
innermost open span of the thread that created the tracer as its parent,
because the load generator keeps one operation in flight and waits on the
pool inside that span.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from array import array

NO_PARENT = -1


def percentile(values, p):
    """Linear-interpolated ``p``-th percentile (the 'inclusive' method of
    ``statistics.quantiles``); defined for a single value too."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo)


def union_length(intervals, lo=float("-inf"), hi=float("inf")):
    """Total length covered by ``intervals`` after clipping them to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span recorder plus the attribute rebinding that feeds it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.absent = []
        self._installed = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin_stack = self._stack()

    # --- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name):
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def open(self, name_id):
        """Start a span on this thread; returns its index."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            origin = self._origin_stack
            parent = origin[-1] if origin else NO_PARENT
        now = time.perf_counter()
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.start.append(now)
            self.end.append(now)
            self.parent.append(parent)
            self.op.append(self.current_op)
        stack.append(index)
        return index

    def close(self, index):
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def span(self, name):
        """Context manager recording a span around a block."""
        return _Span(self, self._name_id(name))

    # --- rebinding ------------------------------------------------------

    def wrap(self, module, attr, span_name, on_call=None, on_result=None):
        """Rebind ``module.attr`` to a spanning wrapper.

        A missing attribute is listed in :attr:`absent` instead of raising,
        so one benchmark can trace both sides of a refactor that deletes a
        function.
        """
        original = getattr(module, attr, None)
        if original is None:
            missing = f"{module.__name__}.{attr}"
            if missing not in self.absent:
                self.absent.append(missing)
            return
        name_id = self._name_id(span_name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self):
        """Restore every rebound attribute, newest first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # --- analysis -------------------------------------------------------

    def by_name(self):
        """Map from span name to the indices of the spans with that name."""
        groups = {}
        for index, name_id in enumerate(self.name):
            groups.setdefault(name_id, []).append(index)
        return {self.names[name_id]: indices for name_id, indices in groups.items()}

    def children(self):
        """Map from span index to the indices of its direct children."""
        kids = {}
        for index, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                kids.setdefault(parent, []).append(index)
        return kids

    def duration(self, index):
        return self.end[index] - self.start[index]

    def self_time(self, index, kids, child_names=None):
        """Duration of a span minus the union of its children's intervals
        (only children named in ``child_names``, when given)."""
        wanted = None
        if child_names is not None:
            wanted = {self._name_ids[n] for n in child_names if n in self._name_ids}
        intervals = [
            (self.start[c], self.end[c])
            for c in kids.get(index, ())
            if wanted is None or self.name[c] in wanted
        ]
        lo, hi = self.start[index], self.end[index]
        return (hi - lo) - union_length(intervals, lo, hi)

    def dump(self, path, extra):
        """Write every span, column by column, as gzip-compressed JSON next
        to the ``extra`` record (one column is expanded at a time)."""
        head = {**extra, "names": self.names, "absent": self.absent,
                "columns": ["name", "start", "end", "parent", "op"]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1])
            for column in head["columns"]:
                fh.write(f', "{column}": ')
                json.dump(getattr(self, column).tolist(), fh)
            fh.write("}")


class _Span:
    def __init__(self, tracer, name_id):
        self._tracer = tracer
        self._name_id = name_id
        self.index = None

    def __enter__(self):
        self.index = self._tracer.open(self._name_id)
        return self

    def __exit__(self, *exc):
        self._tracer.close(self.index)
