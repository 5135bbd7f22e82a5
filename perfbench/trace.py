"""Spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces a public function or method with a wrapper that
records one span ``(id, parent, name, start, end, request)`` per call.
Spans nest by thread, so a span's *self time* is its duration minus the
time its child spans cover; a request is the id of the root span (one
operation of the workload) that the span ran under.  Spans are kept in memory and written out
once, when the run ends.  Nothing under ``src/`` changes: the wrappers are
installed on the loaded classes and removed again by :meth:`restore`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, function, tally: bool, root: bool):
        tracer = self
        local = self._local

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            opened = root and getattr(local, "request", None) is None
            if opened:
                local.request = span_id  # spans below share this request
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if tally:
                    tracer.counts[name] += result or 0
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end,
                     getattr(local, "request", None))
                )
                if opened:
                    local.request = None

        return timed

    def _counted(self, key: str, function):
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return counted

    def _install(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        self._undo.append((owner, attr, original, own))

    def span(self, owner, attr: str, name: str, *, tally: bool = False,
             root: bool = False) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        A ``root`` call outside any request starts one: it and every span
        under it on its thread carry its span id as their request.  With
        ``tally``, each call's (integer) result is added to
        ``counts[name]`` — bytes moved by a socket read or write, say.
        Counts are exact only when one thread makes the calls.
        """
        self._install(
            owner, attr,
            lambda original: self._timed(name, original, tally, root),
        )

    def count(self, owner, attr: str, key: str) -> None:
        """Count ``owner.attr`` calls under ``key`` (no span, no clock read;
        exact when one thread makes the calls)."""
        self._install(owner, attr, lambda original: self._counted(key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` (spans after
        index ``since``)."""
        spans = self.spans[since:]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, name, start, end, _ in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "request": request}
                ) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
