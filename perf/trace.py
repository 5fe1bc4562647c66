"""In-memory spans recorded from the benchmark's side of each layer
boundary, plus the delegating proxies that record them.

A span is ``(name, layer, start, end, parent, iteration, thread)``; the
parent is the innermost span open on the same thread.  Spans stay in
memory and are written once, at the end, as Chrome trace-event JSON
(open in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    iteration: Optional[int]
    thread: int


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()
        #: Set by the benchmark loop; spans opened afterwards carry it.
        self.iteration: Optional[int] = None

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserve: parents precede children
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(
                name, layer or name.split(".", 1)[0], start, end, parent,
                self.iteration, threading.get_ident())

    def closed(self) -> List[Span]:
        return [s for s in self.spans if s is not None]



def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or nothing at all in an untraced run."""
    return tracer.span(name) if tracer is not None else nullcontext()


def write_chrome(path: str, tracers: Dict[str, Tracer]) -> None:
    """Write ``{phase name: tracer}`` as one Chrome trace-event file,
    one process row per phase."""
    events = []
    for pid, (phase, tracer) in enumerate(tracers.items(), start=1):
        spans = tracer.closed()
        origin = min((s.start for s in spans), default=0.0)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": phase}})
        events.extend({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
            "tid": s.thread, "ts": (s.start - origin) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "args": {"iteration": s.iteration},
        } for s in spans)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Optional[Span]]) -> Dict[str, List[float]]:
    """Per span name, each span's self time: its duration minus the part
    of that interval its direct children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span is not None and span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        covered = _covered(children.get(index, ()), span.start, span.end)
        out.setdefault(span.name, []).append(
            (span.end - span.start) - covered)
    return out


def durations(spans: List[Optional[Span]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for span in spans:
        if span is not None:
            out.setdefault(span.name, []).append(span.end - span.start)
    return out


def unattributed_fraction(spans: List[Optional[Span]], root: str) -> float:
    """Share of the ``root`` spans' wall (the blocking path the benchmark
    drives) that no child span covers."""
    wall = sum(durations(spans).get(root, ()))
    return sum(self_times(spans).get(root, ())) / wall if wall else 0.0


def busy_fraction(spans: List[Optional[Span]], thread: int, lo: float,
                  hi: float, names: Optional[set] = None) -> float:
    """Share of ``[lo, hi]`` that ``thread`` spent inside (selected)
    spans; one minus this is the thread's idle fraction."""
    intervals = [(s.start, s.end) for s in spans
                 if s is not None and s.thread == thread
                 and (names is None or s.name in names)]
    return _covered(intervals, lo, hi) / (hi - lo) if hi > lo else 0.0


class Traced:
    """Delegating proxy: calls to the methods named in ``spans`` are
    recorded as spans, everything else (attribute reads *and* writes)
    passes straight through to ``target``.

    ``probe`` (optional) returns a tuple of the target's own cumulative
    counters; it is read around every traced call and the differences
    are summed per span name in ``deltas`` — this is how a layer's
    public stats object (``SessionStats``) is attributed to the calls
    the benchmark made."""

    def __init__(self, target, tracer: Tracer, spans: Dict[str, str],
                 probe=None):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_probe", probe)
        object.__setattr__(self, "deltas", {})
        object.__setattr__(self, "calls", {})

    def __getattr__(self, name):
        value = getattr(self._target, name)
        span_name = self._spans.get(name)
        if span_name is None:
            return value
        tracer, probe = self._tracer, self._probe
        deltas, calls = self.deltas, self.calls

        def traced(*args, **kwargs):
            before = probe() if probe else ()
            with tracer.span(span_name):
                out = value(*args, **kwargs)
            if probe:
                acc = deltas.setdefault(span_name, [0.0] * len(before))
                for i, (b, a) in enumerate(zip(before, probe())):
                    acc[i] += a - b
            calls[span_name] = calls.get(span_name, 0) + 1
            return out
        return traced

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


class TracedHandle:
    """Proxy for a raylite actor handle: ``handle.method.remote(...)``
    submissions become ``raylite.submit`` spans on the calling thread."""

    def __init__(self, handle, tracer: Tracer):
        self._handle = handle
        self._tracer = tracer

    def __getattr__(self, name):
        if name.startswith("_"):
            return getattr(self._handle, name)
        method = getattr(self._handle, name)
        if not hasattr(method, "remote"):
            return method
        return _TracedRemote(method, self._tracer)


class _TracedRemote:
    def __init__(self, method, tracer: Tracer):
        self._method = method
        self._tracer = tracer

    def remote(self, *args, **kwargs):
        with self._tracer.span("raylite.submit"):
            return self._method.remote(*args, **kwargs)
