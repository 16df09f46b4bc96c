"""Benchmark-side spans, gen-2 GC attribution and trace accounting.

Spans are recorded from the benchmark's own code around calls into each
layer's public functions, through :func:`repro.obs.span`, so one trace
file serves both ``repro-obs report`` and this benchmark.  ``obs.Span``
has no parent field, so every benchmark span carries three attrs:

* ``trace``  -- one id per operation (``op-3``) or set-up (``setup-1``);
* ``span``   -- this span's id, unique across processes (``pid.n``);
* ``parent`` -- the enclosing span's id, ``""`` for a trace's root.

Benchmark spans use category ``bench``; the runner's own stage, shard
and supervisor spans land in the same file under their own categories
and are left to ``repro-obs report``.

While a :class:`Tracer` is active, a ``gc.callbacks`` hook times every
generation-2 collection and charges the pause to the innermost open
span, which stores it as its ``gc2_s`` attr.
"""

from __future__ import annotations

import gc
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro import obs

CATEGORY = "bench"

_MICROSECONDS = 1e6

#: Largest allowed gap, in seconds, between an operation's wall time, as
#: timed around it, and its layer self times plus unattributed time.
#: The only time legitimately left out is installing the GC hook and
#: opening and closing the root span (0.1-0.3 ms measured on a 2-cpu
#: host) and the 0.1 us rounding of trace timestamps, so a span tree
#: that misses part of an operation shows.
ACCOUNTING_TOLERANCE_S = 1e-3


class _NullHandle:
    """Stand-in for ``obs.SpanHandle`` when tracing is off."""

    def set(self, **attrs: object) -> None:
        pass


@dataclass
class _Frame:
    trace: str
    span: str
    gc2_s: float = 0.0


class Tracer:
    """Records nested benchmark spans; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.gen2_collections = 0
        self._ids = itertools.count(1)
        self._stack: list[_Frame] = []
        self._gc_started: float | None = None

    @contextmanager
    def active(self) -> Iterator[None]:
        """Install the gen-2 GC hook for the duration of the block."""
        if not self.enabled:
            yield
            return
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            paused = time.perf_counter() - self._gc_started
            self._gc_started = None
            self.gen2_collections += 1
            if self._stack:
                self._stack[-1].gc2_s += paused

    def current(self) -> tuple[str, str]:
        """``(trace, span)`` ids of the innermost open span."""
        if not self._stack:
            return "", ""
        top = self._stack[-1]
        return top.trace, top.span

    @contextmanager
    def remote_parent(self, trace: str, span: str) -> Iterator[None]:
        """Parent this process's next spans under a span recorded elsewhere."""
        self._stack.append(_Frame(trace, span))
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, trace: str | None = None,
             **attrs: object) -> Iterator[object]:
        """Record one benchmark span; ``trace`` starts a new root."""
        if not self.enabled:
            yield _NullHandle()
            return
        if trace is None:
            top = self._stack[-1]
            trace, parent = top.trace, top.span
        else:
            parent = ""
        frame = _Frame(trace, "%d.%d" % (os.getpid(), next(self._ids)))
        self._stack.append(frame)
        with obs.span(name, category=CATEGORY, trace=trace,
                      span=frame.span, parent=parent, **attrs) as handle:
            try:
                yield handle
            finally:
                self._stack.pop()
                handle.set(gc2_s=frame.gc2_s)


# -- accounting over a written trace ------------------------------------------

@dataclass
class TraceAccount:
    """Per-trace totals computed from one trace file's bench events."""

    trace: str
    root_name: str
    #: Span name -> summed duration / self time / gen-2 pause seconds.
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    gc2_s: dict[str, float] = field(default_factory=dict)
    #: Numeric span attrs summed over the trace's spans.
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def unattributed_s(self) -> float:
        """Wall time of the root not covered by any layer span."""
        return self.self_s.get(self.root_name, 0.0)

    def accounting_gap_s(self, wall_s: float) -> float:
        """``wall_s``, the trace's wall time as timed around it, minus
        layer self times minus unattributed time."""
        layers = sum(seconds for name, seconds in self.self_s.items()
                     if name != self.root_name)
        return wall_s - layers - self.unattributed_s


_ID_ATTRS = ("trace", "span", "parent", "gc2_s")


def _covered(interval: tuple[float, float],
             children: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    start, end = interval
    covered, cursor = 0.0, start
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, cursor), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def trace_accounts(payload: dict) -> dict[str, TraceAccount]:
    """Self-time accounting for every benchmark trace in a trace file."""
    events = [event for event in payload["traceEvents"]
              if event.get("cat") == CATEGORY]
    by_trace: dict[str, list[dict]] = {}
    for event in events:
        by_trace.setdefault(str(event["args"]["trace"]), []).append(event)
    accounts = {}
    for trace, members in by_trace.items():
        roots = [event for event in members if not event["args"]["parent"]]
        if len(roots) != 1:
            raise ValueError("trace %s has %d root spans"
                             % (trace, len(roots)))
        root = roots[0]
        children: dict[str, list[tuple[float, float]]] = {}
        for event in members:
            children.setdefault(str(event["args"]["parent"]), []).append(
                (event["ts"], event["ts"] + event["dur"]))
        account = TraceAccount(trace=trace, root_name=root["name"])
        for event in members:
            name, args = event["name"], event["args"]
            interval = (event["ts"], event["ts"] + event["dur"])
            own = event["dur"] - _covered(
                interval, children.get(str(args["span"]), []))
            for store, value in ((account.total_s, event["dur"]),
                                 (account.self_s, own)):
                store[name] = store.get(name, 0.0) + value / _MICROSECONDS
            account.gc2_s[name] = (account.gc2_s.get(name, 0.0)
                                   + float(args.get("gc2_s", 0.0)))
            for key, value in args.items():
                if key in _ID_ATTRS or isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                account.attrs[key] = account.attrs.get(key, 0.0) + value
        accounts[trace] = account
    return accounts
