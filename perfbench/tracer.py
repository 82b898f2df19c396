"""In-memory spans around calls into the program's layers.

A span records wall time, process CPU (self + children) and the RSS
high-water mark at its end.  Spans nest: a span's *self* time is its
duration minus the time its child spans cover, so the root span's self
time is whatever the layer spans did not account for.  Layer names are
the ``repro`` package's module names (``world``, ``extract``, ...); a
span called ``extract.synthesis`` belongs to the ``extract`` layer and
yields the per-layer metric ``extract.synthesis_s``.

Nothing here touches the program under test: the benchmark wraps the
public calls it makes, and the spans stay in memory until the run ends.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child, MiB.

    ``ru_maxrss`` is in KiB on Linux, the only platform the benchmark
    supports.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    rss_hwm_mb: float = 0.0
    children_wall: float = 0.0
    children_cpu: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_wall(self) -> float:
        return self.wall - self.children_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.children_cpu


@dataclass
class Trace:
    """The spans of one root (a setup or an op) plus its counters."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def root(self) -> Span:
        return self.spans[0]


class Tracer:
    """Records nested spans into the current :class:`Trace`."""

    def __init__(self) -> None:
        self.traces: list[tuple[str, Trace]] = []
        self._stack: list[int] = []
        self._current: Trace | None = None

    @contextmanager
    def root(self, kind: str):
        """Open a new trace whose root span is called ``kind``."""
        trace = Trace()
        self.traces.append((kind, trace))
        self._current = trace
        try:
            with self.span(kind):
                yield trace
        finally:
            self._current = None

    @contextmanager
    def span(self, name: str):
        trace = self._current
        if trace is None:
            raise RuntimeError(f"span {name!r} opened outside a root")
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, parent=parent, start=time.perf_counter())
        index = len(trace.spans)
        trace.spans.append(span)
        self._stack.append(index)
        cpu_start = cpu_seconds()
        try:
            yield span
        finally:
            span.cpu = cpu_seconds() - cpu_start
            span.end = time.perf_counter()
            span.rss_hwm_mb = peak_rss_mb()
            self._stack.pop()
            if parent is not None:
                trace.spans[parent].children_wall += span.wall
                trace.spans[parent].children_cpu += span.cpu

    def count(self, name: str, value: float) -> None:
        if self._current is not None:
            self._current.count(name, value)


def layer_metrics(traces: list[Trace]) -> dict[str, float]:
    """Per-layer self times, CPU, RSS high-water and counters over ``traces``.

    Span self times add up per span name (``<name>_s``) and per layer
    (``<layer>.cpu_s``); ``<layer>.rss_hwm_mb`` is the RSS high-water
    read when that layer's last span closed.  ``trace.unaccounted_s``
    is the summed self time of the root spans, so the layer times plus
    it equal the summed root wall time exactly.
    """
    metrics: dict[str, float] = {}
    unaccounted = 0.0
    for trace in traces:
        for span in trace.spans:
            if span.parent is None:
                unaccounted += span.self_wall
                continue
            layer = span.name.split(".", 1)[0]
            key = f"{span.name}_s"
            metrics[key] = metrics.get(key, 0.0) + span.self_wall
            metrics[f"{layer}.cpu_s"] = metrics.get(f"{layer}.cpu_s", 0.0) + span.self_cpu
            metrics[f"{layer}.rss_hwm_mb"] = span.rss_hwm_mb
        for name, value in trace.counts.items():
            metrics[name] = metrics.get(name, 0) + value
    metrics["trace.unaccounted_s"] = unaccounted
    return metrics


def span_records(tracer: Tracer) -> list[dict]:
    """Every span as a plain dict, for writing out when the run ends."""
    records = []
    for trace_id, (kind, trace) in enumerate(tracer.traces):
        for span_id, span in enumerate(trace.spans):
            records.append(
                {
                    "trace": trace_id,
                    "kind": kind,
                    "span": span_id,
                    "parent": span.parent,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self_s": span.self_wall,
                    "cpu_s": span.cpu,
                    "self_cpu_s": span.self_cpu,
                    "rss_hwm_mb": span.rss_hwm_mb,
                }
            )
        for name, value in trace.counts.items():
            records.append({"trace": trace_id, "kind": kind, "count": name, "value": value})
    return records
