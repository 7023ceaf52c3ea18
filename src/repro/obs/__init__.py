"""Run telemetry: metrics registry + Chrome-trace timeline recording.

The subsystem is **zero-overhead when disabled**: every instrumented
hot path in the engine, runtime, protocol, recovery, and storage layers
holds a reference to a telemetry object and guards its calls with the
``enabled`` flag.  When telemetry is off that reference is the shared
:data:`NULL_TELEMETRY` null object (``enabled=False``), so the cost is
one attribute load and a false branch — no method call, no allocation,
no event.  ``tests/obs/test_telemetry_off.py`` enforces this with a
counting probe (zero telemetry method invocations across a full
failure/recovery run when disabled) and with bit-identity checks.

When enabled, recording is **observation-only**: spans and counters
read the simulation clock and engine state but never mutate them, and
the optional queue-depth sampler schedules only self-rescheduling
no-op events — so a telemetry-on run produces the same observables
(makespan, results, commit history, journal stream) as a telemetry-off
run, which the replay-strict tests pin.

Entry points accept ``telemetry=`` specs resolved by
:func:`resolve_telemetry`:

* ``None``/``False`` — off (:data:`NULL_TELEMETRY`),
* ``True``/``"full"`` — metrics + timeline,
* ``"metrics"`` — metrics only (no timeline buffers),
* a :class:`Telemetry` instance — used as-is (callers pre-configure the
  shard id or sampler interval this way).

See ``docs/observability.md`` for the metric catalog and lane layout.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    format_metrics,
    snapshot_overview,
)
from repro.obs.timeline import (
    PID_ENGINE,
    PID_RANKS,
    PID_SHARDS,
    PID_STORAGE,
    TimelineRecorder,
    stable_tid,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "resolve_telemetry",
    "MetricsRegistry",
    "TimelineRecorder",
    "format_metrics",
    "snapshot_overview",
    "PID_RANKS",
    "PID_ENGINE",
    "PID_STORAGE",
    "PID_SHARDS",
]

#: Default sampling period of the event-queue depth counter (engine ns).
QUEUE_SAMPLE_INTERVAL_NS = 250_000


class Telemetry:
    """Live telemetry sink: a metrics registry plus (optionally) a
    timeline recorder, with the lane-aware helpers the instrumented
    layers call."""

    enabled = True

    def __init__(
        self,
        metrics: bool = True,
        timeline: bool = True,
        shard: int = 0,
        sample_queue: bool = True,
    ) -> None:
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder() if timeline else None
        )
        self.shard = shard
        self.sample_queue = sample_queue

    # -- metrics passthrough -------------------------------------------
    def inc(self, name: str, value: int = 1, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, value, **labels)

    # -- rank lanes ----------------------------------------------------
    def rank_span(
        self,
        name: str,
        rank: int,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.timeline is not None:
            self.timeline.span(name, PID_RANKS, rank, start_ns, end_ns, args)
        if self.metrics is not None:
            self.metrics.span_add(f"rank.{name}", end_ns - start_ns)

    def rank_instant(
        self,
        name: str,
        rank: int,
        t_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.timeline is not None:
            self.timeline.instant(name, PID_RANKS, rank, t_ns, args)

    # -- shard lanes ---------------------------------------------------
    def shard_span(
        self,
        name: str,
        shard: int,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.timeline is not None:
            self.timeline.span(name, PID_SHARDS, shard, start_ns, end_ns, args)
        if self.metrics is not None:
            self.metrics.span_add(f"shard.{name}", end_ns - start_ns)

    # -- engine lane ---------------------------------------------------
    def queue_depth(self, t_ns: int, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("engine.queue_depth", depth)
        if self.timeline is not None:
            self.timeline.counter(
                "queue depth", PID_ENGINE, self.shard, t_ns, {"events": depth}
            )

    def start_queue_sampler(self, engine) -> None:
        """Schedule the self-rescheduling queue-depth sampler.

        The sampler re-arms only while the queue holds *other* events
        (its own entry is already popped when it fires), so it never
        keeps an otherwise-drained engine alive: ``run()`` still
        terminates, deadlock detection still fires, and a shard worker
        still reports ``next_ns=None`` once its real work is done.
        """
        if not self.sample_queue or (
            self.metrics is None and self.timeline is None
        ):
            return
        engine.schedule_fast(0, self._sample_queue, engine)

    def _sample_queue(self, engine) -> None:
        # A method, not a closure over itself: a self-referencing closure
        # is a cycle that would keep the engine for the collector.
        depth = engine.pending_events
        self.queue_depth(engine.now, depth)
        if depth:
            engine.schedule_fast(QUEUE_SAMPLE_INTERVAL_NS, self._sample_queue, engine)

    # -- storage lanes -------------------------------------------------
    def storage_span(
        self,
        name: str,
        lane: str,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.timeline is not None:
            tid = stable_tid(lane)
            self.timeline.track(PID_STORAGE, tid, lane)
            self.timeline.span(name, PID_STORAGE, tid, start_ns, end_ns, args)
        if self.metrics is not None:
            self.metrics.span_add(f"storage.{name}", end_ns - start_ns)

    def storage_level(self, lane: str, t_ns: int, level: int) -> None:
        if self.timeline is not None:
            tid = stable_tid(lane)
            self.timeline.track(PID_STORAGE, tid, lane)
            self.timeline.counter(
                "occupancy", PID_STORAGE, tid, t_ns, {"flows": level}
            )

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable view of everything recorded (shard -> coordinator)."""
        return {
            "metrics": self.metrics.snapshot() if self.metrics else None,
            "timeline": self.timeline.export() if self.timeline else None,
        }

    def merge_snapshot(self, snap: Optional[Dict[str, Any]]) -> None:
        if not snap:
            return
        if self.metrics is not None and snap.get("metrics"):
            self.metrics.merge(snap["metrics"])
        if self.timeline is not None and snap.get("timeline"):
            self.timeline.merge(snap["timeline"])

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot() if self.metrics else {}

    def to_chrome(self) -> Dict[str, Any]:
        if self.timeline is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return self.timeline.to_chrome()


class _NullTelemetry:
    """The disabled-telemetry null object (shared singleton).

    Instrumented code never calls methods on it — every call site is
    gated on ``enabled`` — but the methods exist as no-ops so an
    unguarded call is a silent miss rather than a crash (the probe test
    is what keeps call sites honest)."""

    __slots__ = ()

    enabled = False
    metrics = None
    timeline = None
    shard = 0
    sample_queue = False

    def inc(self, *a: Any, **kw: Any) -> None:
        pass

    def gauge(self, *a: Any, **kw: Any) -> None:
        pass

    def rank_span(self, *a: Any, **kw: Any) -> None:
        pass

    def rank_instant(self, *a: Any, **kw: Any) -> None:
        pass

    def shard_span(self, *a: Any, **kw: Any) -> None:
        pass

    def queue_depth(self, *a: Any, **kw: Any) -> None:
        pass

    def start_queue_sampler(self, engine) -> None:
        pass

    def storage_span(self, *a: Any, **kw: Any) -> None:
        pass

    def storage_level(self, *a: Any, **kw: Any) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def merge_snapshot(self, snap) -> None:
        pass

    def metrics_snapshot(self) -> Dict[str, Any]:
        return {}

    def to_chrome(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


NULL_TELEMETRY = _NullTelemetry()


def resolve_telemetry(spec: Any):
    """Resolve a runner's ``telemetry=`` argument (see module docstring)."""
    if spec is None or spec is False:
        return NULL_TELEMETRY
    if isinstance(spec, (Telemetry, _NullTelemetry)):
        return spec
    if spec is True or spec == "full":
        return Telemetry()
    if spec == "metrics":
        return Telemetry(timeline=False)
    raise ValueError(
        f"telemetry= accepts None/True/'full'/'metrics' or a Telemetry "
        f"instance, got {spec!r}"
    )
