"""Processor-sharing bandwidth resources on the engine clock.

The storage layer's closed-form cost models price a write burst as
``latency + nbytes / (bandwidth / concurrent_writers)`` — an
*instantaneous* guess that has to assume who else is writing.  A
:class:`BandwidthResource` replaces the guess with simulation: each
transfer is a **flow** holding a byte count, the resource drains every
active flow at ``bandwidth / n_active`` (for a shared medium) and
re-plans whenever a flow starts, finishes, or is cancelled.  Contention,
staggering, and overlap therefore *emerge* from the event timeline
instead of being assumed at the call site.

Semantics:

* **Processor sharing** — on a ``shared`` resource, N concurrent equal
  flows all finish at N x one flow's solo time; when one finishes early,
  the survivors immediately speed up.  The resource is work-conserving:
  for flows admitted together, the last completion lands at
  ``total_bytes / bandwidth``.
* **Dedicated media** — with ``shared=False`` every flow drains at the
  full bandwidth regardless of the others (per-node RAM/SSD: each
  writer owns its own device).
* **Cancellation refunds nothing** — a cancelled flow simply leaves the
  active set; virtual time already spent sharing the medium with it is
  gone (no time travel), the survivors only speed up from *now*.
* **Determinism** — completions are engine events ordered by the global
  scheduling sequence, so runs remain reproducible byte-for-byte.

Cost.  The active set is one list kept sorted by ``remaining``.  Every
active flow receives the same ``remaining -= drained`` sequence, and
IEEE subtraction of a common value is monotone (``x <= y`` implies
``fl(x - d) <= fl(y - d)``), so draining can merge two neighbours into a
tie but never invert them: the list stays sorted without re-keying.  The
next completion is ``active[0]``, the flows due now are a prefix, an
admit is one bisection (an append in the common case of a newcomer
larger than every partly drained flow) and a cancel is a bisection plus
a scan over the flows that tie with the victim — O(log n) interpreted
steps and one pointer ``memmove`` per mutation, where a rescan of the
whole set used to be.  Only the drain itself stays linear, once per
*distinct instant* that touches the lane (see :meth:`BandwidthResource.
_advance`).

Sharded simulation (``repro.harness.parallel``) decomposes a *shared*
resource across worker processes by mirroring: the shard owning a flow
runs it for real and exports ``("start", ...)`` / ``("cancel", ...)``
records through :attr:`BandwidthResource.export_sink`; every other
shard replays them as **mirror flows** — members of the active set that
consume a bandwidth share (so the owned flows drain at exactly the
sequential rate) but carry no callbacks, counters, or telemetry.  Two
invariants make the replay exact:

* admissions, completions, and cancellations mutate the active set at
  identical sim times on every shard (starts are admitted at an absolute
  ``admit_at_ns``; completions are recomputed locally from the identical
  piecewise-constant rates; cancels are replayed at their recorded
  instant), so every shard derives the same share timeline; and
* same-instant ordering cannot matter: any event touching the lane first
  *reaps* flows whose bytes already drained (completion wins over a
  same-instant admit or cancel), making the outcome independent of the
  intra-instant event order — which differs across shards.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Engine, EventHandle

#: Sub-byte slack absorbing float drift when deciding a flow finished.
_EPS_BYTES = 1e-3

_REMAINING = attrgetter("remaining")
_ADMIT_SEQ = attrgetter("admit_seq")


class Flow:
    """One transfer in flight on a :class:`BandwidthResource`."""

    __slots__ = (
        "resource",
        "nbytes",
        "remaining",
        "requested_ns",
        "start_ns",
        "end_ns",
        "admit_at_ns",
        "admit_seq",
        "cancelled",
        "on_done",
        "meta",
        "gid",
        "mirror",
    )

    def __init__(
        self,
        resource: "BandwidthResource",
        nbytes: int,
        requested_ns: int,
        on_done: Optional[Callable[["Flow"], None]],
        meta: Optional[Dict[str, Any]],
    ) -> None:
        self.resource = resource
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.requested_ns = requested_ns  # when start_flow was called
        self.start_ns: Optional[int] = None  # when bytes started moving
        self.end_ns: Optional[int] = None
        # Absolute admission time (requested + latency): the
        # instant the flow joins the sharing pool on *every* shard.
        self.admit_at_ns: int = requested_ns
        # Position in the lane's admission order while the flow is in
        # the sharing pool, None before admission and after leaving it.
        self.admit_seq: Optional[int] = None
        self.cancelled = False
        self.on_done = on_done
        self.meta = meta or {}
        # Cross-shard identity of an exported flow (owner shard, seq) —
        # None for flows on unshared lanes or in single-process runs.
        self.gid: Optional[Tuple[int, int]] = None
        # True for a replayed copy of another shard's flow: it occupies
        # a bandwidth share but owns no counters, telemetry, or windows.
        self.mirror = False

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Admission-to-completion time (latency excluded)."""
        if self.end_ns is None or self.start_ns is None:
            raise ValueError("flow still in flight")
        return self.end_ns - self.start_ns

    @property
    def elapsed_ns(self) -> int:
        """Request-to-completion time (latency included)."""
        if self.end_ns is None:
            raise ValueError("flow still in flight")
        return self.end_ns - self.requested_ns


class BandwidthResource:
    """A bandwidth-limited medium draining flows in virtual time."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        bandwidth_bytes_per_s: float,
        shared: bool = True,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(f"{name}: bandwidth must be positive")
        self.engine = engine
        self.name = name
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.shared = shared
        # The sharing pool, ascending by ``remaining`` (module docstring).
        self._active: List[Flow] = []
        self._admit_seq = 0
        self._owned = 0  # non-mirror flows in ``_active``
        self._last_ns = engine.now
        self._tick: Optional[EventHandle] = None
        # Absolute time of the scheduled completion tick (None while the
        # lane is idle) — a conservative lower bound on the next
        # completion, used for the shard coordinator's hold points.
        self.tick_at_ns: Optional[int] = None
        # Sharded mirroring (repro.harness.parallel): when set, every
        # real flow on this (shared) lane is announced through the sink
        # as ("start", lane, gid, nbytes, admit_at_ns) and
        # ("cancel", lane, gid, t_ns) records for the other shards.
        self.export_sink: Optional[Callable[[tuple], None]] = None
        self.shard_tag = 0
        self._gid_seq = 0
        # Counters (benchmarks/tests) — real flows only; mirrors of
        # other shards' flows never touch them.
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_cancelled = 0
        self.bytes_completed = 0

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._active)

    def start_flow(
        self,
        nbytes: int,
        latency_ns: int = 0,
        on_done: Optional[Callable[[Flow], None]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Flow:
        """Begin moving ``nbytes``; the flow joins the sharing pool after
        ``latency_ns`` and completes once its bytes drained."""
        if nbytes < 0:
            raise ValueError("negative size")
        if latency_ns < 0:
            raise ValueError("negative latency")
        flow = Flow(self, nbytes, self.engine.now, on_done, meta)
        self.flows_started += 1
        flow.admit_at_ns = self.engine.now + latency_ns
        if self.export_sink is not None and self.shared:
            flow.gid = (self.shard_tag, self._gid_seq)
            self._gid_seq += 1
            self.export_sink(
                ("start", self.name, flow.gid, nbytes, flow.admit_at_ns)
            )
        if latency_ns > 0:
            self.engine.schedule(latency_ns, self._admit, flow)
        else:
            self._admit(flow)
        return flow

    def mirror_flow(self, gid: Tuple[int, int], nbytes: int) -> Flow:
        """A replayed copy of another shard's flow (sharded runs): it
        joins the sharing pool via ``_admit`` at the exported admission
        time and competes for bandwidth, but fires no user callbacks and
        touches no counters or telemetry."""
        flow = Flow(self, nbytes, self.engine.now, None, None)
        flow.gid = gid
        flow.mirror = True
        return flow

    def cancel(self, flow: Flow) -> bool:
        """Abort a flow.  Time already spent is *not* refunded to anyone;
        survivors re-share the bandwidth from now on.  Returns False if
        the flow already finished (nothing to cancel) — including a flow
        whose bytes fully drained by *now* and is completed (reaped) on
        the spot: completion beats a same-instant cancellation on every
        shard regardless of intra-instant event order."""
        if flow.cancelled or flow.finished:
            return False
        if self._active:
            self._advance()
            self._reap()
            if flow.finished:
                self._replan()
                return False
        flow.cancelled = True
        if not flow.mirror:
            self.flows_cancelled += 1
            if self.export_sink is not None and flow.gid is not None:
                self.export_sink(
                    ("cancel", self.name, flow.gid, self.engine.now)
                )
        if flow.admit_seq is not None:
            active = self._active
            first_tie = bisect_left(active, flow.remaining, key=_REMAINING)
            del active[active.index(flow, first_tie)]
            flow.admit_seq = None
            if not flow.mirror:
                self._owned -= 1
                self._emit_level()
        self._replan()
        return True

    # ------------------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        if flow.cancelled:
            return
        self._advance()
        self._reap()
        flow.start_ns = self.engine.now
        if flow.remaining <= _EPS_BYTES:  # zero-byte flow: latency only
            self._replan()
            self._complete(flow)
            return
        self._admit_seq += 1
        flow.admit_seq = self._admit_seq
        active = self._active
        if active and flow.remaining < active[-1].remaining:
            insort(active, flow, key=_REMAINING)
        else:
            active.append(flow)
        self._replan()
        if not flow.mirror:
            self._owned += 1
            self._emit_level()

    def _emit_level(self) -> None:
        """Occupancy sample: owned (non-mirror) flows only, so merged
        sharded timelines account each real flow exactly once."""
        tele = self.engine.telemetry
        if tele.enabled:
            tele.storage_level(self.name, self.engine.now, self._owned)

    def _rate_bytes_per_ns(self) -> float:
        bw = self.bandwidth_bytes_per_s
        if self.shared and self._active:
            bw /= len(self._active)
        return bw / 1e9

    def _advance(self) -> None:
        """Drain every active flow for the time since the last event.

        Eager on purpose: one multiply and one subtraction per flow per
        *distinct instant* touching the lane.  The lazy alternative —
        give each flow a finish tag in a lane-wide virtual time and
        derive ``remaining`` on demand — re-associates the float
        arithmetic (``(r - a) - b`` becomes ``r - (a + b)``), which can
        move a ``ceil(shortest / rate)`` by 1 ns and with it every
        downstream observable; and draining lazily with the *exact*
        subtraction sequence replays that sequence per flow, which is no
        cheaper than doing it here."""
        now = self.engine.now
        if self._active and now > self._last_ns:
            drained = (now - self._last_ns) * self._rate_bytes_per_ns()
            for f in self._active:
                f.remaining -= drained
        self._last_ns = now

    def _reap(self) -> None:
        """Complete every active flow whose bytes already drained.

        Called by any event touching the lane *before* it mutates the
        active set, so a completion due at this instant lands at this
        instant no matter whether the tick, an admit, or a cancel is
        processed first — intra-instant event order differs across
        shards (and between sequential and sharded runs) and must not
        be observable."""
        active = self._active
        ndue = bisect_right(active, _EPS_BYTES, key=_REMAINING)
        if not ndue:
            return
        due = active[:ndue]
        del active[:ndue]
        # Callbacks fire in admission order: they schedule engine events,
        # whose sequence numbers order everything downstream.
        due.sort(key=_ADMIT_SEQ)
        owned = 0
        for f in due:
            f.admit_seq = None
            if not f.mirror:
                owned += 1
        if owned:
            self._owned -= owned
            self._emit_level()
        for f in due:
            self._complete(f)

    def _replan(self) -> None:
        """(Re)schedule the next completion event."""
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
            self.tick_at_ns = None
        if not self._active:
            return
        rate = self._rate_bytes_per_ns()
        shortest = self._active[0].remaining
        dt = max(1, math.ceil(max(0.0, shortest) / rate))
        self._tick = self.engine.schedule(dt, self._on_tick)
        self.tick_at_ns = self.engine.now + dt

    def _on_tick(self) -> None:
        self._tick = None
        self.tick_at_ns = None
        self._advance()
        self._reap()
        self._replan()

    def _complete(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.end_ns = self.engine.now
        if not flow.mirror:
            self.flows_completed += 1
            self.bytes_completed += flow.nbytes
        if flow.on_done is not None:
            flow.on_done(flow)
