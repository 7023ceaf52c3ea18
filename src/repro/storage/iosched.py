"""Event-driven storage I/O: tier transfers expressed as flows.

The closed-form tier models in :mod:`repro.storage.model` price a
transfer with ``bandwidth / concurrent_writers`` computed at the call
site — so contention has to be *assumed* and nothing can overlap
compute.  The :class:`IOScheduler` turns each tier into a
pair of :class:`~repro.sim.resources.BandwidthResource` objects (write
side and read side, honoring a tier's asymmetric read bandwidth) on the
simulation engine, so concurrent checkpoint flushes, restart reads, and
partner-rebuild copies genuinely share the medium and re-share it as
flows start and finish.

Used by :class:`~repro.storage.backend.TieredBackend` for

* **async checkpoint flushes** (``--storage ...:async``): the shared
  durable tier's copy drains in the background overlapping compute;
* **overlapped restart reads**: each rank reads its delta chain as a
  pipeline of read flows + decompression stages (:class:`ChainRead`),
  with every rank's pipeline in flight concurrently;
* **partner rebuild**: re-replication flows after a failed node returns.

By default a tier's read and write sides are separate resources, so
restart reads do not steal bandwidth from an in-flight flush on the same
tier (the common modeling of PFS read/write lanes, and the only sound
choice when the tier declares an asymmetric read bandwidth).  Tiers
built with ``StorageTier(unified_lane=True)`` instead share ONE lane
between directions: a restore read slows a draining flush and vice
versa, processor-sharing-exact across the mixed flow set.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Engine, EventHandle
from repro.sim.resources import BandwidthResource, Flow
from repro.storage.model import StorageTier


class IOScheduler:
    """Per-tier bandwidth resources plus flow bookkeeping."""

    def __init__(self, engine: Engine, tiers: Sequence[StorageTier]) -> None:
        self.engine = engine
        self._tiers: Dict[str, StorageTier] = {}
        self._write: Dict[str, BandwidthResource] = {}
        self._read: Dict[str, BandwidthResource] = {}
        # Every distinct lane by resource name ("pfs.write", "pfs.read",
        # ...) — the key space of the cross-shard flow records.
        self._lanes: Dict[str, BandwidthResource] = {}
        for t in tiers:
            self._tiers[t.name] = t
            self._write[t.name] = BandwidthResource(
                engine,
                f"{t.name}.write",
                t.bandwidth_bytes_per_s,
                shared=t.shared,
            )
            if t.unified_lane:
                # One lane for both directions: restart reads and
                # in-flight flushes genuinely contend for the same
                # bandwidth (ROADMAP follow-up from PR 4).
                self._read[t.name] = self._write[t.name]
            else:
                self._read[t.name] = BandwidthResource(
                    engine,
                    f"{t.name}.read",
                    t.read_bandwidth_bytes_per_s or t.bandwidth_bytes_per_s,
                    shared=t.shared,
                )
            self._lanes[self._write[t.name].name] = self._write[t.name]
            self._lanes[self._read[t.name].name] = self._read[t.name]
        # Sharded mirroring (enable_shard_mirroring): records exported by
        # this shard's real flows on shared lanes, drained once per
        # window into the worker report, and the registry of mirror
        # flows replaying the *other* shards' records locally.
        self.flow_outbox: Optional[List[tuple]] = None
        self._mirrors: Dict[Tuple[str, Tuple[int, int]], Flow] = {}
        # Completed write flows on *shared* tiers, as (start_ns, end_ns,
        # rank, round_no) windows — the measured (not assumed) PFS burst
        # timeline behind ``SPBC.peak_concurrent_pfs_writers``.
        self.shared_write_windows: List[Tuple[int, int, int, int]] = []

    def tier(self, name: str) -> StorageTier:
        return self._tiers[name]

    # -- sharded mirroring (repro.harness.parallel) --------------------
    def enable_shard_mirroring(self, shard_id: int) -> None:
        """Export every real flow on a *shared* lane as start/cancel
        records (worker report -> coordinator -> other shards), so all
        shards maintain identical active sets on the shared media.
        Unshared lanes (per-node RAM/SSD, partner links) drain each flow
        at full bandwidth regardless of the others, so their completion
        times are shard-local facts that need no mirroring."""
        self.flow_outbox = []
        for res in self._lanes.values():
            if res.shared:
                res.shard_tag = shard_id
                res.export_sink = self.flow_outbox.append

    def drain_flow_records(self) -> List[tuple]:
        out, self.flow_outbox = self.flow_outbox, []
        return out

    def schedule_flow_record(self, rec: tuple) -> None:
        """Replay another shard's exported flow record: create the
        mirror flow now and admit it at the exported absolute time, or
        cancel it at the exported instant.  Admission safety is the
        coordinator's lookahead cap (a shared tier's latency bounds the
        window length), so ``admit_at_ns``/``t_ns`` never lie in this
        shard's past."""
        if rec[0] == "start":
            _kind, lane, gid, nbytes, admit_at_ns = rec
            res = self._lanes[lane]
            key = (lane, tuple(gid))
            flow = res.mirror_flow(key[1], nbytes)
            self._mirrors[key] = flow
            flow.on_done = lambda _f, key=key: self._mirrors.pop(key, None)
            self.engine.schedule_at(admit_at_ns, res._admit, flow)
        else:
            _kind, lane, gid, t_ns = rec
            self.engine.schedule_at(
                t_ns, self._apply_mirror_cancel, lane, tuple(gid)
            )

    def _apply_mirror_cancel(self, lane: str, gid: Tuple[int, int]) -> None:
        flow = self._mirrors.pop((lane, gid), None)
        if flow is not None:
            self._lanes[lane].cancel(flow)

    # ------------------------------------------------------------------
    def write(
        self,
        tier_name: str,
        nbytes: int,
        on_done: Optional[Callable[[Flow], None]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Flow:
        """Start a write flow on ``tier_name`` (latency from the tier)."""
        tier = self._tiers[tier_name]
        meta = dict(meta or {})
        meta.setdefault("tier", tier_name)

        def _done(flow: Flow) -> None:
            if tier.shared:
                self.shared_write_windows.append(
                    (
                        flow.start_ns,
                        flow.end_ns,
                        flow.meta.get("rank", -1),
                        flow.meta.get("round_no", 0),
                    )
                )
            tele = self.engine.telemetry
            if tele.enabled:
                tele.storage_span(
                    "write",
                    f"{tier_name}.write",
                    flow.start_ns,
                    flow.end_ns,
                    args={
                        "bytes": flow.nbytes,
                        "rank": flow.meta.get("rank", -1),
                        "round": flow.meta.get("round_no", 0),
                    },
                )
            if on_done is not None:
                on_done(flow)

        return self._write[tier_name].start_flow(
            nbytes, latency_ns=tier.latency_ns, on_done=_done, meta=meta
        )

    def read(
        self,
        tier_name: str,
        nbytes: int,
        on_done: Optional[Callable[[Flow], None]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Flow:
        """Start a read flow on ``tier_name``'s read side."""
        tier = self._tiers[tier_name]
        meta = dict(meta or {})
        meta.setdefault("tier", tier_name)

        def _done(flow: Flow) -> None:
            tele = self.engine.telemetry
            if tele.enabled:
                tele.storage_span(
                    "read",
                    f"{tier_name}.read",
                    flow.start_ns,
                    flow.end_ns,
                    args={
                        "bytes": flow.nbytes,
                        "rank": flow.meta.get("rank", -1),
                        "round": flow.meta.get("round_no", 0),
                    },
                )
            if on_done is not None:
                on_done(flow)

        return self._read[tier_name].start_flow(
            nbytes, latency_ns=tier.latency_ns, on_done=_done, meta=meta
        )

    def cancel(self, flow: Flow) -> bool:
        return flow.resource.cancel(flow)


class ChainRead:
    """One rank's restart read as a pipeline of flows.

    Links are read base-full first (a delta is useless before its base),
    each link's read flow followed by its modeled decompression stage on
    the CPU.  Different ranks' chains run concurrently and share the
    tiers' read bandwidth; a failure mid-restore cancels the pipeline
    (the bytes already moved are not refunded).
    """

    def __init__(
        self,
        sched: IOScheduler,
        links: Sequence[Tuple[str, int, int]],  # (tier, nbytes, decompress_ns)
        on_done: Callable[["ChainRead"], None],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sched = sched
        self.links = list(links)
        self.on_done = on_done
        self.meta = dict(meta or {})
        self.start_ns = sched.engine.now
        self.end_ns: Optional[int] = None
        self.decompress_ns_total = sum(d for _t, _n, d in self.links)
        self.cancelled = False
        self._flow: Optional[Flow] = None
        self._pending: Optional[EventHandle] = None
        self._pending_at: Optional[int] = None  # decompress completion
        self._next = 0
        self._step()

    @property
    def elapsed_ns(self) -> int:
        if self.end_ns is None:
            raise ValueError("chain read still in flight")
        return self.end_ns - self.start_ns

    @property
    def read_ns(self) -> int:
        """Measured end-to-end time minus the decompression stages."""
        return self.elapsed_ns - self.decompress_ns_total

    def cancel(self) -> None:
        if self.cancelled or self.end_ns is not None:
            return
        self.cancelled = True
        if self._flow is not None:
            self.sched.cancel(self._flow)
            self._flow = None
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
            self._pending_at = None

    def next_event_ns(self) -> Optional[int]:
        """Conservative lower bound on this pipeline's next stage event
        (decompress completion, pending flow admission, or the current
        lane's next completion tick) — the shard coordinator's hold
        point while a flow-based restore is in flight, recomputed every
        window as the pipeline advances."""
        if self._pending_at is not None:
            return self._pending_at
        flow = self._flow
        if flow is not None:
            if flow.start_ns is None:
                return flow.admit_at_ns
            return flow.resource.tick_at_ns
        return None

    # ------------------------------------------------------------------
    def _step(self) -> None:
        if self.cancelled:
            return
        if self._next >= len(self.links):
            self.end_ns = self.sched.engine.now
            self.on_done(self)
            return
        tier, nbytes, _dec = self.links[self._next]
        self._flow = self.sched.read(
            tier, nbytes, on_done=self._link_read, meta=self.meta
        )

    def _link_read(self, _flow: Flow) -> None:
        if self.cancelled:
            return
        self._flow = None
        _tier, _nbytes, dec_ns = self.links[self._next]
        self._next += 1
        if dec_ns > 0:
            self._pending = self.sched.engine.schedule(dec_ns, self._decompressed)
            self._pending_at = self.sched.engine.now + dec_ns
        else:
            self._step()

    def _decompressed(self) -> None:
        self._pending = None
        self._pending_at = None
        self._step()
