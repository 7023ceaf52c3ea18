"""Shard-side machinery for conservative parallel simulation.

A *shard* is one worker process running the ordinary single-process
engine/runtime stack over the **whole** world topology, but executing
application processes only for the ranks of its assigned clusters.  The
pieces here plug into the unmodified simulator:

* :class:`ShardNetwork` — a :class:`~repro.sim.network.Network` whose
  ``send`` computes arrival times exactly like the sequential network
  (sender NIC serialization, per-channel FIFO bumps, channel sequence
  numbers — every directed channel's state lives on the shard owning the
  source rank), but diverts packets addressed to non-owned ranks into an
  outbox instead of delivering locally.  The coordinator relays them to
  the owning shard, which injects them with the precomputed arrival
  time, so a cross-shard message is delivered bit-identically to the
  sequential run.
* :class:`ShardRecoveryManager` — the online-recovery driver restricted
  to a shard: every shard mirrors a failure's global side effects
  (killing dead runtimes, purging in-flight traffic, invalidating
  node-hosted copies) from the statically known schedule, while only the
  shard owning a rolled-back cluster runs the restart machinery.  The
  completion time of a restart is a *hold point* for the coordinator —
  remote survivors must deliver their failure notifications at exactly
  that instant, which is only known when the owning shard executes it.
* :func:`shard_worker_main` — the worker process body: build the world,
  then alternate ``report -> grant -> run(window)`` with the coordinator
  (:mod:`repro.harness.parallel`) until the global event horizon drains.

The synchronization protocol is conservative (YAWNS-style windows): with
``T`` the global minimum next-event time and ``L`` the network lookahead
(``inject_fixed_ns`` + the smallest applicable wire alpha), every send
performed at ``t >= T`` arrives at ``t + L`` or later, so all shards can
safely simulate up to (and excluding) ``T + L`` before exchanging
messages again.  See ``docs/performance.md`` for the derivation.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict
from functools import partial
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.recovery import RecoveryManager, _FlowRestore
from repro.journal.recorder import ListSink, commit_history_of, log_counters_of
from repro.mpi.runtime import World
from repro.sim.engine import Engine, sim_gc
from repro.sim.network import Network, NetworkParams, Packet
from repro.sim.process import ProcessStatus

#: One cross-shard packet on the wire, as relayed through the
#: coordinator: every field the sequential Packet would carry, with the
#: arrival already fixed by the sending shard's channel state.
Export = Tuple[int, int, object, int, int, int, int, int]


class ShardNetwork(Network):
    """Network of one shard: local delivery for owned ranks, export for
    everyone else.

    ``send`` runs the base implementation unconditionally — the sender's
    NIC busy time, the per-channel FIFO bump, and the channel sequence
    number must advance exactly as in the sequential run (the sending
    shard owns every directed channel whose source it owns).  For a
    non-owned destination the freshly registered in-flight entry is
    removed again, turning the already-scheduled delivery event into a
    no-op, and the packet goes to the outbox instead.  The stale heap
    entry only makes the shard's reported next-event time conservative.
    """

    __slots__ = ("owned", "outbox")

    def __init__(self, *args, owned: FrozenSet[int], **kw) -> None:
        super().__init__(*args, **kw)
        self.owned = owned
        self.outbox: List[Export] = []

    def send(self, src: int, dst: int, payload: object, nbytes: int) -> Packet:
        pkt = Network.send(self, src, dst, payload, nbytes)
        if dst not in self.owned:
            # The fid just assigned by the base send is self._flight_ids.
            self._in_flight.pop(self._flight_ids, None)
            self.outbox.append(
                (
                    pkt.src,
                    pkt.dst,
                    pkt.payload,
                    pkt.nbytes,
                    pkt.sent_at,
                    pkt.inject_done_at,
                    pkt.arrives_at,
                    pkt.channel_seq,
                )
            )
        return pkt

    def purge_involving(self, ranks) -> int:
        """Rollback purge, extended to the outbox: an exported packet
        still waiting for the window boundary is in flight exactly like
        a locally registered one (its arrival is always beyond the
        current window, so it cannot have been delivered yet)."""
        purged = super().purge_involving(ranks)
        rset = set(ranks)
        kept: List[Export] = []
        for export in self.outbox:
            if export[0] in rset or export[1] in rset:
                purged += 1
            else:
                kept.append(export)
        self.outbox = kept
        return purged

    def inject(self, export: Export) -> None:
        """Register a relayed packet for local delivery at its original
        arrival time.  Counters are not touched (the sending shard
        already accounted for the send); the packet joins ``_in_flight``
        so a rollback's ``purge_involving`` drops it exactly like a
        locally in-flight packet."""
        src, dst, payload, nbytes, sent_at, inject_done_at, arrives_at, seq = export
        pkt = Packet(src, dst, payload, nbytes, sent_at, inject_done_at, arrives_at, seq)
        fid = self._flight_ids = self._flight_ids + 1
        engine = self.engine
        engine._seq += 1
        engine._push((arrives_at, engine._seq, None, self._deliver, (fid,)))
        self._in_flight[fid] = pkt


def lookahead_ns(params: NetworkParams, topology, shard_of_rank: Sequence[int]) -> int:
    """Conservative network lookahead for a shard partition.

    Every transfer arrives at least ``inject_fixed_ns + alpha`` after the
    send is issued (injection bandwidth, wire beta, jitter, and FIFO
    bumps only add to that).  The applicable alpha is the inter-node one
    unless some physical node is split across shards — then a cross-shard
    message can ride the intra-node wire and the bound drops to
    ``alpha_intra_ns``."""
    alpha = params.alpha_inter_ns
    for node in range(topology.nnodes):
        shards = {shard_of_rank[r] for r in topology.ranks_on_node(node)}
        if len(shards) > 1:
            alpha = min(alpha, params.alpha_intra_ns)
            break
    return params.inject_fixed_ns + alpha


class ShardRecoveryManager(RecoveryManager):
    """Per-shard restart driver with globally mirrored crash effects.

    Every shard holds the full (static) failure schedule, so each one
    independently executes ``_fail`` at the failure time: runtimes of the
    dead ranks are killed everywhere, in-flight packets (including
    relayed imports) are purged everywhere, and node-hosted checkpoint
    copies are invalidated on whichever shard stores them.  Only the
    shard owning an affected cluster schedules and runs the restart; it
    reports the completion as a *milestone* so every other shard can
    deliver its own survivors' failure notifications (and rebuild its
    partner copies after a node returns) at exactly the same instant.
    """

    def __init__(
        self,
        *args,
        owned_clusters: FrozenSet[int],
        owned_ranks: FrozenSet[int],
        **kw,
    ) -> None:
        super().__init__(*args, **kw)
        self.owned_clusters = owned_clusters
        self.owned_ranks = owned_ranks
        #: Completed restarts not yet reported to the coordinator:
        #: (time_ns, cluster, members, failed_node_or_None).
        self.milestones: List[Tuple[int, int, Tuple[int, ...], Optional[int]]] = []

    def _owns_cluster(self, cluster: int) -> bool:
        return cluster in self.owned_clusters

    def _notify_survivors(self, failed: set) -> None:
        # Only this shard's ranks: a survivor's PEER_HELLO goes through
        # network.send, which mutates the sender's NIC and channel state
        # — state that must only ever advance on the shard owning the
        # sending rank.
        for r in sorted(self.owned_ranks):
            rt = self.world.runtimes[r]
            if r not in failed and rt.alive:
                self.spbc.notify_failure(rt, failed)

    def _complete_restart(self, cluster, restores) -> None:
        super()._complete_restart(cluster, restores)
        event = self._last_event.get(cluster)
        node = event.node if event is not None and event.kind == "node" else None
        self.milestones.append(
            (
                self.world.engine.now,
                cluster,
                tuple(self.spbc.clusters.members(cluster)),
                node,
            )
        )

    def drain_milestones(self):
        out, self.milestones = self.milestones, []
        return out

    def hold_ns(self) -> Optional[int]:
        """Earliest pending restart milestone on this shard, if any.

        The coordinator must not let any other shard advance past this
        time: executing the milestone emits same-instant remote actions
        (survivor notifications, flush cancellations on other shards).
        Scheduled restarts hold at their known absolute time
        (``_pending_at``); a flow-based restore's completion instant is
        unknown until it happens, so it holds at the pipeline's next
        event — a conservative bound that advances every window."""
        bounds = list(self._pending_at.values())
        for pending in self._pending_restart.values():
            if isinstance(pending, _FlowRestore):
                b = pending.next_event_ns()
                if b is not None:
                    bounds.append(b)
        return min(bounds, default=None)

    def mirror_restart(
        self, cluster: int, members: Tuple[int, ...], node: Optional[int]
    ) -> None:
        """Non-owning shard's share of a completed restart: deliver the
        failure notification from this shard's survivors, and re-mirror
        partner copies onto the returned node.  Rebuild flows started
        here re-replicate *this* shard's ranks' copies; their count is
        recorded on the shard-local failure event so the coordinator's
        merge sums to the sequential ``partner_rebuilds`` total."""
        failed = set(members)
        self._notify_survivors(failed)
        if node is not None:
            started = self.spbc.storage.rebuild_partner_copies(node)
            if started:
                event = self._last_event.get(cluster)
                if event is not None:
                    event.partner_rebuilds += started


class _ShardWorld(World):
    """World whose engine is sized by the shard's owned ranks and whose
    network exports packets addressed outside the shard."""

    def __init__(self, owned_ranks: FrozenSet[int], *args, **kw) -> None:
        self._shard_owned = owned_ranks
        super().__init__(*args, **kw)

    def _make_engine(self, nranks: int) -> Engine:
        return Engine(len(self._shard_owned))

    def _make_network(self, net_params, seed: int) -> Network:
        return ShardNetwork(
            self.engine, self.topology, net_params, seed=seed,
            owned=self._shard_owned,
        )


def build_shard_world(plan) -> Tuple[World, ShardRecoveryManager]:
    """Construct one shard's world from a :class:`ShardPlan`
    (see :mod:`repro.harness.parallel`): the run's one world builder,
    restricted to the owned ranks, with the exporting network and the
    mirroring recovery manager swapped in."""
    from repro.harness.runner import build_world

    sink = telemetry = None
    if plan.journal:
        # Owned-rank journal events (commits, gc, restarts) accumulate
        # in-process; the summary ships them to the coordinator, which
        # owns the actual journal file.
        sink = ListSink()
    if plan.telemetry:
        # Shard-local recorder: the `shard` id keys the engine lane so
        # the coordinator's merge keeps per-shard queue-depth rows apart.
        from repro.obs import Telemetry

        telemetry = Telemetry(shard=plan.shard_id)
    world, manager = build_world(
        plan.spec,
        sink,
        telemetry,
        ranks=sorted(plan.owned_ranks),
        world_cls=partial(_ShardWorld, plan.owned_ranks),
        manager_cls=partial(
            ShardRecoveryManager,
            owned_clusters=plan.owned_clusters,
            owned_ranks=plan.owned_ranks,
        ),
    )
    storage = world.hooks.storage
    if storage is not None and storage.flows_active:
        # Async tiered storage: this shard's flows on shared lanes are
        # exported to (and mirrored from) the other shards, so every
        # shard computes the same piecewise-constant bandwidth shares.
        storage.iosched.enable_shard_mirroring(plan.shard_id)
    return world, manager


def _summarize(world, manager, owned_ranks: FrozenSet[int]) -> Dict[str, Any]:
    """Everything the coordinator needs to merge this shard into a
    sequential-shaped result (all plain picklable data)."""
    owned = sorted(owned_ranks)
    procs = {r: world.processes[r] for r in owned}
    spbc = world.hooks
    storage = spbc.storage
    return {
        "finish_ns": {r: p.finish_time for r, p in procs.items()},
        "results": {r: p.result for r, p in procs.items()},
        "log": log_counters_of(spbc, owned),
        "commits": commit_history_of(spbc, owned),
        # Sparse (src, dst) -> bytes of the owned senders: a dense n x n
        # matrix per shard would dwarf the run at scale.  Warp, the
        # trace's other contributor, never runs sharded.
        "comm_pairs": (
            world.trace.send_pair_bytes() if world.trace.enabled else None
        ),
        "pfs_write_windows": list(spbc.pfs_write_windows),
        "shared_flow_windows": list(storage.shared_flow_windows()),
        # Background-flow accounting (async mode; zeros otherwise).
        # Each shard counts only its own real flows, so the
        # coordinator's sums equal the sequential counters.
        "storage_counters": {
            "flush_flows_started": storage.flush_flows_started,
            "flush_flows_completed": storage.flush_flows_completed,
            "flush_flows_cancelled": storage.flush_flows_cancelled,
            "rebuild_flows_started": storage.rebuild_flows_started,
            "rebuild_flows_completed": storage.rebuild_flows_completed,
        },
        # Rounds each owned rank could restore at the end of the run —
        # the "drained rounds" observable (a flush that never landed is
        # not restorable).
        "drained_rounds": {r: list(storage.restorable_rounds(r)) for r in owned},
        "ckpt_stall_ns": sum(spbc.ckpt_stall_ns.values()),
        "overhead_ns": sum(world.runtimes[r].overhead_total_ns for r in owned),
        "compute_ns": sum(world.runtimes[r].compute_total_ns for r in owned),
        "packets_sent": world.network.packets_sent,
        "bytes_sent": world.network.bytes_sent,
        "events_executed": world.engine.events_executed,
        "failures": [asdict(e) for e in manager.failures],
        "restarts": dict(manager.restarts),
        "journal_events": (
            list(spbc.journal.events) if spbc.journal is not None else []
        ),
        "telemetry": (
            world.telemetry.snapshot() if world.telemetry.enabled else None
        ),
    }


def _check_owned(world, owned_ranks: FrozenSet[int]) -> Optional[str]:
    """First fatal condition among the shard's processes, or None."""
    for r in sorted(owned_ranks):
        proc = world.processes[r]
        if proc.exception is not None:
            return f"rank {r} raised: {proc.exception!r}"
    return None


def shard_worker_main(conn, plan) -> None:
    """Worker process body: report/grant windows until finalized.

    Wire protocol (all messages are tuples; first element is the kind):

    * worker -> coordinator: ``("report", dict)`` after every window,
      or ``("error", traceback_str)`` on any failure.
    * coordinator -> worker:
      ``("grant", horizon_ns, imports, actions, flow_records)`` to
      simulate up to (excluding) ``horizon_ns``, after injecting the
      relayed ``imports``, scheduling the restart-mirror ``actions``,
      and scheduling the other shards' shared-lane ``flow_records``
      (mirror admissions/cancellations — async storage only, else
      empty); ``("finalize",)`` to reply with the merged summary and
      exit.
    """
    # The window loop calls engine.run directly, so the GC scope
    # World.run would apply is taken here, sized by the ranks this
    # worker actually simulates.
    with sim_gc(len(plan.owned_ranks)):
        _shard_worker_loop(conn, plan)


def _shard_worker_loop(conn, plan) -> None:
    try:
        world, manager = build_shard_world(plan)
        engine = world.engine
        net: ShardNetwork = world.network
        owned = plan.owned_ranks
        iosched = world.hooks.storage.iosched
        mirroring = iosched is not None and iosched.flow_outbox is not None

        def report() -> Dict[str, Any]:
            done = all(
                world.processes[r].status is ProcessStatus.DONE for r in owned
            )
            next_ns = engine.next_event_time()
            # Only the coordinator's deadlock error reads the blocked
            # names, and it can fire only when no shard has a next event.
            blocked = (
                [
                    world.processes[r].name
                    for r in sorted(owned)
                    if world.processes[r].status is not ProcessStatus.DONE
                ]
                if next_ns is None and not done
                else []
            )
            exports, net.outbox = net.outbox, []
            return {
                "next_ns": next_ns,
                "hold_ns": manager.hold_ns(),
                "exports": exports,
                "milestones": manager.drain_milestones(),
                "flows": iosched.drain_flow_records() if mirroring else [],
                "done": done,
                "blocked": blocked,
                "now_ns": engine.now,
            }

        conn.send(("report", report()))
        while True:
            msg = conn.recv()
            if msg[0] == "finalize":
                conn.send(("summary", _summarize(world, manager, owned)))
                return
            _kind, horizon, imports, actions, flow_records = msg
            for rec in flow_records:
                iosched.schedule_flow_record(rec)
            for at_ns, cluster, members, node in actions:
                engine.schedule_at(
                    at_ns, manager.mirror_restart, cluster, members, node
                )
            # Deterministic cross-source injection order: equal-arrival
            # imports from different shards get their delivery sequence
            # from this globally agreed sort, not from relay timing.
            for export in sorted(imports, key=lambda e: (e[6], e[4], e[0], e[7])):
                net.inject(export)
            engine.run(until_ns=horizon - 1, detect_deadlock=False)
            failure = _check_owned(world, owned)
            if failure is not None:
                conn.send(("error", failure))
                return
            conn.send(("report", report()))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
