"""Online failure injection and partial restart.

This is the capability the paper's prototype lacked ("due to current
limitations of our prototype (no support for partial restart), we cannot
simulate failures", section 6.4) — the simulator gives it to us, so
Algorithm 1's recovery lines (16-26) can be exercised end-to-end:

1. at the failure time every process of the failed cluster is killed, its
   MPI library state is wiped, and all in-flight traffic to/from the
   cluster is purged;
2. after a restart delay each member restarts from its latest coordinated
   checkpoint (or from the initial state when none exists), restores
   (State, Logs), and sends Rollback on its inter-cluster channels;
3. peers reply lastMessage and replay logged messages per channel in
   sequence-number order — with no synchronization among replayers;
4. the restarted application re-executes; its inter-cluster re-sends with
   ``seq <= LS`` are suppressed.

Failure containment is observable: processes outside the failed cluster
are never restarted (their SimProcess objects survive), which the test
suite asserts.

Two failure kinds are modeled:

* ``"process"`` — the cluster's processes die; every checkpoint copy
  survives (RAM partner copies and node-local SSDs outlive a crash);
* ``"node"`` — exactly the *physical node* hosting the target rank dies
  (per-node blast radius, not the whole cluster's machines): every rank
  on that node is killed, checkpoint copies **hosted on that node** in
  tiers with ``survives_node_failure=False`` are invalidated (partner
  copies placed on a buddy node survive), and every cluster with a
  member on the node rolls back to its latest consistent surviving
  round — or to the synthetic round-0 checkpoint when nothing survives.

The node-failure blast radius comes from the world's
:class:`~repro.sim.network.Topology` (node -> ranks mapping at the
configured ranks-per-node).  Because the paper's cluster maps never
split a node across clusters, a node failure usually rolls back exactly
one cluster; with a node-splitting map, every touched cluster restarts.

A cluster restarts from one *consistent* round: the latest round every
member still holds a copy of (a coordinated cut is only consistent when
all members resume from the same round).  Reading the copies back is
charged via the tier's ``read_time_ns`` — the paper's "IO burst when
retrieving the last checkpoint" — and surfaced in :class:`FailureEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.logstore import LogStore
from repro.core.protocol import SPBC
from repro.mpi.context import RankContext
from repro.mpi.runtime import World
from repro.sim.network import Topology
from repro.sim.process import SimProcess
from repro.storage.backend import RestoreReceipt
from repro.util.units import MS

AppFactory = Callable[[RankContext, Optional[dict]], Generator]

FAILURE_KINDS = ("process", "node")


@dataclass
class FailureEvent:
    """One cluster's view of one injected failure.

    A node failure on a node-splitting cluster map emits one event per
    rolled-back cluster.  ``purged_packets`` and ``invalidated_copies``
    are totals for the *whole* injection, recorded on the primary
    event (the cluster containing the injected rank); secondary events
    carry 0 so summing over events never double-counts.  ``rank`` is
    the injected target on the primary event and the cluster's first
    member on secondary ones."""

    time_ns: int
    rank: int
    cluster: int
    restarted_from_round: int
    purged_packets: int = 0
    kind: str = "process"
    # Checkpoint copies lost with the node(s) (node failures only).
    invalidated_copies: int = 0
    # Tier the surviving copy was read from (None: restart from scratch).
    restored_tier: Optional[str] = None
    # Modeled restart-read time added before the cluster comes back.
    restore_read_ns: int = 0
    # Modeled decompression time on the restart path (charged only by
    # async-flush stores' flow restores; always reported).
    restore_decompress_ns: int = 0
    # Background flushes aborted by this failure (async mode): in-flight
    # PFS copies of the dead node never land, so recovery restarts from
    # the last *fully drained* round.  Recorded on the primary event.
    cancelled_flushes: int = 0
    # Partner-rebuild flows started when this event's restart brought
    # the failed node back (re-replication to the returned buddy).
    partner_rebuilds: int = 0
    # Physical node that died (node failures only).
    node: Optional[int] = None
    # Ranks killed by this event that belong to this event's cluster.
    killed_ranks: Tuple[int, ...] = ()
    # True when a later crash of the same cluster replaced this event's
    # pending restart before it ran: restarted_from_round/restored_tier
    # keep their preliminary values and describe no actual restart.
    superseded: bool = False


class RecoveryManager:
    """Injects crashes and drives Algorithm 1's restart side."""

    def __init__(
        self,
        world: World,
        spbc: SPBC,
        app_factory: AppFactory,
        restart_delay_ns: int = 2 * MS,
        topology: Optional[Topology] = None,
    ) -> None:
        self.world = world
        self.spbc = spbc
        self.app_factory = app_factory
        self.restart_delay_ns = restart_delay_ns
        # Node -> ranks placement defining the node-failure blast radius
        # (defaults to the world's own topology).
        self.topology = topology or world.topology
        if topology is not None:
            # An explicit override also governs where the backend thinks
            # copies live (partner placement must match the blast radius).
            spbc.storage.bind_topology(topology)
        self.failures: List[FailureEvent] = []
        self.restarts: Dict[int, int] = {}  # rank -> number of restarts
        # Journal event sink (see repro.journal): completed restarts are
        # emitted here; the crash-side failure facts are journaled by
        # the runner from ``failures`` after the run (their counts are
        # only engine-independent in the merged/final view).
        self.journal = None
        # One pending restart per cluster: a second crash of a cluster
        # that is still down supersedes the queued restart instead of
        # stacking a duplicate incarnation on top of it.
        self._pending_restart: Dict[int, object] = {}
        self._last_event: Dict[int, FailureEvent] = {}
        # Absolute times of the pending restart milestones (the shard
        # coordinator's conservative hold points; see repro.sim.shard).
        self._pending_at: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def inject_failure(self, at_ns: int, rank: int, kind: str = "process") -> None:
        """Schedule a crash at ``at_ns``.

        ``kind="process"`` crashes ``rank``'s processes — the whole
        cluster rolls back, since its checkpoint is a coordinated cut,
        but every storage copy survives.  ``kind="node"`` kills exactly
        the physical node hosting ``rank``: all ranks on that node die,
        copies hosted there in non-surviving tiers are invalidated, and
        every cluster with a member on the node rolls back."""
        if kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {kind!r} "
                f"(valid kinds: {', '.join(FAILURE_KINDS)})"
            )
        self.world.engine.schedule_at(at_ns, self._fail, rank, kind)

    def _fail(self, rank: int, kind: str = "process") -> None:
        clusters = self.spbc.clusters
        if kind == "node":
            node = self.topology.node_of(rank)
            dead_ranks = set(self.topology.ranks_on_node(node))
        else:
            node = None
            dead_ranks = set(clusters.members(clusters.cluster(rank)))
        # Every cluster touched by the blast radius rolls back wholesale:
        # its checkpoint is a coordinated cut, so partial membership
        # cannot survive a member's loss.
        affected = sorted({clusters.cluster(r) for r in dead_ranks})
        members_all: set = set()
        for c in affected:
            members_all |= set(clusters.members(c))
        for r in sorted(members_all):
            proc = self.world.processes.get(r)
            if proc is not None:
                proc.kill()
            self.world.runtimes[r].kill()
        purged = self.world.network.purge_involving(members_all)
        invalidated = 0
        flushes_before = self.spbc.storage.flush_flows_cancelled
        if kind == "node":
            # Per-node blast radius: only copies hosted on the dead node
            # die (partner copies placed on a live buddy node survive),
            # and background flushes sourced from it are aborted — an
            # in-flight PFS copy is not yet a restorable copy.
            invalidated = self.spbc.storage.invalidate_node_copies(dead_ranks)
        cancelled_flushes = self.spbc.storage.flush_flows_cancelled - flushes_before
        if kind == "node":
            # A node loss can strand *other* clusters' in-flight restore
            # reads: a pipeline sourced from a copy that just died (e.g.
            # a partner mirror on the lost node) must not land.  Cancel
            # it and re-plan from what still survives — the partial read
            # is wasted, not refunded.
            for c in [
                c
                for c, pending in self._pending_restart.items()
                if c not in affected
                and isinstance(pending, _FlowRestore)
                and not pending.still_valid(self.spbc.storage)
            ]:
                self._pending_restart[c].cancel()
                self._restart(c)
        primary = clusters.cluster(rank)
        for c in affected:
            ckpt = self.spbc.storage.load_latest(clusters.members(c)[0])
            event = FailureEvent(
                time_ns=self.world.engine.now,
                rank=rank if c == primary else clusters.members(c)[0],
                cluster=c,
                restarted_from_round=ckpt.round_no if ckpt else 0,
                purged_packets=purged if c == primary else 0,
                kind=kind,
                invalidated_copies=invalidated if c == primary else 0,
                cancelled_flushes=cancelled_flushes if c == primary else 0,
                node=node,
                killed_ranks=tuple(sorted(set(clusters.members(c)))),
            )
            self.failures.append(event)
            tele = self.world.engine.telemetry
            if tele.enabled and self._owns_cluster(c):
                # Owner-only: mirrored crash side effects on other shards
                # would double-count the event and duplicate the
                # timeline instants in the merged coordinator view.
                tele.inc("recovery.failures")
                for kr in event.killed_ranks:
                    tele.rank_instant(
                        "failure",
                        kr,
                        event.time_ns,
                        args={"kind": kind, "cluster": c},
                    )
            prev = self._last_event.get(c)
            if prev is not None and c in self._pending_restart:
                prev.superseded = True
            self._last_event[c] = event
            if not self._owns_cluster(c):
                # Sharded simulation: another shard drives this cluster's
                # restart; this world only mirrors the crash side effects.
                continue
            pending = self._pending_restart.get(c)
            if pending is not None:
                pending.cancel()
            self._pending_restart[c] = self.world.engine.schedule(
                self.restart_delay_ns, self._restart, c
            )
            self._pending_at[c] = self.world.engine.now + self.restart_delay_ns

    # ------------------------------------------------------------------
    def _owns_cluster(self, cluster: int) -> bool:
        """Whether this manager drives ``cluster``'s restart (always, in
        single-process mode; shard workers override to their partition)."""
        return True

    def _restart(self, cluster: int) -> None:
        self._pending_restart.pop(cluster, None)
        self._pending_at.pop(cluster, None)
        members = self.spbc.clusters.members(cluster)
        # Defensive: if anything of the cluster is somehow still live
        # (e.g. overlapping failure schedules), take it down first.
        for r in members:
            proc = self.world.processes.get(r)
            if proc is not None and proc.is_live:
                proc.kill()
            if self.world.runtimes[r].alive:
                self.world.runtimes[r].kill()
        # Consistent restart round: the latest round every member can
        # still *reconstruct* (mixing rounds across members would splice
        # two different coordinated cuts).  With the incremental data
        # plane this is chain-aware: a surviving delta whose base died
        # with a node is not restorable, so the cluster falls back to
        # the newest round with a complete chain (usually the last full).
        common = None
        for r in members:
            rounds = set(self.spbc.storage.restorable_rounds(r))
            common = rounds if common is None else common & rounds
        round_no = max(common) if common else 0
        if round_no > 0 and self.spbc.storage.flows_active:
            # Event-driven backends read the chains back as overlapping
            # flows: every member's pipeline is in flight concurrently,
            # genuinely sharing the tiers' read bandwidth, and the
            # cluster comes back when the slowest pipeline finishes.  A
            # second crash mid-restore cancels the pipelines.
            handle = _FlowRestore(self, cluster, members, round_no)
            self._pending_restart[cluster] = handle
            handle.begin()
            return
        # Closed-form restart read (no flows active, so no async flush):
        # the decompression is reported but not charged.
        restores: Dict[int, Optional[RestoreReceipt]] = {}
        read_ns = 0
        decompress_ns = 0
        for r in members:
            rec = (
                self.spbc.storage.retrieve(
                    r, round_no, concurrent_readers=len(members)
                )
                if round_no > 0
                else None
            )
            restores[r] = rec
            if rec is not None:
                read_ns = max(read_ns, rec.read_ns)
                decompress_ns = max(decompress_ns, rec.decompress_ns)
        event = self._last_event.get(cluster)
        if event is not None:
            event.restarted_from_round = round_no
            event.restore_read_ns = read_ns
            event.restore_decompress_ns = decompress_ns
            event.restored_tier = next(
                (rec.tier for rec in restores.values() if rec is not None), None
            )
        if read_ns > 0:
            # The restart-time read burst: the cluster only comes back
            # once every member has its copy off stable storage.
            self._pending_restart[cluster] = self.world.engine.schedule(
                read_ns, self._complete_restart, cluster, restores
            )
            self._pending_at[cluster] = self.world.engine.now + read_ns
        else:
            self._complete_restart(cluster, restores)

    def _finish_flow_restore(
        self,
        cluster: int,
        round_no: int,
        restores: Dict[int, Optional[RestoreReceipt]],
    ) -> None:
        """All of a cluster's restore pipelines completed."""
        event = self._last_event.get(cluster)
        if event is not None:
            recs = [rec for rec in restores.values() if rec is not None]
            event.restarted_from_round = round_no
            event.restore_read_ns = max((r.read_ns for r in recs), default=0)
            event.restore_decompress_ns = max(
                (r.decompress_ns for r in recs), default=0
            )
            event.restored_tier = next((r.tier for r in recs), None)
        self._complete_restart(cluster, restores)

    def _complete_restart(
        self, cluster: int, restores: Dict[int, Optional[RestoreReceipt]]
    ) -> None:
        self._pending_restart.pop(cluster, None)
        self._pending_at.pop(cluster, None)
        members = self.spbc.clusters.members(cluster)
        # Bring every member's library back first, then restore protocol
        # state, then send Rollbacks, then start the apps: Rollbacks must
        # not race a half-restored cluster.
        for r in members:
            self.world.runtimes[r].restart()
        for r in members:
            rt = self.world.runtimes[r]
            rec = restores[r]
            if rec is None:
                # Restarting from the initial state: announce the rollback
                # to every inter-cluster rank (no channels known yet).
                self.spbc.restore_rank(rt, self._initial_checkpoint(r), broadcast=True)
            else:
                self.spbc.restore_rank(rt, rec.ckpt)
        for r in members:
            self.spbc.send_rollbacks(self.world.runtimes[r])
        # Failure notification to every survivor (paper line 16 reaches
        # all processes): survivors knowing channels the restarted side's
        # checkpoint predates ping back, extending the handshake.
        self._notify_survivors(set(members))
        for r in members:
            rec = restores[r]
            state = rec.ckpt.app_state if rec is not None else None
            ctx = RankContext(self.world, r)
            self.restarts[r] = self.restarts.get(r, 0) + 1
            gen = self.app_factory(ctx, state)
            proc = SimProcess(
                self.world.engine, f"rank{r}.inc{self.restarts[r]}", gen
            )
            self.world.processes[r] = proc
            proc.start()
        # The failed node is back with its ranks: re-replicate the
        # partner copies it hosted (owned by its ring predecessors) as
        # background flows, restoring tolerance to a *sequential*
        # failure of the buddy pair (SCR-style rebuild).
        event = self._last_event.get(cluster)
        if (
            event is not None
            and event.kind == "node"
            and event.node is not None
        ):
            event.partner_rebuilds = self.spbc.storage.rebuild_partner_copies(
                event.node
            )
        if self.journal is not None:
            # Only restarts that actually ran reach this point, so the
            # journaled round/tier are never the preliminary values a
            # superseding crash would have invalidated.
            self.journal.emit(
                "restart",
                t=self.world.engine.now,
                cluster=cluster,
                round=event.restarted_from_round if event else 0,
                tier=event.restored_tier if event else None,
            )
        tele = self.world.engine.telemetry
        if tele.enabled:
            now = self.world.engine.now
            t_fail = event.time_ns if event is not None else now
            span_args = {
                "round": event.restarted_from_round if event else 0,
                "tier": event.restored_tier if event else None,
                "cluster": cluster,
            }
            for r in members:
                tele.rank_span("restart", r, t_fail, now, args=span_args)
                rec = restores.get(r)
                read_ns = rec.read_ns if rec is not None else 0
                if read_ns > 0:
                    # The read tail of the outage: the member's chain
                    # came off storage in the final read_ns (overlapping
                    # flow pipelines record their exact windows in the
                    # storage lanes as well).
                    tele.rank_span(
                        "restart-read", r, now - read_ns, now, args=span_args
                    )
            tele.inc("recovery.restarts")

    def _notify_survivors(self, failed: set) -> None:
        """Deliver the failure notification from every surviving rank
        (shard workers override: each shard notifies its own ranks)."""
        for r in range(self.world.nranks):
            rt = self.world.runtimes[r]
            if r not in failed and rt.alive:
                self.spbc.notify_failure(rt, failed)

    def _initial_checkpoint(self, rank: int) -> Checkpoint:
        """Synthetic round-0 checkpoint: restart from the initial state.

        With no saved checkpoint the cluster re-executes from the very
        beginning; peers replay everything (LR = 0 on every channel).
        Rollback announcements are broadcast to every inter-cluster rank
        because a fresh state knows no channels yet.
        """
        return Checkpoint(
            rank=rank,
            round_no=0,
            taken_at_ns=0,
            app_state=None,
            chan_seq={},
            lr={},
            arrived={},
            ls={},
            pattern_state={
                "next_pattern_id": 0,
                "pattern_iters": {},
                "active_ident": (0, 0),
            },
            unexpected=[],
            log_snapshot=LogStore(rank).snapshot(),
        )


class _FlowRestore:
    """One cluster's restart read running as overlapping flow pipelines.

    Stands in for the plain scheduled-event handle in
    ``RecoveryManager._pending_restart``: a later crash of the same
    cluster calls :meth:`cancel`, which aborts every member's pipeline
    (the bytes already read are not refunded — no time travel)."""

    def __init__(
        self,
        manager: RecoveryManager,
        cluster: int,
        members: Sequence[int],
        round_no: int,
    ) -> None:
        self.manager = manager
        self.cluster = cluster
        self.members = list(members)
        self.round_no = round_no
        self.restores: Dict[int, Optional[RestoreReceipt]] = {}
        self.handles: Dict[int, object] = {}
        self.plans: Dict[int, object] = {}
        self.cancelled = False
        self._remaining = len(self.members)

    def begin(self) -> None:
        storage = self.manager.spbc.storage
        for r in self.members:
            # Snapshot the plan the pipeline will execute, so a later
            # failure elsewhere can check whether a source copy died
            # under an in-flight read (still_valid below).
            self.plans[r] = plan = storage.restore_plan(r, self.round_no)
            handle = storage.start_restore(plan, partial(self._member_done, r))
            if handle is not None:
                self.handles[r] = handle

    def still_valid(self, storage) -> bool:
        """True while every copy the pipelines are reading survives.  A
        third-party node failure can invalidate a source copy (e.g. a
        partner mirror on the buddy node) mid-read — the transfer must
        not be allowed to land data the model declared lost."""
        for rank, plan in self.plans.items():
            if rank in self.restores:
                continue  # this member's read already completed
            if plan is None:
                continue
            for link in plan.links:
                if not storage.has_copy(rank, link.round_no, link.tier):
                    return False
        return True

    def cancel(self) -> None:
        self.cancelled = True
        for handle in self.handles.values():
            handle.cancel()
        self.handles.clear()

    def next_event_ns(self) -> Optional[int]:
        """Conservative lower bound on the next pipeline event across
        the cluster's members — and therefore on the restart milestone
        time, which always lands on one of these events.  The shard
        coordinator holds every other shard at this bound (recomputed
        per window) until the completion instant is actually known."""
        bounds = [
            b
            for b in (h.next_event_ns() for h in self.handles.values())
            if b is not None
        ]
        return min(bounds, default=None)

    def _member_done(self, rank: int, receipt: Optional[RestoreReceipt]) -> None:
        if self.cancelled:
            return
        self.handles.pop(rank, None)
        self.restores[rank] = receipt
        self._remaining -= 1
        if self._remaining == 0:
            self.manager._finish_flow_restore(
                self.cluster, self.round_no, self.restores
            )
