"""The checkpoint store.

The protocol's stable-storage abstraction ("save (State, Logs), read it
back at restart") is decoupled here from *where* the bytes live and what
that costs.  One store, :class:`TieredBackend`, executes a
:class:`~repro.storage.multilevel.MultiLevelPlan`: each checkpoint round
writes to the tiers the plan schedules, write/read time comes from the
:class:`~repro.storage.model.StorageTier` cost models (including
shared-PFS contention), and every copy remembers which tier holds it so
a node failure can invalidate the copies that died with the node.  The
paper's experimental configuration (free writes, every copy survives any
failure) is the one-tier ``memory`` plan, the default.

The store returns receipts instead of charging time itself: the protocol
charges ``SaveReceipt.write_ns`` to the simulation clock inside the
coordinated checkpoint, and the recovery manager delays the restart by
``RestoreReceipt.read_ns`` (the paper's "IO burst when retrieving the
last checkpoint").

With ``async_flush=True`` (spec suffix ``:async``) shared-tier (PFS)
writes move onto the event-driven I/O scheduler
(:mod:`repro.storage.iosched`): the receipt charges only the local
tiers, the PFS copy drains as a background flow overlapping compute,
and it becomes restorable only when the flow lands — see
``docs/storage.md``.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.ckptdata.compression import compression_model
from repro.obs import NULL_TELEMETRY
from repro.storage.iosched import ChainRead, IOScheduler
from repro.storage.model import (
    StorageTier,
    local_ssd_tier,
    memory_tier,
    partner_tier,
    pfs_tier,
    ram_tier,
)
from repro.storage.multilevel import MultiLevelPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a core<->storage cycle)
    from repro.core.checkpoint import Checkpoint
    from repro.sim.engine import Engine
    from repro.sim.network import Topology
    from repro.sim.resources import Flow


@dataclass(frozen=True)
class SaveReceipt:
    """Outcome of persisting one checkpoint."""

    round_no: int
    write_ns: int  # modeled time, charged to the writer's simulation clock
    tiers: Tuple[str, ...]  # tiers that received a copy this round
    durable: bool  # True when some copy this round survives node failure
    # Tiers whose copy is still draining in the background (async flush).
    # Such a copy is NOT yet restorable: it registers only when its flow
    # completes, and a failure mid-flush cancels it.
    pending_tiers: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RoundWrites:
    """What one checkpoint round writes under the store's plan.

    Decided once per residue of the plan's cycle
    (:meth:`TieredBackend.round_writes`); the closed-form charge, the
    save and the background flushes only execute it."""

    committed: Tuple[StorageTier, ...]  # written inside the commit
    # Drained behind the commit under async flush: the shared tiers and
    # the ``background_drain`` ones.
    deferred: Tuple[StorageTier, ...]
    # Some tier this round writes, deferred ones included, is shared
    # (the PFS): the rounds the data plane forces a full payload on and
    # the protocol records a PFS write window for.
    shared_scheduled: bool

    def commit_ns(self, nbytes: int, concurrent_writers: int = 1) -> int:
        """Closed-form time of the writes inside the commit."""
        return sum(t.write_time_ns(nbytes, concurrent_writers) for t in self.committed)

    def shared_commit_ns(self, nbytes: int, concurrent_writers: int = 1) -> int:
        """The shared-tier (PFS) part of :meth:`commit_ns`."""
        return sum(
            t.write_time_ns(nbytes, concurrent_writers)
            for t in self.committed
            if t.shared
        )


@dataclass(frozen=True)
class RestoreReceipt:
    """Outcome of reading one checkpoint back at restart."""

    ckpt: "Checkpoint"
    tier: str  # tier the copy was read from
    read_ns: int  # modeled restart-read time (sums over a delta chain)
    # Rounds read to reconstruct the state, base-full first.  Empty for
    # payload-less checkpoints (the opaque-blob model reads one round).
    chain: Tuple[int, ...] = ()
    # Modeled decompression CPU time to reinflate the chain's payloads
    # (charged to the restart only by async-flush flow restores — the
    # seed's closed-form path keeps its original read-only delay).
    decompress_ns: int = 0


@dataclass(frozen=True)
class RestoreLink:
    """One chain link of a flow-based restart read."""

    round_no: int
    tier: str
    nbytes: int
    decompress_ns: int


@dataclass(frozen=True)
class RestorePlan:
    """A restart read expressed as sequential link stages (base first),
    executable either closed-form (sum the links) or as overlapping
    flows on the I/O scheduler."""

    ckpt: "Checkpoint"  # the target round's checkpoint
    tier: str  # tier the target round is read from
    chain: Tuple[int, ...]
    links: Tuple[RestoreLink, ...] = ()


class TieredBackend:
    """Where checkpoints live and what writing/reading them costs:
    executes a :class:`MultiLevelPlan` with per-tier cost accounting.

    With a bound :class:`~repro.sim.network.Topology`, copies are placed
    by *node*: regular volatile tiers (ram, ssd) live on the owner's
    node, the ``partner`` tier lives on the buddy node's RAM (ring
    partner, SCR/FTI style).  A node failure then invalidates exactly
    the copies hosted on the lost nodes — a partner copy survives the
    owner's node dying and is lost only when the buddy dies.

    ``async_flush=True`` (spec suffix ``:async``) switches shared-tier
    (PFS) writes to the event-driven I/O scheduler: the coordinated
    checkpoint commits once the local tiers land, the PFS copy drains in
    the background as a bandwidth flow overlapping compute, and the copy
    becomes restorable only when the flow completes — a failure
    mid-flush cancels the flow, so recovery restarts from the last
    *fully drained* round, and the restart reads charge the payloads'
    modeled decompression time.
    """

    def __init__(
        self,
        plan: MultiLevelPlan,
        async_flush: bool = False,
    ) -> None:
        self.plan = plan
        names = [t.name for t in plan.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in plan: {names}")
        self.async_flush = async_flush
        # rank -> round -> tier name -> checkpoint copy
        self._copies: Dict[int, Dict[int, Dict[str, "Checkpoint"]]] = {}
        self._durable_tiers = frozenset(
            t.name for t in plan.tiers if t.survives_node_failure
        )
        # residue of the plan's cycle -> that round's RoundWrites
        self._writes: Dict[int, RoundWrites] = {}
        # rank -> guaranteed_round(rank), valid until ``_copies[rank]``
        # next changes: every site that writes or deletes a copy drops
        # the rank's entry (save, _flow_landed, invalidate_node_copies).
        self._guaranteed: Dict[int, int] = {}
        self._all_rounds: Dict[int, List[int]] = {}
        # rank -> every round below this one has had its body released
        self._released_below: Dict[int, int] = {}
        self.tier_writes: Dict[str, int] = {t.name: 0 for t in plan.tiers}
        self.tier_bytes: Dict[str, int] = {t.name: 0 for t in plan.tiers}
        self.writes = 0  # save() calls (checkpoint commits)
        self.bytes_written = 0  # modeled bytes across all copies
        self.write_ns_total = 0
        self.invalidated_copies = 0
        self._topology: Optional["Topology"] = None
        # Event-driven I/O (built at bind_engine).
        self.iosched: Optional[IOScheduler] = None
        self._inflight: Dict[int, List["Flow"]] = {}  # rank -> live flows
        self._rebuilding: Set[Tuple[int, int]] = set()  # (rank, round)
        self.flush_flows_started = 0
        self.flush_flows_completed = 0
        self.flush_flows_cancelled = 0
        self.rebuild_flows_started = 0
        self.rebuild_flows_completed = 0
        self.background_write_ns_total = 0  # flow durations, not app stall

    def bind_topology(self, topology: "Topology") -> None:
        """Tell the store where ranks physically live (partner copies
        are placed by node).  Called once when the protocol attaches to
        a world."""
        self._topology = topology

    def bind_engine(self, engine: "Engine") -> None:
        """Give the store the simulation engine, for the
        :class:`~repro.storage.iosched.IOScheduler` that runs background
        I/O flows (async flush, partner rebuild, overlapped restart
        reads).  Called once when the protocol attaches to a world."""
        if self.iosched is not None and self.iosched.engine is engine:
            return
        self.iosched = IOScheduler(engine, self.plan.tiers)

    @property
    def flows_active(self) -> bool:
        """True when restart reads and flushes run as flows on the I/O
        scheduler (async mode with a bound engine)."""
        return self.async_flush and self.iosched is not None

    @property
    def writes_free(self) -> bool:
        """True when no tier of the plan costs anything to write (the
        ``memory`` plan): there is no write cost to optimise a cadence
        against, and a zero-byte checkpoint models nothing wrong."""
        return all(
            t.latency_ns == 0 and t.bandwidth_bytes_per_s == math.inf
            for t in self.plan.tiers
        )

    def _telemetry(self):
        """The bound engine's telemetry (null until bind_engine)."""
        if self.iosched is None:
            return NULL_TELEMETRY
        return self.iosched.engine.telemetry

    def _tier(self, name: str) -> StorageTier:
        for t in self.plan.tiers:
            if t.name == name:
                return t
        raise KeyError(name)

    def host_node(self, tier_name: str, rank: int) -> Optional[int]:
        """Node a copy of ``rank`` in ``tier_name`` physically lives on
        (None without a bound topology).  Partner copies live on the next
        node around the ring; everything else on the owner's node."""
        if self._topology is None:
            return None
        node = self._topology.node_of(rank)
        if tier_name == "partner":
            return (node + 1) % self._topology.nnodes
        return node

    def round_writes(self, round_no: int) -> RoundWrites:
        """The plan's decision for checkpoint round ``round_no``: which
        tiers it writes inside the commit, which drain behind it, and
        whether a shared tier is scheduled.  Built once per residue of the plan's cycle from
        :meth:`MultiLevelPlan.tiers_written`.  Under async flush the
        shared tiers, plus node-local tiers that declare
        ``background_drain`` (the local SSD: its copy drains behind the
        commit exactly like a PFS flush, and a node loss mid-drain
        cancels it), move from the commit to the background."""
        residue = round_no % self.plan.cycle
        writes = self._writes.get(residue)
        if writes is None:
            written = self.plan.tiers_written(residue)
            deferred = tuple(
                t for t in written
                if self.async_flush and (t.shared or t.background_drain)
            )
            writes = self._writes[residue] = RoundWrites(
                committed=tuple(t for t in written if t not in deferred),
                deferred=deferred,
                shared_scheduled=any(t.shared for t in written),
            )
        return writes

    def write_cost_ns(self, ckpt: "Checkpoint", concurrent_writers: int = 1) -> int:
        """Modeled time to persist ``ckpt``, without committing it.

        The protocol charges this to the simulation clock *before*
        calling :meth:`save`: a copy must not become restorable until
        its write has finished (a failure mid-write falls back to the
        previous round)."""
        return self.round_writes(ckpt.round_no).commit_ns(
            ckpt.stored_bytes, concurrent_writers
        )

    def amortized_write_cost_ns(
        self, nbytes: int, concurrent_writers: int = 1
    ) -> int:
        """Expected per-round cost of writing ``nbytes``: the mean over
        one whole cycle of the plan.  Feeds the Young/Daly cadence when
        the data plane supplies an *expected* payload size instead of
        the committed round's actual one.  Under async flush the app
        only stalls for the committed tiers — the PFS/SSD drains overlap
        compute, so the cadence optimizes against the *stall* cost, not
        the hidden drain."""
        cycle = self.plan.cycle
        return sum(
            self.round_writes(r).commit_ns(nbytes, concurrent_writers)
            for r in range(1, cycle + 1)
        ) // cycle

    def save(self, ckpt: "Checkpoint", concurrent_writers: int = 1) -> SaveReceipt:
        writes = self.round_writes(ckpt.round_no)
        if writes.deferred and self.iosched is None:
            raise RuntimeError(
                "async flush needs the simulation engine for its I/O "
                "scheduler; the protocol binds one at attach() — call "
                "backend.bind_engine(engine) when driving the backend "
                "directly"
            )
        write_ns = 0
        per_round = self._copies.setdefault(ckpt.rank, {}).setdefault(
            ckpt.round_no, {}
        )
        tele = self._telemetry()
        for t in writes.committed:
            write_ns += t.write_time_ns(ckpt.stored_bytes, concurrent_writers)
            per_round[t.name] = ckpt
            self.tier_writes[t.name] += 1
            self.tier_bytes[t.name] += ckpt.stored_bytes
            self.bytes_written += ckpt.stored_bytes
            if tele.enabled:
                tele.inc("storage.tier_bytes", ckpt.stored_bytes, tier=t.name)
        for t in writes.deferred:
            self._start_flush(t, ckpt)
        self._guaranteed.pop(ckpt.rank, None)
        self.writes += 1
        self.write_ns_total += write_ns
        rounds = self._all_rounds.setdefault(ckpt.rank, [])
        if ckpt.round_no not in rounds:
            # A rolled-back cluster re-takes rounds it already saved;
            # keep the history sorted and duplicate-free.
            insort(rounds, ckpt.round_no)
        return SaveReceipt(
            round_no=ckpt.round_no,
            write_ns=write_ns,
            tiers=tuple(t.name for t in writes.committed),
            durable=any(t.survives_node_failure for t in writes.committed),
            pending_tiers=tuple(sorted(t.name for t in writes.deferred)),
        )

    # -- background flushes (async mode) -------------------------------
    def _start_flush(self, tier: StorageTier, ckpt: "Checkpoint") -> None:
        # A rolled-back cluster re-taking a round supersedes any stale
        # in-flight flush of the same (rank, round, tier).
        for old in list(self._inflight.get(ckpt.rank, [])):
            if (
                old.meta.get("round_no") == ckpt.round_no
                and old.meta.get("tier") == tier.name
            ):
                self._cancel_flow(old)
        meta = {
            "kind": "flush",
            "rank": ckpt.rank,
            "round_no": ckpt.round_no,
            "tier": tier.name,
            "ckpt": ckpt,
            "src_node": self.host_node(tier.name, ckpt.rank),
        }
        flow = self.iosched.write(
            tier.name, ckpt.stored_bytes, on_done=self._flow_landed, meta=meta
        )
        self._inflight.setdefault(ckpt.rank, []).append(flow)
        self.flush_flows_started += 1

    def _flow_landed(self, flow: "Flow") -> None:
        """A background flow completed: the copy becomes restorable."""
        rank = flow.meta["rank"]
        live = self._inflight.get(rank)
        if live is not None and flow in live:
            live.remove(flow)
            if not live:
                del self._inflight[rank]
        ckpt: "Checkpoint" = flow.meta["ckpt"]
        name = flow.meta["tier"]
        per_round = self._copies.setdefault(rank, {}).setdefault(
            ckpt.round_no, {}
        )
        per_round[name] = ckpt
        self._guaranteed.pop(rank, None)
        self.tier_writes[name] += 1
        self.tier_bytes[name] += ckpt.stored_bytes
        self.bytes_written += ckpt.stored_bytes
        tele = self._telemetry()
        if tele.enabled:
            tele.inc("storage.tier_bytes", ckpt.stored_bytes, tier=name)
        self.background_write_ns_total += flow.duration_ns
        if flow.meta["kind"] == "flush":
            self.flush_flows_completed += 1
        else:
            self.rebuild_flows_completed += 1
            self._rebuilding.discard((rank, ckpt.round_no))

    def _cancel_flow(self, flow: "Flow") -> bool:
        rank = flow.meta["rank"]
        if self.iosched is not None and not self.iosched.cancel(flow):
            # The flow's bytes had fully drained by this very instant:
            # the lane completed (reaped) it instead of cancelling —
            # ``_flow_landed`` already ran and the copy is restorable.
            return False
        live = self._inflight.get(rank)
        if live is not None and flow in live:
            live.remove(flow)
            if not live:
                del self._inflight[rank]
        if flow.meta["kind"] == "flush":
            self.flush_flows_cancelled += 1
        else:
            self._rebuilding.discard((rank, flow.meta["round_no"]))
        return True

    def cancel_inflight_above(self, rank: int, round_no: int) -> int:
        """A restarted rank is re-executing rounds above ``round_no``:
        abort its in-flight background flushes for those rounds (the
        re-execution will commit fresh copies; letting a stale flow land
        would register a dead incarnation's cut).  Returns the number of
        flows cancelled."""
        cancelled = 0
        for flow in list(self._inflight.get(rank, [])):
            if flow.meta["round_no"] > round_no:
                if self._cancel_flow(flow):
                    cancelled += 1
        return cancelled

    def shared_flow_windows(self) -> List[Tuple[int, int, int, int]]:
        """Completed background write bursts on shared tiers, as
        ``(start_ns, end_ns, rank, round_no)`` — the *measured* PFS
        timeline feeding ``SPBC.peak_concurrent_pfs_writers``."""
        if self.iosched is None:
            return []
        return list(self.iosched.shared_write_windows)

    def invalidate_node_copies(self, ranks: Iterable[int]) -> int:
        """The node(s) hosting ``ranks`` were lost: drop every checkpoint
        copy *hosted on those nodes* whose tier does not survive node
        failure.  With a bound topology this includes copies owned by
        ranks on other nodes but placed here (partner copies).  Returns
        the number of copies invalidated."""
        dropped = 0
        dead = set(ranks)
        if self._topology is None:
            # No placement information: conservatively drop every
            # volatile copy owned by the dead ranks (pre-topology model).
            for rank in dead:
                for per_round in self._copies.get(rank, {}).values():
                    for name in [
                        n
                        for n in per_round
                        if not self._tier(n).survives_node_failure
                    ]:
                        del per_round[name]
                        dropped += 1
            self._guaranteed.clear()
            self.invalidated_copies += dropped
            self._cancel_dead_flows(dead, dead_nodes=None)
            return dropped
        dead_nodes = {self._topology.node_of(r) for r in dead}
        # Placement-aware blast radius: a copy dies when the node hosting
        # it died — including partner copies owned by ranks on *live*
        # nodes whose buddy was lost.
        for rank, per_rank in self._copies.items():
            for per_round in per_rank.values():
                for name in [
                    n
                    for n in per_round
                    if not self._tier(n).survives_node_failure
                    and self.host_node(n, rank) in dead_nodes
                ]:
                    del per_round[name]
                    dropped += 1
        self._guaranteed.clear()
        self.invalidated_copies += dropped
        self._cancel_dead_flows(dead, dead_nodes)
        return dropped

    def _cancel_dead_flows(
        self, dead_ranks: Set[int], dead_nodes: Optional[Set[int]]
    ) -> None:
        """A lost node takes its in-flight background flows with it: a
        flush sourced from the dead node never lands (the data it was
        draining died in RAM), and a rebuild copy headed *to* a dead
        node has nowhere to land."""
        for flows in list(self._inflight.values()):
            for flow in list(flows):
                src = flow.meta.get("src_node")
                dst = flow.meta.get("dst_node")
                doomed = (
                    flow.meta["rank"] in dead_ranks
                    if dead_nodes is None
                    else (src in dead_nodes or dst in dead_nodes)
                )
                if doomed:
                    self._cancel_flow(flow)

    # -- delta chains --------------------------------------------------
    def _chain_rounds(self, rank: int, round_no: int) -> Optional[List[int]]:
        """Rounds needed to reconstruct ``round_no``, base-full first.

        Walks ``payload.base_round`` links.  Returns None when any link
        (including ``round_no`` itself) has no surviving copy — a delta
        whose base died with a node is unusable.  Opaque (payload-less)
        checkpoints are their own one-element chain."""
        per_rank = self._copies.get(rank, {})
        chain: List[int] = []
        rnd = round_no
        while True:
            copies = per_rank.get(rnd)
            if not copies:
                return None
            chain.append(rnd)
            ckpt = next(iter(copies.values()))
            payload = ckpt.payload
            if payload is None or payload.base_round is None:
                chain.reverse()
                return chain
            if payload.base_round in chain or len(chain) > len(per_rank):
                raise ValueError(
                    f"rank {rank}: corrupt delta chain at round {rnd} "
                    f"(base {payload.base_round} cycles)"
                )
            rnd = payload.base_round

    def release_below(self, rank: int, floor: int) -> None:
        """``rank``'s log-GC floor reached round ``floor``: no restart
        can target a round below the first round of ``floor``'s delta
        chain, so drop those rounds' restart bodies
        (:meth:`~repro.core.checkpoint.Checkpoint.release`).  Round
        numbers, timestamps, sizes and payloads stay, so commit history,
        chain walks, costs and :meth:`restorable_rounds` do not change."""
        base = self._chain_rounds(rank, floor)[0]  # a floor round is durable
        start = self._released_below.get(rank, 1)
        per_rank = self._copies[rank]
        for rnd in range(start, base):
            for ckpt in (per_rank.get(rnd) or {}).values():
                ckpt.release()
        self._released_below[rank] = max(start, base)

    def guaranteed_round(self, rank: int) -> int:
        """Latest round ``rank`` can never be forced to roll back past,
        no matter what fails later: the latest round whose *whole chain*
        sits on tiers that survive node failure (0 when only volatile
        copies exist).  Receiver-driven log GC keys off this.  Partner copies do not qualify: they survive any
        *single* node loss, but a later failure of the buddy can still
        take them.  A durable delta whose base is only volatile does not
        qualify either — losing the base loses the round.

        Memoized per rank until the rank's copies next change, so the
        protocol's ``min(guaranteed_round(m) for m in members)`` at
        every commit barrier is k dict reads."""
        known = self._guaranteed.get(rank)
        if known is None:
            known = self._guaranteed[rank] = self._latest_durable_chain(rank)
        return known

    def _latest_durable_chain(self, rank: int) -> int:
        """:meth:`guaranteed_round`, computed.  Only rounds that hold a
        durable copy themselves have their chain walked: while flushes
        drain, the newest rounds are volatile-only."""
        durable_rounds = {
            rnd
            for rnd, copies in self._copies.get(rank, {}).items()
            if not self._durable_tiers.isdisjoint(copies)
        }
        for rnd in sorted(durable_rounds, reverse=True):
            chain = self._chain_rounds(rank, rnd)
            if chain is not None and durable_rounds.issuperset(chain):
                return rnd
        return 0

    def surviving_rounds(self, rank: int) -> List[int]:
        """Rounds of ``rank`` with at least one surviving copy, ascending."""
        return sorted(
            rnd for rnd, copies in self._copies.get(rank, {}).items() if copies
        )

    def restorable_rounds(self, rank: int) -> List[int]:
        """Surviving rounds whose full delta chain also survives."""
        return [
            rnd
            for rnd in self.surviving_rounds(rank)
            if self._chain_rounds(rank, rnd) is not None
        ]

    @staticmethod
    def _link_decompress_ns(ckpt: "Checkpoint") -> int:
        """Modeled CPU time to reinflate one chain link's payload on the
        restart path (0 for opaque/uncompressed payloads)."""
        payload = ckpt.payload
        if payload is None or payload.compression == "none":
            return 0
        model = compression_model(payload.compression)
        return model.decompress_cost_ns(payload.delta_bytes)

    def restore_plan(
        self, rank: int, round_no: int, concurrent_readers: int = 1
    ) -> Optional[RestorePlan]:
        """The restart read of ``rank``'s ``round_no``: its delta chain,
        each link from the cheapest surviving copy at
        ``concurrent_readers`` (None when the round is not restorable).
        Costs nothing, so it is also the inspection lookup."""
        chain = self._chain_rounds(rank, round_no)
        if chain is None:
            return None
        per_rank = self._copies[rank]
        links: List[RestoreLink] = []
        for link in chain:
            copies = per_rank[link]
            name = min(
                copies,
                key=lambda n: self._tier(n).read_time_ns(
                    copies[n].stored_bytes, concurrent_readers
                ),
            )
            ckpt = copies[name]
            links.append(
                RestoreLink(
                    round_no=link,
                    tier=name,
                    nbytes=ckpt.stored_bytes,
                    decompress_ns=self._link_decompress_ns(ckpt),
                )
            )
        return RestorePlan(
            ckpt=ckpt,  # the last link is the target round
            tier=name,
            chain=tuple(chain) if len(chain) > 1 else (),
            links=tuple(links),
        )

    def retrieve(
        self, rank: int, round_no: int, concurrent_readers: int = 1
    ) -> Optional[RestoreReceipt]:
        """:meth:`restore_plan` priced in closed form: the receipt of
        reading ``round_no`` back with ``concurrent_readers`` readers."""
        plan = self.restore_plan(rank, round_no, concurrent_readers)
        if plan is None:
            return None
        return RestoreReceipt(
            ckpt=plan.ckpt,
            tier=plan.tier,
            read_ns=sum(
                self._tier(link.tier).read_time_ns(link.nbytes, concurrent_readers)
                for link in plan.links
            ),
            chain=plan.chain,
            decompress_ns=sum(link.decompress_ns for link in plan.links),
        )

    def start_restore(
        self,
        plan: Optional[RestorePlan],
        on_done: Callable[[Optional[RestoreReceipt]], None],
    ) -> Optional[ChainRead]:
        """Run a :meth:`restore_plan` as an overlapping flow pipeline.

        Returns the cancellable :class:`ChainRead` (None when the plan
        is None, i.e. the round is not restorable — ``on_done(None)``
        fires synchronously then).  Each link's decompression runs as a
        stage of the pipeline.
        The receipt's ``read_ns`` is *measured* from the flow timeline,
        so concurrent restores genuinely contend for the tiers' read
        bandwidth instead of assuming a reader count."""
        if self.iosched is None:
            raise RuntimeError(
                "flow-based restores need the simulation engine; call "
                "bind_engine(engine) first"
            )
        if plan is None:
            on_done(None)
            return None

        def _finish(chain_read: ChainRead) -> None:
            on_done(
                RestoreReceipt(
                    ckpt=plan.ckpt,
                    tier=plan.tier,
                    read_ns=chain_read.read_ns,
                    chain=plan.chain,
                    decompress_ns=sum(l.decompress_ns for l in plan.links),
                )
            )

        return ChainRead(
            self.iosched,
            [(link.tier, link.nbytes, link.decompress_ns) for link in plan.links],
            on_done=_finish,
            meta={"rank": plan.ckpt.rank, "round_no": plan.ckpt.round_no},
        )

    # -- partner rebuild (after a failed node returns) ------------------
    def rebuild_partner_copies(self, node: int) -> int:
        """A failed node's ranks restarted — the node is back.  Ranks
        whose ``partner`` copies were hosted there (the ring predecessors)
        lost their buddy mirror with it; re-replicate their latest
        restorable round to the returned node as background flows, so a
        *sequential* failure of the buddy pair restarts from the latest
        round again instead of falling back to the last PFS round.  A
        rank whose own node is down too has nothing to mirror from and
        is skipped.  Returns the number of rebuild flows started."""
        if (
            self.iosched is None
            or self._topology is None
            or not any(t.name == "partner" for t in self.plan.tiers)
        ):
            return 0
        started = 0
        for rank in range(self._topology.nranks):
            if self.host_node("partner", rank) != node:
                continue
            rounds = self.restorable_rounds(rank)
            if not rounds:
                continue
            rnd = rounds[-1]
            copies = self._copies[rank][rnd]
            if "partner" in copies or (rank, rnd) in self._rebuilding:
                continue
            # Mirror from the owner's node-local volatile copy: it is
            # alive only while the owner's node is up.
            src_node = self._topology.node_of(rank)
            ckpt = next(
                (
                    c
                    for name, c in copies.items()
                    if not self._tier(name).survives_node_failure
                    and self.host_node(name, rank) == src_node
                ),
                None,
            )
            if ckpt is None:
                continue
            meta = {
                "kind": "rebuild",
                "rank": rank,
                "round_no": rnd,
                "tier": "partner",
                "ckpt": ckpt,
                "src_node": src_node,
                "dst_node": node,
            }
            flow = self.iosched.write(
                "partner", ckpt.stored_bytes, on_done=self._flow_landed, meta=meta
            )
            self._inflight.setdefault(rank, []).append(flow)
            self._rebuilding.add((rank, rnd))
            self.rebuild_flows_started += 1
            started += 1
        return started

    def has_copy(self, rank: int, round_no: int, tier_name: str) -> bool:
        """True while ``rank``'s ``round_no`` copy in ``tier_name`` is
        alive — an in-flight restore read whose source copy this returns
        False for is reading data the model has declared lost."""
        return tier_name in (self._copies.get(rank, {}).get(round_no) or {})

    def load_round(self, rank: int, round_no: int) -> Optional["Checkpoint"]:
        """A specific round's checkpoint, if any copy survives (no cost
        charged) — used by the deferred GC path to fetch the LR of the
        last *drained* round."""
        copies = self._copies.get(rank, {}).get(round_no)
        if not copies:
            return None
        return next(iter(copies.values()))

    def load_latest(self, rank: int) -> Optional["Checkpoint"]:
        """Latest *restorable* checkpoint of ``rank`` (no cost charged)."""
        rounds = self.restorable_rounds(rank)
        if not rounds:
            return None
        return self.restore_plan(rank, rounds[-1]).ckpt

    def rounds_of(self, rank: int) -> List[int]:
        """Every round ever saved for ``rank`` (including copies that
        were later invalidated), ascending."""
        return list(self._all_rounds.get(rank, []))


# ----------------------------------------------------------------------
# Registry: build a backend from a CLI-friendly spec string
# ----------------------------------------------------------------------

_TIER_FACTORIES = {
    "ram": ram_tier,
    "ssd": local_ssd_tier,
    "pfs": pfs_tier,
    "partner": partner_tier,
}

_BACKEND_NAMES = ("memory", "tiered", "partner")


def default_plan() -> MultiLevelPlan:
    """SCR/FTI-flavoured default: RAM every round, local SSD every 4th,
    the parallel file system every 16th."""
    return MultiLevelPlan(
        tiers=[ram_tier(), local_ssd_tier(), pfs_tier()], periods=[1, 4, 16]
    )


def partner_default_plan() -> MultiLevelPlan:
    """Partner-copy default: RAM + buddy-node mirror every round, the
    parallel file system every 16th."""
    return MultiLevelPlan(
        tiers=[ram_tier(), partner_tier(), pfs_tier()], periods=[1, 1, 16]
    )


def parse_plan(spec: str) -> MultiLevelPlan:
    """Parse ``"ram@1,ssd@4,pfs@16"`` into a :class:`MultiLevelPlan`."""
    tiers: List[StorageTier] = []
    periods: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, period = part.partition("@")
        factory = _TIER_FACTORIES.get(name.strip())
        if factory is None:
            raise ValueError(
                f"unknown tier {name.strip()!r} in plan {spec!r} "
                f"(valid tiers: {', '.join(sorted(_TIER_FACTORIES))})"
            )
        if period:
            try:
                period_val = int(period)
            except ValueError:
                raise ValueError(
                    f"bad tier period {part!r} in plan {spec!r}: "
                    f"{period!r} is not an integer (write e.g. "
                    f"'{name.strip()}@4')"
                ) from None
            if period_val < 1:
                raise ValueError(
                    f"bad tier period {part!r} in plan {spec!r}: "
                    "periods must be >= 1"
                )
        else:
            period_val = 1
        tiers.append(factory())
        periods.append(period_val)
    if not tiers:
        raise ValueError(
            f"empty tier plan {spec!r} (write e.g. 'ram@1,pfs@4')"
        )
    return MultiLevelPlan(tiers=tiers, periods=periods)


def _split_flush_mode(spec: str, rest: str) -> Tuple[str, bool]:
    """Strip a trailing ``:async`` flush-mode token off a plan spec."""
    plan_part, sep, opt = rest.rpartition(":")
    if sep:
        opt = opt.strip()
        if opt == "async":
            return plan_part, True
        raise ValueError(
            f"unknown storage option {opt!r} in spec {spec!r} "
            "(valid options: async)"
        )
    if rest.strip() == "async":
        return "", True
    return rest, False


def make_backend(spec: str) -> TieredBackend:
    """Build the store from a spec string.

    * ``"memory"`` — one :func:`~repro.storage.model.memory_tier`, the
      free default (the paper's configuration);
    * ``"tiered"`` — :func:`default_plan` (ram@1, ssd@4, pfs@16);
    * ``"tiered:ram@1,pfs@4"`` — an explicit tier plan;
    * ``"partner"`` — :func:`partner_default_plan` (ram@1, partner@1,
      pfs@16);
    * ``"partner:ram@1,partner@1,pfs@8"`` — an explicit plan that must
      include the ``partner`` tier;
    * a trailing ``:async`` (``"tiered:ram@1,pfs@16:async"``,
      ``"tiered:async"``) turns on the **async flush mode**: PFS writes
      drain in the background on the event-driven I/O scheduler, the
      checkpoint commits once the local tiers land, and restart reads
      run as overlapping flows (see ``docs/storage.md``).
    """
    name, _, rest = spec.partition(":")
    if name == "memory":
        if rest:
            raise ValueError(
                f"the memory backend takes no arguments, got {rest!r} "
                f"in spec {spec!r}"
            )
        return TieredBackend(MultiLevelPlan(tiers=[memory_tier()], periods=[1]))
    if name == "tiered":
        rest, async_flush = _split_flush_mode(spec, rest)
        return TieredBackend(
            parse_plan(rest) if rest else default_plan(),
            async_flush=async_flush,
        )
    if name == "partner":
        rest, async_flush = _split_flush_mode(spec, rest)
        plan = parse_plan(rest) if rest else partner_default_plan()
        if not any(t.name == "partner" for t in plan.tiers):
            raise ValueError(
                "a partner plan must include the 'partner' tier, got "
                f"{[t.name for t in plan.tiers]} "
                "(e.g. 'partner:ram@1,partner@1,pfs@16')"
            )
        return TieredBackend(plan, async_flush=async_flush)
    raise ValueError(
        f"unknown storage backend {name!r} in spec {spec!r} "
        f"(valid backends: {', '.join(_BACKEND_NAMES)})"
    )
