"""HydEE [19]: hierarchical recovery with centralized replay coordination.

HydEE is the paper's main comparison point (section 6.5): like SPBC it is
hierarchical and logs nothing reliably during failure-free execution, but
during recovery it "requires the use of an additional process (the
coordinator) to orchestrate the recovery and avoid mismatches: it
notifies a process that it can replay the next message from the logs once
the recovering processes have acknowledged that all the inter-cluster
messages this message depends on have been replayed".

Model
-----
* **Dependency vectors** are extracted from the failure-free trace: for
  each inter-cluster message on a channel touching the recovering
  cluster, the per-channel high-water marks of its send event's causal
  past (propagated through intra-cluster messages and program order).
  A message is grantable once the recovering side has confirmed every
  mark — exactly "everything a message depends on has been replayed".
* The **coordinator** is an extra rank.  Replayers request a grant per
  logged message; recovering ranks acknowledge each replayed delivery and
  report each suppressed (logically replayed) inter-cluster send.  The
  coordinator serializes all handling (a per-message processing cost) and
  queues a request until its dependency vector is satisfied.
* A sender's dependency vectors only grow along its send order (each
  send's causal past includes the previous one's), so in-order
  per-replayer granting cannot deadlock; a short REQ pipeline
  (``grant_window``) keeps the wire busy.

SPBC needs none of this: its replayers stream per channel independently —
that difference is Figure 6.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.core.logstore import LogRecord
from repro.core.protocol import SPBC, SPBCConfig
from repro.mpi.context import RankContext
from repro.mpi.message import ControlMsg, Envelope
from repro.mpi.runtime import World
from repro.sim.engine import Trigger
from repro.sim.network import NetworkParams
from repro.sim.tracing import Trace
from repro.util.units import US

MessageKey = Tuple[int, int, int, int]  # (src, dst, comm_id, seqnum)

REQ = "hydee.req"
GRANT = "hydee.grant"
DONE = "hydee.done"

#: Coordinator CPU time to handle one control message (serialized).
#: Calibrated for the paper's transport: IPoIB message handling costs
#: tens of microseconds of CPU per message, and every REQ/GRANT/DONE of
#: every replayed message funnels through this single process — the
#: serialization that makes HydEE's recovery slow at scale (section 6.5).
DEFAULT_COORD_PROC_NS = 40 * US
#: Outstanding grant requests a replayer may pipeline.
DEFAULT_GRANT_WINDOW = 4


Channel = Tuple[int, int, int]  # (src, dst, comm_id)


def compute_dependencies(
    trace: Trace,
    clusters: ClusterMap,
    recovering: Set[int],
) -> Dict[MessageKey, Dict[Channel, int]]:
    """Per-message causal dependency vectors, restricted to the channels
    the recovery cares about (those touching the recovering cluster).

    dep(m)[c] = s means: message m must not be replayed before the
    recovering side has confirmed message s on channel c.  Vectors are
    per-channel high-water marks of the send event's causal past (FIFO
    channels make high-water marks sufficient).  This is the precise
    dependency information HydEE's coordinator works from.
    """

    def interesting(chan: Channel) -> bool:
        src, dst, _cid = chan
        return (src in recovering) != (dst in recovering)

    past: Dict[int, Dict[Channel, int]] = {}
    carried: Dict[MessageKey, Dict[Channel, int]] = {}
    deps: Dict[MessageKey, Dict[Channel, int]] = {}
    for e in trace.events:
        if e.kind == "send":
            src, dst, _cid = e.channel
            p = past.setdefault(e.rank, {})
            snapshot = dict(p)
            carried[e.message_key] = snapshot
            if clusters.is_intercluster(src, dst):
                if interesting(e.channel):
                    deps[e.message_key] = snapshot
                    # this message joins its sender's causal past
                    if e.seqnum > p.get(e.channel, 0):
                        p[e.channel] = e.seqnum
        elif e.kind == "deliver":
            p = past.setdefault(e.rank, {})
            for chan, seq in carried.get(e.message_key, {}).items():
                if seq > p.get(chan, 0):
                    p[chan] = seq
            if interesting(e.channel) and e.seqnum > p.get(e.channel, 0):
                p[e.channel] = e.seqnum
    return deps


@dataclass
class HydEEPlan:
    """Replay plan plus the dependency structure HydEE needs."""

    base: ReplayPlan
    # message -> per-channel causal dependency high-water marks
    deps: Dict[MessageKey, Dict[Channel, int]]
    # everything the coordinator waits for: replayed records + the
    # recovering ranks' own (suppressed) inter-cluster sends
    tracked: Set[MessageKey] = field(default_factory=set)

    @classmethod
    def from_run(
        cls,
        spbc: SPBC,
        trace: Trace,
        failure_free_ns: int,
        cluster_id: Optional[int] = None,
        clusters: Optional[ClusterMap] = None,
    ) -> "HydEEPlan":
        cmap = clusters if clusters is not None else spbc.clusters
        base = ReplayPlan.from_run(spbc, failure_free_ns, cluster_id, clusters=cmap)
        deps = compute_dependencies(trace, cmap, base.recovering_ranks)
        tracked: Set[MessageKey] = set()
        for sender, recs in base.records_by_sender.items():
            for r in recs:
                tracked.add((sender, r.dst, r.comm_id, r.seqnum))
        for rank in base.recovering_ranks:
            st = spbc.state[rank]
            for (cid, dst), chan in st.log.merged_channels().items():
                if dst in base.recovering_ranks or not cmap.is_intercluster(rank, dst):
                    continue
                for r in chan:
                    tracked.add((rank, dst, cid, r.seqnum))
        return cls(base=base, deps=deps, tracked=tracked)


class HydEEHooks(SPBC):
    """Emulated-recovery hooks with the coordinator protocol on top."""

    def __init__(
        self,
        config: SPBCConfig,
        plan: HydEEPlan,
        coordinator_rank: int,
        proc_ns: int = DEFAULT_COORD_PROC_NS,
    ) -> None:
        super().__init__(config)
        self.plan = plan
        self.coordinator_rank = coordinator_rank
        self.proc_ns = proc_ns
        # Coordinator state: per-channel confirmed high-water marks and
        # the messages still awaiting confirmation.
        self._done_hw: Dict[Channel, int] = {}
        self._remaining: Set[MessageKey] = set(plan.tracked)
        self._queue: deque = deque()  # queued (replayer, key)
        self._busy_until = 0
        self.coordinator_done = Trigger(name="hydee.alldone")
        self.grants_issued = 0
        self.acks_seen = 0
        # Replayer-side grant triggers
        self._grant_waiters: Dict[Tuple[int, MessageKey], Trigger] = {}

    # -- dependency bookkeeping (coordinator) ----------------------------
    def _satisfied(self, key: MessageKey) -> bool:
        """All messages this one causally depends on have been confirmed
        by the recovering processes (delivered or logically re-sent)."""
        for chan, seq in self.plan.deps.get(key, {}).items():
            if self._done_hw.get(chan, 0) < seq:
                return False
        return True

    def _flush_queue(self, runtime) -> None:
        still: deque = deque()
        while self._queue:
            replayer, key = self._queue.popleft()
            if self._satisfied(key):
                self._respond(runtime, replayer, key)
            else:
                still.append((replayer, key))
        self._queue = still

    def _respond(self, runtime, replayer: int, key: MessageKey) -> None:
        """Send a grant after the serialized coordinator processing time."""
        now = runtime.engine.now
        self._busy_until = max(now, self._busy_until) + self.proc_ns
        delay = self._busy_until - now
        runtime.engine.schedule(
            delay, runtime.control_send, replayer, GRANT, {"key": key}, 32
        )
        self.grants_issued += 1

    # -- control plane ---------------------------------------------------
    def on_control(self, runtime, msg: ControlMsg) -> None:
        if msg.kind == REQ:
            key = msg.data["key"]
            self._busy_until = max(runtime.engine.now, self._busy_until) + self.proc_ns
            if self._satisfied(key):
                self._respond(runtime, msg.src, key)
            else:
                self._queue.append((msg.src, key))
        elif msg.kind == DONE:
            key = msg.data["key"]
            chan = (key[0], key[1], key[2])
            seq = key[3]
            self._busy_until = max(runtime.engine.now, self._busy_until) + self.proc_ns
            if seq > self._done_hw.get(chan, 0):
                self._done_hw[chan] = seq
            self._remaining.discard(key)
            self.acks_seen += 1
            self._flush_queue(runtime)
            if not self._remaining and not self._queue:
                self.coordinator_done.fire()
        elif msg.kind == GRANT:
            key = tuple(msg.data["key"])
            trig = self._grant_waiters.pop((runtime.rank, key), None)
            if trig is not None:
                trig.fire()
        else:
            super().on_control(runtime, msg)

    def wait_grant(self, runtime, key: MessageKey) -> Trigger:
        trig = Trigger(name=f"grant{key}")
        self._grant_waiters[(runtime.rank, key)] = trig
        runtime.control_send(self.coordinator_rank, REQ, {"key": key}, nbytes=32)
        return trig

    # -- recovering-rank instrumentation ---------------------------------
    def on_send(self, runtime, env: Envelope):
        decision, overhead = super().on_send(runtime, env)
        if (
            decision is False
            and self._emulated is not None
            and env.src in self._emulated
            and self.clusters.is_intercluster(env.src, env.dst)
            and env.dst not in self._emulated
        ):
            # A suppressed ("logically replayed") send: confirm it so the
            # coordinator can grant the messages that depend on it.
            runtime.control_send(
                self.coordinator_rank, DONE, {"key": env.message_key}, nbytes=32
            )
            runtime.charge_cpu(200)
        return decision, overhead

    def on_deliver(self, runtime, env: Envelope) -> None:
        super().on_deliver(runtime, env)
        if (
            env.replayed
            and self._emulated is not None
            and env.dst in self._emulated
            and self.clusters.is_intercluster(env.src, env.dst)
        ):
            # The recovering process acknowledges on *delivery* — this is
            # what couples HydEE's replay to application progress and
            # erases SPBC's "messages arrive in advance" advantage (the
            # slowdown Figure 6 shows).  With precise causal dependencies
            # this cannot deadlock: the causally-minimal unconfirmed
            # message is always grantable, and the application always
            # reaches one of the minimal messages' receives.
            runtime.control_send(
                self.coordinator_rank, DONE, {"key": env.message_key}, nbytes=32
            )
            runtime.charge_cpu(200)


def hydee_replayer_process(
    ctx: RankContext,
    records: List[LogRecord],
    hooks: HydEEHooks,
    grant_window: int = DEFAULT_GRANT_WINDOW,
) -> Generator:
    """Replayer under HydEE: every logged message needs a coordinator
    grant; up to ``grant_window`` requests are pipelined, but messages
    are put on the wire strictly in original send order."""
    if grant_window < 1:
        raise ValueError("grant window must be >= 1")
    keys = [
        (ctx.world_rank, r.dst, r.comm_id, r.seqnum) for r in records
    ]
    grants: deque = deque()  # triggers for outstanding REQs, in order
    sent = 0
    next_req = 0
    while sent < len(records):
        while next_req < len(records) and len(grants) < grant_window:
            grants.append(hooks.wait_grant(ctx.rt, keys[next_req]))
            next_req += 1
        trig = grants.popleft()
        if not trig.fired:
            yield trig
        rec = records[sent]
        env = Envelope(
            src=ctx.world_rank,
            dst=rec.dst,
            tag=rec.tag,
            comm_id=rec.comm_id,
            seqnum=rec.seqnum,
            nbytes=rec.nbytes,
            payload=rec.payload,
            ident=rec.ident,
        )
        ctx.rt.isend_raw(env)
        sent += 1
    return sent


@dataclass
class HydEERecoveryResult:
    rework_ns: int
    reference_ns: int
    grants: int
    acks: int
    results: Dict[int, object]

    @property
    def normalized(self) -> float:
        return self.rework_ns / self.reference_ns


def run_hydee_recovery(
    app_factory,
    nranks: int,
    clusters: ClusterMap,
    plan: HydEEPlan,
    reference_ns: Optional[int] = None,
    proc_ns: int = DEFAULT_COORD_PROC_NS,
    grant_window: int = DEFAULT_GRANT_WINDOW,
    ranks_per_node: int = 8,
    seed: int = 0,
    net_params: Optional[NetworkParams] = None,
) -> HydEERecoveryResult:
    """Emulated recovery under HydEE (phase 2 with a coordinator).

    The paper's coordinator is "an additional process"; here its logic is
    hosted on the highest non-failed rank as a pure control-plane role
    (its serialized per-message handling cost is modeled explicitly), so
    the application world keeps exactly the phase-1 shape — rank count,
    communicators, and message identities all line up.
    """
    non_failed = [r for r in range(nranks) if r not in plan.base.recovering_ranks]
    if not non_failed:
        raise ValueError("HydEE recovery needs at least one non-failed rank")
    coord = max(non_failed)
    hooks = HydEEHooks(
        SPBCConfig(
            clusters=clusters,
            ident_matching=False,  # HydEE has no identifiers
            emulated_recovering=set(plan.base.recovering_ranks),
        ),
        plan=plan,
        coordinator_rank=coord,
        proc_ns=proc_ns,
    )
    world = World(
        nranks, ranks_per_node=ranks_per_node, hooks=hooks, seed=seed,
        net_params=net_params, trace=False,
    )
    for r in range(nranks):
        ctx = RankContext(world, r)
        if r in plan.base.recovering_ranks:
            world.launch(r, app_factory(ctx, None))
        else:
            records = plan.base.records_by_sender.get(r, [])
            world.launch(
                r, hydee_replayer_process(ctx, records, hooks, grant_window)
            )
    world.run()
    for r, proc in world.processes.items():
        if proc.exception is not None:
            raise RuntimeError(f"rank {r} raised: {proc.exception!r}") from proc.exception
    rework = max(
        world.processes[r].finish_time for r in plan.base.recovering_ranks
    )
    return HydEERecoveryResult(
        rework_ns=rework,
        reference_ns=reference_ns or plan.base.failure_free_ns,
        grants=hooks.grants_issued,
        acks=hooks.acks_seen,
        results={r: p.result for r, p in world.processes.items()},
    )
