"""The SPBC protocol (Algorithm 1) as MPI runtime hooks.

Responsibilities, mapped to the paper:

* line 4      — per-channel seqnums (assigned by the runtime, read here);
* line 6      — sender-side logging of inter-cluster messages, *before*
  the re-send filter so suppressed re-sends are logged too;
* line 7      — suppression of re-sends already received (``seq <= LS``);
* line 11     — LR bookkeeping per incoming channel;
* lines 13-15 — coordinated checkpointing inside each cluster, saving
  (State, Logs) to stable storage;
* lines 16-20 — on restart, a Rollback carrying LR is sent on every
  known inter-cluster channel;
* lines 21-24 — peers answer lastMessage (their received high-water mark)
  and replay logged messages with ``seq > LR`` in sequence order;
* section 4.3 / 5.2.1 — matching is allowed only between message and
  request with equal ``(pattern_id, iteration_id)`` identifiers.

Implementation refinements beyond the paper's pseudocode (documented in
DESIGN.md section 4):

* a restarted rank *defers* inter-cluster sends on a channel until the
  peer's lastMessage (or Rollback, for concurrent failures) fixes LS;
* arrivals on inter-cluster channels pass a dedup/reorder gate keyed by
  seqnum, which makes recovery robust to duplicated or late copies;
* on receiving a Rollback, a live peer scrubs incomplete rendezvous
  state from the failed sender: the reply carries the *complete prefix*
  (highest seq below which everything was delivered or is fully held),
  messages above it are re-sent by the restarted rank and already-
  delivered ones are swallowed via a per-channel drop set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Generator, List, Optional, Set, Tuple, Union,
)

from repro.ckptdata.plane import CkptDataPlane
from repro.core.checkpoint import Checkpoint
from repro.storage.backend import SaveReceipt, TieredBackend, make_backend
from repro.storage.multilevel import optimal_interval_ns, optimal_interval_rounds
from repro.core.clusters import ClusterMap
from repro.core.logstore import LogRecord, LogStore
from repro.mpi import collectives as coll
from repro.mpi.hooks import ProtocolHooks
from repro.mpi.message import ControlMsg, Envelope
from repro.mpi.request import RecvRequest
from repro.util.empty import EMPTY_DICT
from repro.util.units import SEC, US

ChannelIn = Tuple[int, int]  # (comm_id, src world rank)
ChannelOut = Tuple[int, int]  # (comm_id, dst world rank)

ROLLBACK = "spbc.rollback"
LASTMESSAGE = "spbc.lastmessage"
PEER_HELLO = "spbc.peer_hello"
LOG_GC = "spbc.log_gc"

_DRAIN_RETRY_NS = 20 * US
_DRAIN_MAX_TRIES = 10_000


@dataclass(frozen=True)
class LogCostModel:
    """CPU cost of the protocol on the send path (what Table 2 measures).

    Defaults calibrated so 16-cluster runs land in the paper's
    0.07%-1.14% overhead band (Table 2): logging is an uncached copy into
    the log buffer plus allocator/bookkeeping work (~330 MB/s effective,
    consistent with the testbed's 2009-era Xeons), identifier stamping a
    few tens of ns on every send.
    """

    log_fixed_ns: int = 600
    log_ns_per_byte: float = 3.0
    ident_fixed_ns: int = 40

    def send_cost_ns(self, logged: bool, nbytes: int) -> int:
        if logged:
            return self.log_fixed_ns + int(nbytes * self.log_ns_per_byte)
        return self.ident_fixed_ns


def peak_overlap(*window_lists) -> int:
    """Maximum number of simultaneously open ``(start_ns, end_ns, ...)``
    windows over all the given lists (touching windows do not overlap)."""
    events: List[Tuple[int, int]] = []
    for windows in window_lists:
        for start, end, *_ in windows:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()  # (t, -1) sorts before (t, +1): touching != overlap
    peak = current = 0
    for _t, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


@dataclass
class SPBCConfig:
    """Protocol parameters."""

    clusters: ClusterMap
    ident_matching: bool = True
    cost: LogCostModel = field(default_factory=LogCostModel)
    # Coordinated checkpoint every N maybe_checkpoint() calls (app
    # iterations); None disables checkpointing (the paper's benchmark
    # configuration: "none of our experiments include checkpointing").
    # "auto" derives the cadence per cluster from the Young/Daly optimal
    # interval over the storage backend's modeled write cost, the
    # configured MTBF, and the measured iteration time — it needs a
    # storage plan with a write cost (any plan but "memory").
    checkpoint_every: Union[int, str, None] = None
    # Node MTBF driving the "auto" cadence (Young: sqrt(2*C*MTBF)).
    mtbf_ns: int = 60 * SEC
    # Where checkpoints are persisted and what that costs: the store
    # executes a multi-level plan and its write time is charged to the
    # simulation clock inside the coordinated checkpoint.  The default
    # (None) is the one-tier "memory" plan, which charges nothing (the
    # paper's configuration).
    storage: Optional[TieredBackend] = None
    # The incremental checkpoint data plane (repro.ckptdata): turns each
    # round into a full or delta payload with modeled compression, and
    # maintains per-rank delta chains.  None keeps the seed's
    # opaque-blob model bit-identical.
    ckpt_data: Optional[CkptDataPlane] = None
    # Modeled application-state bytes per rank, used when the app's
    # state_fn does not report an "nbytes" itself.  The experiment
    # harness derives this from the app's write-locality profile so no
    # registered app checkpoints zero bytes against a cost-modeled
    # backend.
    state_nbytes: int = 0
    # "known" sends Rollback only on channels with recorded traffic;
    # "all" broadcasts to every inter-cluster rank (safe for apps whose
    # communication graph changes between checkpoint and failure).
    rollback_scope: str = "known"
    # Emulated-recovery mode (paper section 6.4): ranks listed here are
    # re-executing a lost segment; their inter-cluster sends are skipped
    # unconditionally and nothing is logged.
    emulated_recovering: Optional[Set[int]] = None


class _InboundChannel:
    """Recovery-aware inbound state of one inter-cluster channel."""

    __slots__ = ("arrived", "pending_data", "drop_set", "buffer")

    def __init__(self) -> None:
        self.arrived = 0  # contiguous acceptance high-water mark
        self.pending_data: Set[int] = set()  # accepted RTS awaiting payload
        self.drop_set: Set[int] = set()  # re-sent copies to swallow
        self.buffer: Dict[int, Tuple[Envelope, Optional[int]]] = {}

    def complete_prefix(self, delivered_floor: int) -> int:
        """Highest seq h such that every message <= h is fully available
        here (delivered or held with payload)."""
        if self.pending_data:
            return min(self.pending_data) - 1
        return max(self.arrived, delivered_floor)


#: Initial value of the per-rank peer sets only recovery fills.
_NO_KEYS: FrozenSet = frozenset()


class _RankState:
    """Per-rank protocol state.

    Slotted, and the containers only recovery fills (``ls``, ``gated``,
    ``rollback_sent``) start out shared and read-only
    (:data:`~repro.util.empty.EMPTY_DICT`, an empty frozenset) until
    their first writer replaces them."""

    __slots__ = (
        "rank",
        "cluster",
        "log",
        "lr",
        "ls",
        "inbound",
        "gated",
        "recovering",
        "intra_sent",
        "intra_arrived",
        "ckpt_calls",
        "calls_at_last_ckpt",
        "ckpt_round",
        "gc_round_sent",
        "rollbacks_handled",
        "replayed_records",
        "broadcast_rollback",
        "rollback_sent",
    )

    def __init__(self, rank: int, cluster: int) -> None:
        self.rank = rank
        self.cluster = cluster
        self.log = LogStore(rank)
        self.lr: Dict[ChannelIn, int] = {}  # delivered high-water (line 11)
        # Re-send suppression bound: set at restore and by lastMessage.
        self.ls: Dict[ChannelOut, int] = EMPTY_DICT
        self.inbound: Dict[ChannelIn, _InboundChannel] = {}
        # Sends deferred until LS is known: set at restore.
        self.gated: Set[ChannelOut] = _NO_KEYS
        self.recovering = False
        # Intra-cluster drain counters (per peer world rank, all comms).
        self.intra_sent: Dict[int, int] = {}
        self.intra_arrived: Dict[int, int] = {}
        self.ckpt_calls = 0
        self.calls_at_last_ckpt = 0  # dirty-region window anchor
        self.ckpt_round = 0
        self.gc_round_sent = 0  # latest round GC notices went out for
        self.rollbacks_handled = 0
        self.replayed_records = 0
        self.broadcast_rollback = False
        self.rollback_sent: Set[int] = _NO_KEYS  # peers already handshaked

    def chan_in(self, key: ChannelIn) -> _InboundChannel:
        ch = self.inbound.get(key)
        if ch is None:
            ch = self.inbound[key] = _InboundChannel()
        return ch


class _AutoCadence:
    """Young/Daly-driven checkpoint cadence, shared by a cluster's ranks.

    The interval is recomputed at every commit from cluster-consistent
    inputs: the first member to reach a due boundary stamps the epoch's
    end, the first member out of the closing barrier fixes the next
    epoch's interval from the measured iteration time and the receipt's
    write cost.  All members consult the same object, so every rank of a
    cluster agrees on which ``maybe_checkpoint`` call checkpoints — the
    coordinated barrier never splits.

    The first epoch runs with ``every=1``: the initial checkpoint is the
    calibration round that reveals the checkpoint size and write cost.
    """

    MAX_EVERY = 1_000_000

    def __init__(self, anchor_ns: int = 0) -> None:
        self.every = 1  # calibration round
        self.last_ckpt_call = 0
        self.anchor_ns = anchor_ns  # epoch start (app start / last commit)
        self.first_due_ns: Optional[int] = None
        self.iter_ns_est = 0.0
        self.ckpt_cost_ns = 0
        self.t_opt_ns = 0
        self.commits = 0

    def due(self, call_idx: int, now: int) -> bool:
        if call_idx - self.last_ckpt_call < self.every:
            return False
        if self.first_due_ns is None:
            self.first_due_ns = now  # first member at the due boundary
        return True

    def note_commit(
        self,
        call_idx: int,
        now: int,
        receipt: SaveReceipt,
        mtbf_ns: int,
        expected_cost_ns: Optional[int] = None,
    ) -> None:
        if call_idx == self.last_ckpt_call:
            return  # a later member of the same round; already applied
        iters = call_idx - self.last_ckpt_call
        busy = max(0, (self.first_due_ns or now) - self.anchor_ns)
        if busy > 0:
            self.iter_ns_est = busy / iters
        # Young's C: the committed round's write cost — or, when the
        # incremental data plane is on, the *expected* per-round cost
        # over a full/delta cycle (a full round's burst would otherwise
        # make the cadence pessimistic about every delta round).
        cost_ns = (
            expected_cost_ns
            if expected_cost_ns is not None and expected_cost_ns > 0
            else receipt.write_ns
        )
        self.ckpt_cost_ns = cost_ns
        if cost_ns <= 0:
            raise ValueError(
                "checkpoint_every='auto' needs a cost-modeled storage "
                "backend: this round's write cost was 0 ns, so Young's "
                "interval is undefined (use e.g. --storage tiered)"
            )
        self.t_opt_ns = optimal_interval_ns(cost_ns, mtbf_ns)
        if self.iter_ns_est > 0:
            self.every = optimal_interval_rounds(
                cost_ns, mtbf_ns, self.iter_ns_est, self.MAX_EVERY
            )
        self.last_ckpt_call = call_idx
        self.anchor_ns = now
        self.first_due_ns = None
        self.commits += 1


def _match_anything(req: RecvRequest, env: Envelope) -> bool:
    """match_allowed stand-in when identifier matching is disabled."""
    return True


class SPBC(ProtocolHooks):
    """Scalable Pattern-Based Checkpointing."""

    def __init__(self, config: SPBCConfig) -> None:
        self.config = config
        self.clusters = config.clusters
        # Send-path caches: the per-message hooks resolve cluster
        # membership with two list indexings instead of going through the
        # ClusterMap methods, and the send hook reads the cost model's
        # constants flattened (profiled hot on every Tier-1 workload).
        self._cluster_of: List[int] = list(config.clusters.cluster_of)
        self._ident_cost_ns = config.cost.ident_fixed_ns
        self._log_fixed_ns = config.cost.log_fixed_ns
        self._log_ns_per_byte = config.cost.log_ns_per_byte
        if not config.ident_matching:
            # Shadow the method with a module-level predicate: the
            # matching engine binds match_allowed once per runtime, and
            # the config test per match was measurable.
            self.match_allowed = _match_anything
        self.state: Dict[int, _RankState] = {}
        # Journal event sink (anything with .emit(kind, t, **fields));
        # installed by the runners when a run is being recorded.
        self.journal = None
        # The world's communicator registry, bound at the first attach.
        # The world itself is not kept: a protocol pointing back at it
        # would make a finished world a reference cycle.
        self._comms = None
        self._cluster_comms: Dict[int, Any] = {}
        self.storage: TieredBackend = config.storage or make_backend("memory")
        self._emulated = config.emulated_recovering
        self._cadences: Dict[int, _AutoCadence] = {}  # cluster -> cadence
        self._plane: Optional[CkptDataPlane] = config.ckpt_data
        self._warned_zero_bytes = False
        # (start_ns, end_ns, cluster) of every shared-tier write burst,
        # behind peak_concurrent_pfs_writers.  Async-flush backends
        # record their bursts as *measured* flow windows instead.
        self.pfs_write_windows: List[Tuple[int, int, int]] = []
        # Time each rank spent stalled inside coordinated checkpoints
        # (barriers + drain + compression + the charged write burst) —
        # what async flushing is meant to shrink (ioverlap experiment).
        self.ckpt_stall_ns: Dict[int, int] = {}
        self._validate_config(config)

    def _validate_config(self, config: SPBCConfig) -> None:
        mtbf = config.mtbf_ns
        if isinstance(mtbf, bool) or not isinstance(mtbf, int) or mtbf <= 0:
            raise ValueError(
                f"mtbf_ns must be a positive integer MTBF in ns, got {mtbf!r}"
            )
        if config.state_nbytes < 0:
            raise ValueError(
                f"state_nbytes must be >= 0, got {config.state_nbytes}"
            )
        self._validate_checkpoint_every(config)

    def _validate_checkpoint_every(self, config: SPBCConfig) -> None:
        every = config.checkpoint_every
        if every is None:
            return
        if isinstance(every, str):
            if every != "auto":
                raise ValueError(
                    f"checkpoint_every accepts an int, None, or 'auto', "
                    f"got {every!r}"
                )
            if self.storage.writes_free:
                raise ValueError(
                    "checkpoint_every='auto' needs a cost-modeled storage "
                    "backend (e.g. --storage tiered): the free in-memory "
                    "store has no write cost to optimize against"
                )
        elif every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 (or None/'auto'), got {every}"
            )

    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        # The runtime stamps identifiers inline in isend/irecv/iprobe,
        # gated by this capability flag: the ident is always just its
        # active_ident, so there is no per-message hook to dispatch.
        runtime.stamp_idents = self.config.ident_matching
        if self._comms is None:
            self._comms = runtime.world.comms
            if self.clusters.nranks != runtime.world.nranks:
                raise ValueError(
                    f"cluster map covers {self.clusters.nranks} ranks but the "
                    f"world has {runtime.world.nranks}"
                )
            # Partner copies and per-node blast radii need placement.
            self.storage.bind_topology(runtime.world.topology)
            # Async flushes, partner rebuilds, and flow-based restart
            # reads run on the engine clock via the I/O scheduler.
            self.storage.bind_engine(runtime.engine)
        st = _RankState(runtime.rank, self.clusters.cluster(runtime.rank))
        self.state[runtime.rank] = st
        runtime.spbc_state = st

    def _cluster_comm(self, cluster: int):
        comm = self._cluster_comms.get(cluster)
        if comm is None:
            comm = self._comms.create(
                self.clusters.members(cluster), name=f"spbc.cluster{cluster}"
            )
            self._cluster_comms[cluster] = comm
        return comm

    # ------------------------------------------------------------------
    # Identifier matching (sections 4.3, 5.2.1)
    # ------------------------------------------------------------------
    def match_allowed(self, req: RecvRequest, env: Envelope) -> bool:
        # ident_matching=False installs _match_anything in __init__, so
        # this body only ever runs with identifier matching on.
        return req.ident == env.ident

    # ------------------------------------------------------------------
    # Send path (Algorithm 1 lines 3-9)
    # ------------------------------------------------------------------
    def _log_and_filter(self, runtime, st: _RankState, env: Envelope):
        """Inter-cluster send path: log (line 6) + re-send filter (line 7)."""
        # Line 6: log before the re-send filter, exactly once per message.
        if env.seqnum > st.log.last_seq(env.comm_id, env.dst):
            st.log.append(
                LogRecord(
                    comm_id=env.comm_id,
                    dst=env.dst,
                    seqnum=env.seqnum,
                    tag=env.tag,
                    nbytes=env.nbytes,
                    ident=env.ident,
                    payload=env.payload,
                    send_time_ns=runtime.engine.now,
                )
            )
        if st.recovering:
            out_key = (env.comm_id, env.dst)
            if out_key in st.gated:
                return "defer"
            if env.seqnum <= st.ls.get(out_key, 0):
                return False  # line 7: destination already received it
        return True

    def on_send(self, runtime, env: Envelope):
        """Decision and cost (:meth:`LogCostModel.send_cost_ns`, inlined) of
        one send, from one cluster resolution; emulated recovery charges
        nothing."""
        st = runtime.spbc_state
        cluster_of = self._cluster_of
        if cluster_of[env.src] == cluster_of[env.dst]:
            dst = env.dst
            intra = st.intra_sent
            intra[dst] = intra.get(dst, 0) + 1
            if self._emulated is not None:
                return True, 0
            return True, self._ident_cost_ns
        if self._emulated is not None:
            if env.src in self._emulated:
                # Paper section 6.4 emulated recovery: the destination
                # already holds every inter-cluster message; skip them all.
                return False, 0
            return self._log_and_filter(runtime, st, env), 0
        return (
            self._log_and_filter(runtime, st, env),
            self._log_fixed_ns + int(env.nbytes * self._log_ns_per_byte),
        )

    # ------------------------------------------------------------------
    # Receive path (Algorithm 1 lines 10-12 + recovery dedup/reorder)
    # ------------------------------------------------------------------
    def on_arrival(self, runtime, env: Envelope, rvz_send_req_id=None) -> bool:
        st = runtime.spbc_state
        cluster_of = self._cluster_of
        if cluster_of[env.src] == cluster_of[env.dst]:
            src = env.src
            intra = st.intra_arrived
            intra[src] = intra.get(src, 0) + 1
            return True
        key = (env.comm_id, env.src)
        ch = st.chan_in(key)
        s = env.seqnum
        if s <= ch.arrived:
            return False  # duplicate (late live copy or redundant replay)
        if s == ch.arrived + 1:
            ch.arrived = s
            accept = True
            if s in ch.drop_set:
                ch.drop_set.discard(s)
                accept = False  # re-sent copy of an already-delivered message
            elif rvz_send_req_id is not None:
                ch.pending_data.add(s)
            if ch.buffer:
                runtime.engine.schedule(
                    0, self._drain_buffer, runtime, key, runtime.incarnation
                )
            return accept
        # Gap: hold until the missing seqnums are replayed.
        if s not in ch.buffer:
            ch.buffer[s] = (env, rvz_send_req_id)
        return False

    def _drain_buffer(self, runtime, key: ChannelIn, inc: int) -> None:
        if inc != runtime.incarnation or not runtime.alive:
            return
        st = self.state[runtime.rank]
        ch = st.chan_in(key)
        for stale in [s for s in ch.buffer if s <= ch.arrived]:
            del ch.buffer[stale]
        while (ch.arrived + 1) in ch.buffer:
            s = ch.arrived + 1
            env, rvz_id = ch.buffer.pop(s)
            ch.arrived = s
            if s in ch.drop_set:
                ch.drop_set.discard(s)
                continue
            if rvz_id is not None:
                ch.pending_data.add(s)
            runtime.accept_arrival(env, rvz_send_req_id=rvz_id)

    def on_deliver(self, runtime, env: Envelope) -> None:
        cluster_of = self._cluster_of
        if cluster_of[env.src] == cluster_of[env.dst]:
            return
        st = runtime.spbc_state
        key = (env.comm_id, env.src)
        st.lr[key] = max(st.lr.get(key, 0), env.seqnum)  # line 11
        ch = st.inbound.get(key)
        if ch is not None:
            ch.pending_data.discard(env.seqnum)

    # ------------------------------------------------------------------
    # Coordinated checkpointing inside a cluster (lines 13-15)
    # ------------------------------------------------------------------
    def _cadence(self, cluster: int) -> _AutoCadence:
        cad = self._cadences.get(cluster)
        if cad is None:
            cad = self._cadences[cluster] = _AutoCadence()
        return cad

    def checkpoint_noop(self, runtime) -> bool:
        """Per-iteration fast path: advance the call counter and decide —
        without any generator machinery — whether this call checkpoints.
        The runtime guarantees exactly one call per application
        ``maybe_checkpoint``, immediately before the (possibly skipped)
        generator entry point below."""
        st = runtime.spbc_state
        st.ckpt_calls += 1
        every = self.config.checkpoint_every
        if every is None:
            return True
        if every == "auto":
            cad = self._cadence(st.cluster)
            return not cad.due(st.ckpt_calls, runtime.engine.now)
        return st.ckpt_calls % every != 0

    def maybe_checkpoint(self, runtime, state_fn: Callable[[], dict]) -> Generator:
        # Only reached when checkpoint_noop() returned False: this call
        # is a due checkpoint round.
        st = self.state[runtime.rank]
        if self.config.checkpoint_every == "auto":
            cad = self._cadence(st.cluster)
            receipt = yield from self._coordinated_checkpoint(runtime, state_fn)
            cad.note_commit(
                st.ckpt_calls,
                runtime.engine.now,
                receipt,
                self.config.mtbf_ns,
                expected_cost_ns=self._expected_write_cost_ns(cad),
            )
            return st.ckpt_round
        yield from self._coordinated_checkpoint(runtime, state_fn)
        return st.ckpt_round

    def _expected_write_cost_ns(self, cad: _AutoCadence) -> Optional[int]:
        """Expected per-round write cost under the data plane's
        full/delta cycle (None without a plane: the cadence falls back
        to the committed round's actual cost)."""
        if self._plane is None:
            return None
        full_period = self._plane.full_period
        if self._plane.full_on_durable:
            # The plan's shared-tier (PFS) rounds force fulls too: the
            # effective full period is whichever comes first.
            full_period = next(
                (
                    r
                    for r in range(1, full_period)
                    if self.storage.round_writes(r).shared_scheduled
                ),
                full_period,
            )
        exp_bytes = self._plane.expected_stored_bytes(
            iters_per_round=max(1, cad.every), full_period=full_period
        )
        # Price the expectation at the same concurrency the charged
        # costs use: every cluster contends with the whole world.
        cost = self.storage.amortized_write_cost_ns(
            exp_bytes, concurrent_writers=self.clusters.nranks
        )
        return cost if cost > 0 else None

    def _coordinated_checkpoint(self, runtime, state_fn) -> Generator:
        """Blocking coordinated checkpoint of this rank's cluster.

        Contract: the application calls maybe_checkpoint only when all its
        own requests are complete (the natural state at an iteration
        boundary).  Under that contract no intra-cluster rendezvous is
        pending; only eager messages can still be in flight, and the drain
        loop below waits them out, so the saved cut has empty intra-cluster
        channels.
        """
        st = self.state[runtime.rank]
        stall_from_ns = runtime.engine.now
        ccomm = self._cluster_comm(st.cluster)
        yield from coll.barrier(runtime, ccomm)

        members = set(self.clusters.members(st.cluster))
        for attempt in range(_DRAIN_MAX_TRIES):
            mine = (
                {d: n for d, n in st.intra_sent.items() if d in members},
                {s: n for s, n in st.intra_arrived.items() if s in members},
            )
            counters = yield from coll.allgather(runtime, ccomm, mine, nbytes=64)
            if self._drained(ccomm, counters):
                break
            yield from runtime.compute(_DRAIN_RETRY_NS)
        else:  # pragma: no cover - indicates a misplaced checkpoint call
            raise RuntimeError(
                f"cluster {st.cluster}: intra-cluster channels failed to "
                "drain; maybe_checkpoint called at a non-quiescent point?"
            )

        st.ckpt_round += 1
        writes = self.storage.round_writes(st.ckpt_round)
        async_mode = self.storage.flows_active
        # Every cluster checkpoints on the same cadence, so the whole
        # world contends for shared tiers.  (Under async flush the
        # background flows share the PFS bandwidth for real.)
        writers = self.clusters.nranks
        ckpt = self._build_checkpoint(
            runtime, st, state_fn(), durable_round=writes.shared_scheduled
        )
        if ckpt.payload is not None and ckpt.payload.compress_ns > 0:
            # The data plane's compression stage runs on the CPU before
            # any bytes move toward storage.
            yield from runtime.compute(ckpt.payload.compress_ns)
        write_start_ns = runtime.engine.now
        write_ns = writes.commit_ns(ckpt.stored_bytes, writers)
        if write_ns > 0:
            # Charge the storage backend's modeled write time to the
            # simulation clock.  Under async flush this is the *local*
            # tiers only — the shared tier drains in the background.
            yield from runtime.compute(write_ns)
        write_end_ns = runtime.engine.now
        if writes.shared_scheduled and write_ns > 0 and not async_mode:
            # Within the burst the local tiers are modeled first, so the
            # shared-tier (PFS) phase is the tail — record only it: the
            # peak-writers measurement must not count a rank as a PFS
            # writer while it is still writing its local SSD.  (Async
            # bursts are measured from the actual flow timeline instead:
            # see TieredBackend.shared_flow_windows.)
            shared_ns = writes.shared_commit_ns(ckpt.stored_bytes, writers)
            end_ns = runtime.engine.now
            self.pfs_write_windows.append(
                (max(write_start_ns, end_ns - shared_ns), end_ns, st.cluster)
            )
        # Commit only after the write time has elapsed: a failure during
        # the write burst must fall back to the previous round, not find
        # a copy whose write never finished.  An async round's PFS copy
        # is launched here as a background flow and becomes restorable
        # only when it lands.
        receipt = self.storage.save(ckpt, concurrent_writers=writers)
        if self.journal is not None:
            # The committed-checkpoint observable: keyed by the cut's
            # taken_at time (the commit-history invariant's timestamp),
            # not the save instant, so canonical order is engine-free.
            self.journal.emit(
                "commit",
                t=ckpt.taken_at_ns,
                rank=runtime.rank,
                round=st.ckpt_round,
                nbytes=ckpt.nbytes,
                durable=bool(receipt.durable),
                committed_at_ns=runtime.engine.now,
            )
        if receipt.durable:
            # The commit reached a tier that survives node failure: the
            # snapshot now covers every resident record, so the sender's
            # log memory can be freed (bounded log residency).  Replay
            # still reaches the records via include_stable=True.
            st.log.truncate()
        yield from coll.barrier(runtime, ccomm)
        if self.storage.guaranteed_round(runtime.rank) >= st.ckpt_round:
            # Receiver-driven log GC: the backend certifies this round
            # can never be rolled back past (guaranteed_round), and the
            # closing barrier proves every member of this cluster
            # committed it — so our restart floor can never again drop
            # below this round's LR and senders may delete the records
            # it covers.  Announcing *before* the barrier would be
            # unsound: a failure between one member's save and another's
            # restarts the cluster from the previous round, whose LR the
            # senders' logs must still serve.
            self._advance_gc_floor(runtime, st, ckpt)
        elif async_mode:
            self._deferred_gc(runtime, st, members)
        self.ckpt_stall_ns[runtime.rank] = (
            self.ckpt_stall_ns.get(runtime.rank, 0)
            + (runtime.engine.now - stall_from_ns)
        )
        tele = runtime.engine.telemetry
        if tele.enabled:
            tele.rank_span(
                "checkpoint",
                runtime.rank,
                stall_from_ns,
                runtime.engine.now,
                args={
                    "round": st.ckpt_round,
                    "nbytes": ckpt.nbytes,
                    "durable": bool(receipt.durable),
                },
            )
            if write_end_ns > write_start_ns:
                tele.rank_span(
                    "ckpt-write",
                    runtime.rank,
                    write_start_ns,
                    write_end_ns,
                    args={"round": st.ckpt_round},
                )
            tele.inc("spbc.commits")
            tele.inc("spbc.ckpt_bytes", ckpt.nbytes)
        return receipt

    def _deferred_gc(self, runtime, st: _RankState, members) -> None:
        """Async-flush GC: a round earns credit only once its background
        PFS flow lands, so durability arrives *between* barriers.  At
        the next commit barrier, the latest round whose chain has
        durably landed at **every** member (a per-rank guaranteed round
        is not cluster-consistent while flushes drain at different
        speeds) is announced to the senders, and the resident log is
        folded into the stable area (its snapshot rides in every later
        checkpoint, so replayability is preserved)."""
        # Own rank first: the cluster minimum can't exceed it, so this
        # skips the k-1 peer chain walks whenever our own latest drain
        # hasn't advanced past the last notice (the common case).
        if self.storage.guaranteed_round(runtime.rank) <= st.gc_round_sent:
            return
        g = min(self.storage.guaranteed_round(m) for m in members)
        if g <= st.gc_round_sent or g < 1:
            return
        drained = self.storage.load_round(runtime.rank, g)
        if drained is None:  # pragma: no cover - defensive
            return
        st.log.truncate()
        self._advance_gc_floor(runtime, st, drained)

    def _advance_gc_floor(self, runtime, st: _RankState, ckpt: Checkpoint) -> None:
        """Raise this rank's log-GC floor to ``ckpt``'s round (Algorithm 1
        line 15): announce it to the senders, and release the checkpoint
        bodies below the floor round's delta chain — no restart can
        target them any more."""
        st.gc_round_sent = ckpt.round_no
        self._send_gc_notices(runtime, st, ckpt)
        self.storage.release_below(runtime.rank, ckpt.round_no)

    def _send_gc_notices(self, runtime, st: _RankState, ckpt: Checkpoint) -> None:
        by_peer: Dict[int, Dict[int, int]] = {}
        for (cid, src), lr_val in ckpt.lr.items():
            if lr_val > 0 and self.clusters.is_intercluster(runtime.rank, src):
                by_peer.setdefault(src, {})[cid] = lr_val
        for peer, lr_map in sorted(by_peer.items()):
            runtime.control_send(peer, LOG_GC, {"lr": lr_map}, nbytes=32)
        if self.journal is not None and by_peer:
            self.journal.emit(
                "gc",
                t=runtime.engine.now,
                rank=runtime.rank,
                round=st.gc_round_sent,
                peers=len(by_peer),
            )
        if by_peer:
            tele = runtime.engine.telemetry
            if tele.enabled:
                tele.inc("spbc.gc_notices", len(by_peer))
                tele.rank_instant(
                    "gc",
                    runtime.rank,
                    runtime.engine.now,
                    args={"round": st.gc_round_sent},
                )

    @staticmethod
    def _drained(ccomm, counters) -> bool:
        """True when, for every ordered intra-cluster pair, the sender's
        count equals the receiver's arrival count."""
        wr = ccomm.world_ranks
        sent_of = {wr[i]: c[0] for i, c in enumerate(counters)}
        arr_of = {wr[i]: c[1] for i, c in enumerate(counters)}
        for a, sends in sent_of.items():
            for b, n in sends.items():
                if arr_of[b].get(a, 0) != n:
                    return False
        return True

    def _build_checkpoint(
        self, runtime, st: _RankState, app_state: dict, durable_round: bool
    ) -> Checkpoint:
        # Snapshot the unexpected queue: intra-cluster envelopes are part
        # of the library state; inter-cluster ones are *excluded* — after
        # a rollback they come back through log replay (their seqnums are
        # above the LR we save).  Only eager envelopes can be here under
        # the quiescence contract.
        unexpected = []
        inter_held: Dict[ChannelIn, List[int]] = {}
        for env in runtime.matching.unexpected:
            if self.clusters.is_intercluster(env.src, env.dst):
                inter_held.setdefault((env.comm_id, env.src), []).append(env.seqnum)
            else:
                unexpected.append(env)
        # Saved arrival marks: delivered LR plus contiguous held prefix.
        arrived_snapshot: Dict[ChannelIn, int] = {}
        for key, ch in st.inbound.items():
            base = st.lr.get(key, 0)
            held = sorted(inter_held.get(key, []))
            mark = base
            for s in held:
                if s == mark + 1:
                    mark = s
                else:
                    break
            arrived_snapshot[key] = mark
        # Keep the held inter-cluster envelopes that the arrival mark
        # covers (contiguous ones) — consistent with the saved counters.
        for env in runtime.matching.unexpected:
            key = (env.comm_id, env.src)
            if (
                self.clusters.is_intercluster(env.src, env.dst)
                and env.seqnum <= arrived_snapshot.get(key, 0)
            ):
                unexpected.append(env)

        # Checkpoint size: application state plus the log records not yet
        # carried by an earlier commit (resident bytes — an incremental-
        # log model: each record is charged to exactly one checkpoint
        # write, the first one after it was logged or restored).  Apps
        # that don't report "nbytes" fall back to the harness-derived
        # config.state_nbytes (the write-locality profile's full size).
        state_bytes = app_state.get("nbytes", 0) or self.config.state_nbytes
        log_bytes = st.log.resident_bytes
        payload = None
        if self._plane is not None:
            payload = self._plane.build_payload(
                runtime.rank,
                st.ckpt_round,
                iters_since_prev=max(1, st.ckpt_calls - st.calls_at_last_ckpt),
                log_bytes=log_bytes,
                durable_round=durable_round,
                state_bytes=state_bytes or None,
            )
            nbytes = payload.full_bytes + log_bytes
        else:
            nbytes = state_bytes + log_bytes
        st.calls_at_last_ckpt = st.ckpt_calls
        if (
            nbytes == 0
            and not self._warned_zero_bytes
            and not self.storage.writes_free
        ):
            # A cost-modeled backend charging for zero bytes silently
            # models free checkpoints — almost always a harness bug
            # (an app registered without a payload size).
            self._warned_zero_bytes = True
            warnings.warn(
                f"rank {runtime.rank} committed a zero-byte checkpoint "
                f"(round {st.ckpt_round}) against a cost-modeled storage "
                "backend; set SPBCConfig.state_nbytes or give the app a "
                "write-locality profile so write costs are not modeled "
                "as free",
                RuntimeWarning,
                stacklevel=2,
            )
        ckpt = Checkpoint(
            rank=runtime.rank,
            round_no=st.ckpt_round,
            taken_at_ns=runtime.engine.now,
            app_state=app_state,
            chan_seq=dict(runtime.chan_seq),
            lr=dict(st.lr),
            arrived=arrived_snapshot,
            ls=dict(st.ls),
            pattern_state=runtime.pattern_state(),
            unexpected=list(unexpected),
            log_snapshot=st.log.snapshot(),
            coll_seq=dict(runtime._coll_seq),
            nbytes=nbytes,
            payload=payload,
        )
        return ckpt

    # ------------------------------------------------------------------
    # Restart side (lines 16-20) — called by the RecoveryManager
    # ------------------------------------------------------------------
    def restore_rank(self, runtime, ckpt: Checkpoint, broadcast: bool = False) -> None:
        """Reset a restarted rank's library + protocol state from its
        checkpoint.  The caller has already called ``runtime.restart()``.

        ``broadcast`` forces Rollback announcements to every inter-cluster
        rank — required when restarting from the initial state (a fresh
        state knows no channels yet) and available via
        ``rollback_scope="all"`` for apps whose communication graph grows
        between checkpoint and failure."""
        ckpt.require_body()
        prev = self.state.get(runtime.rank)
        st = _RankState(runtime.rank, self.clusters.cluster(runtime.rank))
        self.state[runtime.rank] = st
        runtime.spbc_state = st
        st.recovering = True
        # Rounds above the restore point are being re-executed: a stale
        # background flush still draining one of them must never land
        # (it would register a dead incarnation's cut as restorable).
        self.storage.cancel_inflight_above(runtime.rank, ckpt.round_no)
        if prev is not None:
            # Receiver-certified GC floors are facts about the peers'
            # restart guarantees, not about this incarnation: keep them,
            # so restore() re-collects snapshot records below them.
            st.log.inherit_floors(prev.log)
        # A restarted cluster recalibrates its auto cadence: its call
        # counter restarts at 0, and the epoch anchor must be "now" or
        # the first post-restart interval estimate would span the crash.
        if self.config.checkpoint_every == "auto":
            self._cadences[st.cluster] = _AutoCadence(
                anchor_ns=runtime.engine.now
            )
        st.broadcast_rollback = broadcast or self.config.rollback_scope == "all"
        runtime.chan_seq = dict(ckpt.chan_seq)
        runtime._coll_seq = dict(ckpt.coll_seq)
        runtime.restore_pattern_state(ckpt.pattern_state)
        st.lr = dict(ckpt.lr)
        st.ls = dict(ckpt.ls)
        st.log.restore(ckpt.log_snapshot)
        st.ckpt_round = ckpt.round_no
        st.ckpt_calls = 0
        st.calls_at_last_ckpt = 0
        if self._plane is not None:
            # A delta must never span a rollback: the base the
            # re-execution would diff against was never committed.
            self._plane.note_restore(runtime.rank, ckpt.round_no)
        for key, mark in ckpt.arrived.items():
            st.chan_in(key).arrived = mark
        for env in ckpt.unexpected:
            runtime.matching.unexpected.append(env)
        # Gate every known inter-cluster outgoing channel until the peer
        # tells us (lastMessage/Rollback) what it already received.
        st.gated = self._known_out_channels(runtime, st)

    def _known_out_channels(self, runtime, st: _RankState) -> Set[ChannelOut]:
        if self.config.rollback_scope == "all" or st.broadcast_rollback:
            out: Set[ChannelOut] = set()
            wcid = self._comms.world.comm_id
            for r in range(self.clusters.nranks):
                if self.clusters.is_intercluster(runtime.rank, r):
                    out.add((wcid, r))
            return out
        keys = set(runtime.chan_seq) | st.log.channel_keys() | set(st.ls)
        return {
            (cid, dst)
            for cid, dst in keys
            if self.clusters.is_intercluster(runtime.rank, dst)
        }

    def send_rollbacks(self, runtime) -> None:
        """Announce the rollback on every known inter-cluster channel
        (line 20), carrying our restored LR per incoming channel."""
        st = self.state[runtime.rank]
        peers: Set[int] = {dst for _cid, dst in st.gated}
        for cid, src in list(st.lr) + list(st.inbound):
            if self.clusters.is_intercluster(runtime.rank, src):
                peers.add(src)
        if st.broadcast_rollback:
            peers |= {
                r
                for r in range(self.clusters.nranks)
                if self.clusters.is_intercluster(runtime.rank, r)
            }
        comm_ids = self._comm_ids_by_peer(st)
        for peer in sorted(peers):
            self._send_rollback_to(runtime, st, peer, comm_ids)
        st.rollbacks_handled += 1

    def _send_rollback_to(
        self, runtime, st: _RankState, peer: int, comm_ids: Callable[[int], Set[int]]
    ) -> None:
        if peer in st.rollback_sent:
            return
        if st.rollback_sent is _NO_KEYS:
            st.rollback_sent = set()
        st.rollback_sent.add(peer)
        lr_map = {cid: st.lr.get((cid, peer), 0) for cid in comm_ids(peer)}
        runtime.control_send(peer, ROLLBACK, {"lr": lr_map}, nbytes=64)

    def notify_failure(self, runtime, failed_ranks: Set[int]) -> None:
        """Failure notification at a surviving rank (paper line 16:
        'Upon failure of process Pj' reaches every process).

        A survivor may know channels to the failed cluster that the
        restarted rank's checkpoint predates (e.g. the restarted side
        only ever *received* on them).  Pinging the restarted members
        makes them extend their Rollback handshake to this survivor, so
        the survivor's log replay is never skipped."""
        st = self.state[runtime.rank]
        known: Set[int] = set()
        for cid, peer in list(st.lr) + list(st.inbound) + list(
            st.log.channel_keys()
        ) + list(runtime.chan_seq):
            if peer in failed_ranks:
                known.add(peer)
        for peer in sorted(known):
            runtime.control_send(peer, PEER_HELLO, {}, nbytes=16)

    def _comm_ids_by_peer(self, st: _RankState) -> Callable[[int], Set[int]]:
        """The comm ids of every channel ``st`` knows with a peer (plus
        ``MPI_COMM_WORLD``), indexed by one scan of its channel tables so
        a rollback broadcast does not rescan them per peer.  A set's
        iteration order fixes the Rollback's ``lr_map`` order and the
        replay order it drives, so each is built by one fixed insertion
        sequence: the peer's ids in ``lr``, then ``|=`` those of each
        later table."""
        tables: List[Dict[int, List[int]]] = []
        for table in (st.lr, st.inbound, st.log.channel_keys(), st.ls, st.gated):
            by_peer: Dict[int, List[int]] = {}
            for cid, p in table:
                by_peer.setdefault(p, []).append(cid)
            tables.append(by_peer)
        first, *rest = tables
        wcid = self._comms.world.comm_id

        def comm_ids(peer: int) -> Set[int]:
            cids = set(first.get(peer, ()))
            for by_peer in rest:
                cids |= set(by_peer.get(peer, ()))
            cids.add(wcid)
            return cids

        return comm_ids

    @staticmethod
    def _record_to_env(rec: LogRecord, src: int, dst: int) -> Envelope:
        return Envelope(
            src=src,
            dst=dst,
            tag=rec.tag,
            comm_id=rec.comm_id,
            seqnum=rec.seqnum,
            nbytes=rec.nbytes,
            payload=rec.payload,
            ident=rec.ident,
        )

    # ------------------------------------------------------------------
    # Peer side (lines 21-24) + lastMessage handling on the restarted side
    # ------------------------------------------------------------------
    def on_control(self, runtime, msg: ControlMsg) -> None:
        if msg.kind == ROLLBACK:
            self._handle_rollback(runtime, msg.src, msg.data["lr"])
        elif msg.kind == LASTMESSAGE:
            self._handle_lastmessage(runtime, msg.src, msg.data["received"])
        elif msg.kind == PEER_HELLO:
            st = self.state[runtime.rank]
            if st.recovering:
                self._send_rollback_to(
                    runtime, st, msg.src, self._comm_ids_by_peer(st)
                )
        elif msg.kind == LOG_GC:
            # The peer durably checkpointed its deliveries on these
            # channels: records at or below its LR can never be replayed
            # to it again — free them from both log areas.
            st = self.state[runtime.rank]
            for cid, lr_val in msg.data["lr"].items():
                st.log.collect(cid, msg.src, lr_val)

    def _handle_rollback(self, runtime, peer: int, peer_lr: Dict[int, int]) -> None:
        st = self.state[runtime.rank]
        st.rollbacks_handled += 1

        # 1. Scrub state tied to the peer's dead incarnation: inbound
        #    dedup/reorder (computing the complete prefix we can honestly
        #    acknowledge) and our own rendezvous sends stuck waiting for a
        #    CTS that will never come (replay carries their payload).
        received: Dict[int, int] = {}
        for cid in self._comm_ids_by_peer(st)(peer) | set(peer_lr):
            key = (cid, peer)
            prefix = self._scrub_inbound(runtime, key)
            received[cid] = prefix
            runtime.cancel_pending_rvz_to(peer, cid)

        # 2. Reply lastMessage (line 22).
        runtime.control_send(peer, LASTMESSAGE, {"received": received}, nbytes=64)

        # 3. Replay logged messages the peer is missing (lines 23-24),
        #    in sequence-number order, independently per channel.
        for cid, lr_val in peer_lr.items():
            for rec in st.log.replay_after(cid, peer, lr_val, include_stable=True):
                runtime.isend_raw(self._record_to_env(rec, runtime.rank, peer))
                st.replayed_records += 1

        # 4. Concurrent failure: if we are recovering too, the peer's
        #    Rollback doubles as its lastMessage for our direction.
        if st.recovering:
            for cid, lr_val in peer_lr.items():
                self._fix_ls(runtime, st, (cid, peer), lr_val)

    def _scrub_inbound(self, runtime, key: ChannelIn) -> int:
        """Reset one inbound channel around the sender's restart; returns
        the complete prefix to acknowledge."""
        st = self.state[runtime.rank]
        ch = st.chan_in(key)
        cid, peer = key
        delivered_floor = st.lr.get(key, 0)
        prefix = ch.complete_prefix(delivered_floor)

        # Drop incomplete/held state above the prefix; the restarted peer
        # re-sends all of it (seq > prefix).
        removed = runtime.scrub_peer_rendezvous(peer, cid)
        held: Set[int] = set()
        kept = []
        for env in runtime.matching.unexpected:
            if env.src == peer and env.comm_id == cid and env.seqnum > prefix:
                held.add(env.seqnum)
            else:
                kept.append(env)
        runtime.matching.unexpected[:] = kept

        # Messages delivered above the prefix will be re-sent: swallow them.
        drop = set()
        for s in range(prefix + 1, ch.arrived + 1):
            if s not in ch.pending_data and s not in held:
                drop.add(s)
        ch.drop_set = drop
        ch.pending_data.clear()
        ch.buffer.clear()
        ch.arrived = prefix
        return prefix

    def _handle_lastmessage(self, runtime, peer: int, received: Dict[int, int]) -> None:
        st = self.state[runtime.rank]
        for cid, value in received.items():
            self._fix_ls(runtime, st, (cid, peer), value)

    def _fix_ls(self, runtime, st: _RankState, key: ChannelOut, value: int) -> None:
        """Line 25-26: set LS, replay our own logged backlog the peer is
        missing (possible when in-flight messages died with our crash),
        then release sends deferred on this channel."""
        cid, peer = key
        if st.ls is EMPTY_DICT:
            st.ls = {}
        st.ls[key] = value
        if key in st.gated:
            st.gated.discard(key)
            for rec in st.log.replay_after(cid, peer, value, include_stable=True):
                runtime.isend_raw(self._record_to_env(rec, runtime.rank, peer))
                st.replayed_records += 1
            runtime.release_deferred(cid, peer)

    # ------------------------------------------------------------------
    # Reporting helpers (benchmarks)
    # ------------------------------------------------------------------
    def log_growth_rates_mb_s(self, duration_ns: int) -> List[float]:
        """Per-rank log growth rates — Table 1's raw data."""
        return [
            self.state[r].log.growth_rate_mb_s(duration_ns)
            for r in sorted(self.state)
        ]

    def total_bytes_logged(self) -> int:
        return sum(s.log.bytes_logged for s in self.state.values())

    def total_collected_log_bytes(self) -> int:
        """Bytes freed by receiver-driven GC across all ranks."""
        return sum(s.log.collected_bytes for s in self.state.values())

    def auto_cadence_report(self) -> Dict[int, dict]:
        """Per-cluster view of the 'auto' checkpoint cadence: the chosen
        interval, the measured iteration time, and the Young/Daly target
        it was derived from."""
        return {
            cluster: {
                "every": cad.every,
                "iter_ns": cad.iter_ns_est,
                "ckpt_cost_ns": cad.ckpt_cost_ns,
                "t_opt_ns": cad.t_opt_ns,
                "commits": cad.commits,
            }
            for cluster, cad in sorted(self._cadences.items())
        }

    def peak_concurrent_pfs_writers(self) -> int:
        """Maximum number of ranks with overlapping shared-tier write
        bursts.

        Sync bursts come from the closed-form window bookkeeping; async
        bursts are the backend's *measured* flow windows (start/finish
        of the actual background transfers)."""
        return peak_overlap(self.pfs_write_windows, self.storage.shared_flow_windows())

    def total_checkpoint_stall_ns(self) -> int:
        """Time ranks spent stalled inside coordinated checkpoints,
        summed over all ranks — the quantity async flushing shrinks
        (the background PFS drain no longer blocks the app)."""
        return sum(self.ckpt_stall_ns.values())

    def data_plane_report(self) -> Optional[dict]:
        """The data plane's payload/byte accounting (None when off)."""
        return self._plane.stats() if self._plane is not None else None
