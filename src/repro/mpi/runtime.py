"""The per-rank MPI runtime and the world that ties ranks together.

``MPIRuntime`` is the "MPI library" of one simulated rank: it owns the
matching engine, per-channel send sequence numbers, the eager/rendezvous
machinery, request bookkeeping, and the CPU-overhead accounting used by
the failure-free benchmarks.  Every protocol decision is delegated to the
installed :class:`~repro.mpi.hooks.ProtocolHooks`.

``World`` builds the engine/network/topology, one runtime per rank, the
communicator registry and the trace, and launches application processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.mpi.communicator import Communicator, CommunicatorRegistry
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    DEFAULT_EAGER_THRESHOLD,
    DEFAULT_IDENT,
)
from repro.mpi.hooks import NativeHooks, ProtocolHooks
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import (
    ControlMsg,
    CtsMsg,
    EagerMsg,
    Envelope,
    RtsMsg,
    RvzData,
    WIRE_HEADER_BYTES,
)
from repro.mpi.request import RecvRequest, Request, SendRequest, Status
from repro.obs import resolve_telemetry
from repro.sim.engine import AllOf, AnyOf, Engine, SimError, Trigger, sim_gc
from repro.sim.network import Network, NetworkParams, Packet, Topology
from repro.sim.process import DebtWait, SimProcess, SleepMarker
from repro.sim.tracing import (
    KIND_DELIVER,
    KIND_MATCH,
    KIND_POST,
    KIND_SEND,
    Trace,
    pack_row,
)
from repro.util.empty import EMPTY_DICT

# CPU cost of handing a loopback (self) message through shared memory.
LOOPBACK_NS_PER_BYTE = 0.05
LOOPBACK_FIXED_NS = 150


class MPIRuntime:
    """MPI library instance of a single world rank.

    One of these exists per simulated rank, so its footprint bounds the
    world size: the attributes are slots, and the containers only rare
    paths fill (rendezvous, deferred sends, the pattern API) start out
    as the shared read-only :data:`~repro.util.empty.EMPTY_DICT` and
    are created by their first writer."""

    __slots__ = (
        "world",
        "rank",
        "engine",
        "hooks",
        "matching",
        "_trace_on",
        "_trace_put",
        "telemetry",
        "_tele_on",
        "_eager_threshold",
        "_comms",
        "stamp_idents",
        "spbc_state",
        "alive",
        "incarnation",
        "chan_seq",
        "_recv_post_seq",
        "_send_post_seq",
        "_send_complete_seq",
        "_rvz_pending_cts",
        "_rvz_awaiting_data",
        "_rvz_unexpected",
        "_deferred_sends",
        "cpu_debt_ns",
        "overhead_total_ns",
        "compute_total_ns",
        "_send_busy_until",
        "active_ident",
        "_next_pattern_id",
        "pattern_iters",
        "_arrival_signal",
        "_sleep",
        "_csleep",
        "_debt_gate",
        "warp_capable",
        "warp_skip",
        "_coll_seq",
    )

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.engine: Engine = world.engine
        self.hooks: ProtocolHooks = world.hooks
        self.matching = MatchingEngine(self.hooks.match_allowed)
        self._trace_on = world.trace.enabled  # immutable for a run
        # Row sink of the trace (repro.sim.tracing): one C call per event.
        self._trace_put = world.trace.rows.frombytes
        self.telemetry = world.telemetry
        self._tele_on = world.telemetry.enabled  # immutable for a run
        self._eager_threshold = world.eager_threshold
        self._comms = world.comms.comms  # cached: one dict hit per deliver
        # Identifier-stamping capability: set by the protocol at attach()
        # (SPBC with ident_matching).  When False, messages, receives and
        # probes carry DEFAULT_IDENT.
        self.stamp_idents = False
        # Protocol-owned per-rank state, cached here by SPBC at attach()
        # and restore_rank() so the per-message hooks skip a dict lookup.
        self.spbc_state = None
        self.alive = True
        self.incarnation = 0

        # Per-channel outgoing sequence numbers: (comm_id, dst) -> last.
        self.chan_seq: Dict[Tuple[int, int], int] = {}
        # Per-rank request numbering (paper section 3.3 identities).
        self._recv_post_seq = 0
        self._send_post_seq = 0
        self._send_complete_seq = 0

        # Rendezvous bookkeeping (created by the first rendezvous).
        self._rvz_pending_cts: Dict[int, SendRequest] = EMPTY_DICT
        self._rvz_awaiting_data: Dict[Tuple, RecvRequest] = EMPTY_DICT
        # message_key -> send_req_id
        self._rvz_unexpected: Dict[Tuple, int] = EMPTY_DICT
        # Sends held back until the peer's lastMessage fixes LS (created
        # by the first deferral, on a restarted rank).
        self._deferred_sends: Dict[Tuple[int, int], List[SendRequest]] = EMPTY_DICT

        # Deferred CPU cost (charged at the next blocking call).
        self.cpu_debt_ns = 0
        self.overhead_total_ns = 0
        # Application compute time (the profiler's numerator).
        self.compute_total_ns = 0
        # Serialization point for protocol work on the send path.
        self._send_busy_until = 0

        # Pattern API state (stamped into idents by the SPBC hooks).
        self.active_ident: Tuple[int, int] = DEFAULT_IDENT
        self._next_pattern_id = 0
        self.pattern_iters: Dict[int, int] = EMPTY_DICT  # see declare_pattern

        # Fires on every accepted arrival; blocking probe waits on it.
        self._arrival_signal = Trigger()

        # Reusable sleep markers (repro.sim.process.SleepMarker): at most
        # one sleep is ever outstanding per rank, so every virtual sleep
        # mutates one of these two objects instead of allocating
        # (_csleep for application compute phases, _sleep for CPU-debt
        # flushes inside blocking calls — the warp detector tells them
        # apart).
        self._sleep = SleepMarker()
        self._csleep = SleepMarker(is_compute=True)
        # Fused debt-flush + trigger wait (repro.sim.process.DebtWait).
        self._debt_gate = DebtWait()

        # Steady-state warp cooperation (repro.sim.warp): an application
        # declares itself warp-capable via RankContext.declare_warpable,
        # and consumes granted iteration jumps via RankContext.warp_jump.
        self.warp_capable = False
        self.warp_skip = 0

        # Collective instance counters, per communicator.
        self._coll_seq: Dict[int, int] = {}

        world.network.attach(rank, self._on_packet)

    # ------------------------------------------------------------------
    # Pattern API (paper section 5.1) — state only; semantics live in the
    # protocol hooks.  DECLARE_PATTERN / BEGIN_ITERATION / END_ITERATION
    # are local operations: no communication happens here.
    # ------------------------------------------------------------------
    def declare_pattern(self) -> int:
        self._next_pattern_id += 1
        pid = self._next_pattern_id
        if self.pattern_iters is EMPTY_DICT:
            self.pattern_iters = {}
        # setdefault, not assignment: a restarted process re-executes its
        # (deterministic, SPMD) declarations, and the pattern's iteration
        # counter restored from the checkpoint must survive them.
        self.pattern_iters.setdefault(pid, 0)
        return pid

    def begin_iteration(self, pattern_id: int) -> None:
        if pattern_id not in self.pattern_iters:
            raise ValueError(f"pattern {pattern_id} was never declared")
        self.pattern_iters[pattern_id] += 1
        self.active_ident = (pattern_id, self.pattern_iters[pattern_id])

    def end_iteration(self, pattern_id: int) -> None:
        if self.active_ident[0] != pattern_id:
            raise ValueError(
                f"end_iteration({pattern_id}) but active pattern is "
                f"{self.active_ident[0]}"
            )
        self.active_ident = DEFAULT_IDENT

    def pattern_state(self) -> dict:
        """Checkpointable snapshot of the pattern counters."""
        return {
            "next_pattern_id": self._next_pattern_id,
            "pattern_iters": dict(self.pattern_iters),
            "active_ident": self.active_ident,
        }

    def restore_pattern_state(self, state: dict) -> None:
        # The declaration counter restarts at 0: the restarted generator
        # re-executes its DECLARE_PATTERN calls in program order and must
        # obtain the same ids as the original execution.  The iteration
        # counters, in contrast, carry on from the checkpoint.
        self._next_pattern_id = 0
        self.pattern_iters = dict(state["pattern_iters"])
        self.active_ident = tuple(state["active_ident"])

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def next_seqnum(self, comm_id: int, dst: int) -> int:
        key = (comm_id, dst)
        self.chan_seq[key] = self.chan_seq.get(key, 0) + 1
        return self.chan_seq[key]

    def isend(
        self,
        dst: int,
        payload: Any = None,
        nbytes: int = 0,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ) -> SendRequest:
        """Nonblocking send to world rank ``dst``; returns a request."""
        comm = comm or self.world.comm_world
        if not self.alive:
            raise SimError(f"rank {self.rank}: isend on dead runtime")
        # Inlined next_seqnum: one dict lookup on the hottest path.
        comm_id = comm.comm_id
        key = (comm_id, dst)
        chan_seq = self.chan_seq
        seqnum = chan_seq.get(key, 0) + 1
        chan_seq[key] = seqnum
        env = Envelope(
            self.rank,
            dst,
            tag,
            comm_id,
            seqnum,
            nbytes,
            payload,
            self.active_ident if self.stamp_idents else DEFAULT_IDENT,
        )
        self._send_post_seq += 1
        req = SendRequest(
            env,
            self._send_post_seq,
            rendezvous=nbytes > self._eager_threshold and dst != self.rank,
        )
        if self._trace_on:
            ident = env.ident
            self._trace_put(pack_row(
                KIND_SEND, self.rank, self.engine.now, self.rank, dst, comm_id,
                seqnum, tag, nbytes, -1, ident[0], ident[1],
            ))
        decision, overhead = self.hooks.on_send(self, env)
        if overhead:
            self.cpu_debt_ns += overhead
            self.overhead_total_ns += overhead
        if decision is False:
            # Destination already received this message (recovery filter,
            # Algorithm 1 line 7).
            req.suppressed = True
            self._complete_send(req)
            return req
        if decision == "defer":
            # Restarted rank: LS for this channel is unknown until the
            # peer's lastMessage arrives; queue the physical transfer.
            self._defer_send((comm_id, dst), req)
            return req
        if overhead > 0:
            # Protocol work (the log memcpy) happens inside the send call,
            # *before* the message reaches the wire: delay the physical
            # transfer by the same amount, serialized per sender.  This is
            # what makes logging visible end-to-end (Table 2) instead of
            # disappearing into the receivers' waits.  The transfer stays
            # a scheduled event on purpose: folding the delay into the
            # packet would assign the delivery its engine sequence number
            # at isend time, which reorders same-timestamp ties and
            # (measurably, on the ANY_SOURCE apps) changes executions —
            # exact mode must stay bit-identical to the seed.
            at = max(self.engine.now, self._send_busy_until) + overhead
            self._send_busy_until = at
            self.engine.schedule_at_fast(
                at, self._transmit_evt, env, req, self.incarnation
            )
        else:
            self._transmit(env, req)
        return req

    def _defer_send(self, key: Tuple[int, int], req: SendRequest) -> None:
        if self._deferred_sends is EMPTY_DICT:
            self._deferred_sends = {}
        self._deferred_sends.setdefault(key, []).append(req)

    def _transmit_evt(self, env: Envelope, req: SendRequest, inc: int) -> None:
        if inc != self.incarnation or not self.alive:
            return
        # Eager non-loopback path inlined from _transmit (this event runs
        # once per protocol-charged send — the common SPBC case).
        if not req.rendezvous and env.dst != self.rank:
            pkt = self.world.network.send(
                self.rank, env.dst, EagerMsg(env), env.nbytes + WIRE_HEADER_BYTES
            )
            if req._trigger is None:
                req.completes_at_ns = pkt.inject_done_at
            else:
                self._complete_send_at(req, pkt.inject_done_at)
            return
        self._transmit(env, req)

    def _transmit(self, env: Envelope, req: SendRequest) -> None:
        """Physically move one envelope (eager, rendezvous, or loopback)."""
        if env.dst == self.rank:
            copy_ns = LOOPBACK_FIXED_NS + int(env.nbytes * LOOPBACK_NS_PER_BYTE)
            self.engine.schedule_fast(
                copy_ns, self._loopback_arrival, env, self.incarnation
            )
            self._complete_send(req)
            return
        if req.rendezvous:
            if self._rvz_pending_cts is EMPTY_DICT:
                self._rvz_pending_cts = {}
            self._rvz_pending_cts[req.req_id] = req
            self.world.network.send(
                self.rank, env.dst, RtsMsg(env, req.req_id), WIRE_HEADER_BYTES
            )
        else:
            pkt = self.world.network.send(
                self.rank, env.dst, EagerMsg(env), env.nbytes + WIRE_HEADER_BYTES
            )
            # Local completion once the NIC finished injecting the
            # payload.  No engine event is spent on it: the request
            # completes lazily at its first observation
            # (_settle/_settle_or_schedule) — same completion time, one
            # event per send saved.  A request whose trigger already
            # exists may have a waiter: see _complete_send_at.
            if req._trigger is None:
                req.completes_at_ns = pkt.inject_done_at
            else:
                self._complete_send_at(req, pkt.inject_done_at)

    def _complete_send_at(self, req: SendRequest, at_ns: int) -> None:
        """Local completion of an eager send whose trigger already exists.

        A send transmitted *after* its owner blocked on it — deferred at
        restart while LS was unknown, then moved by ``release_deferred``
        — has a waiter that is past every observation point: nothing
        would settle a parked completion time, so the completion must be
        an event or the wake-up is lost."""
        if req._trigger._waiters:
            self.engine.schedule_at_fast(
                at_ns, self._complete_send_evt, req, self.incarnation
            )
        else:
            req.completes_at_ns = at_ns

    def isend_raw(self, env: Envelope) -> SendRequest:
        """Send a pre-built envelope verbatim (log replay).

        Skips sequence-number assignment and every protocol hook: the
        envelope already carries the seqnum/ident it had in the original
        execution.  Used by replayers (paper section 5.2.2) and by the
        Rollback-triggered replay path (Algorithm 1 lines 23-24).
        """
        env.replayed = True
        self._send_post_seq += 1
        req = SendRequest(
            env,
            self._send_post_seq,
            rendezvous=env.nbytes > self.world.eager_threshold and env.dst != self.rank,
        )
        self._transmit(env, req)
        return req

    def release_deferred(self, comm_id: int, dst: int) -> None:
        """Flush sends queued while LS of (comm_id, dst) was unknown.

        Called by the protocol once the peer's lastMessage (or Rollback)
        fixed LS; each queued send is re-submitted to ``on_send``, whose
        decision now either suppresses or transmits it (its cost was
        charged when the send was first posted).
        """
        queue = self._deferred_sends.pop((comm_id, dst), [])
        for req in queue:
            decision, _ = self.hooks.on_send(self, req.env)
            if decision is False:
                req.suppressed = True
                self._complete_send(req)
            else:
                self._transmit(req.env, req)

    def _complete_send_evt(self, req: SendRequest, inc: int) -> None:
        if inc != self.incarnation:
            return
        self._complete_send(req)

    def _recv_block(self, rreq: Request):
        """Arm the fused debt-flush + receive-wait idiom; returns the
        object to yield, or None when no blocking is needed.

        One non-generator call shared by every inlined wait site
        (RankContext.sendrecv, collectives.barrier/allgather): pending
        CPU debt rides the receive wait as a DebtWait gate (resume at
        max(debt deadline, completion)), a bare debt with the receive
        already done becomes a plain sleep, and a debt-free incomplete
        receive blocks on its trigger directly."""
        debt = self.cpu_debt_ns
        if debt > 0:
            self.cpu_debt_ns = 0
            if rreq.done:
                sleep = self._sleep
                sleep.delay_ns = debt
                return sleep
            gate = self._debt_gate
            gate.deadline_ns = self.engine.now + debt
            gate.trigger = rreq.trigger
            return gate
        if not rreq.done:
            return rreq.trigger
        return None

    def _settle(self, req: Request) -> None:
        """Complete a lazily-completing send whose time has passed
        (nonblocking observation points: test/testall/testany)."""
        if req.completes_at_ns <= self.engine.now:
            req.completes_at_ns = -1
            self._complete_send(req)

    def _settle_or_schedule(self, req: Request) -> None:
        """Blocking observation points: settle a due lazy completion, or
        materialize the completion event so the wait's trigger fires."""
        ca = req.completes_at_ns
        req.completes_at_ns = -1
        if ca <= self.engine.now:
            self._complete_send(req)
        else:
            self.engine.schedule_at_fast(
                ca, self._complete_send_evt, req, self.incarnation
            )

    def _complete_send(self, req: SendRequest) -> None:
        if req.done:
            return
        self._send_complete_seq += 1
        req.complete_seq = self._send_complete_seq
        env = req.env
        req.complete(Status(-1, env.tag, env.nbytes))

    def _loopback_arrival(self, env: Envelope, inc: int) -> None:
        if inc != self.incarnation or not self.alive:
            return
        if self.hooks.on_arrival(self, env, None):
            self.accept_arrival(env)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> RecvRequest:
        """Nonblocking receive; ``src`` is a world rank or ANY_SOURCE."""
        comm = comm or self.world.comm_world
        if not self.alive:
            raise SimError(f"rank {self.rank}: irecv on dead runtime")
        self._recv_post_seq += 1
        req = RecvRequest(
            src=src,
            tag=tag,
            comm_id=comm.comm_id,
            req_seq=self._recv_post_seq,
            ident=self.active_ident if self.stamp_idents else DEFAULT_IDENT,
        )
        if self._trace_on:
            ident = req.ident
            self._trace_put(pack_row(
                KIND_POST, self.rank, self.engine.now, src, self.rank,
                comm.comm_id, -1, tag, 0, req.req_seq, ident[0], ident[1],
            ))
        env = self.matching.post(req)
        if env is not None:
            self._on_matched(req, env)
        return req

    def accept_arrival(self, env: Envelope, rvz_send_req_id: Optional[int] = None) -> None:
        """Feed an (already protocol-approved) envelope into matching."""
        req = self.matching.arrive(env)
        if req is None:
            if rvz_send_req_id is not None:
                self._note_rts(env.message_key, rvz_send_req_id)
        else:
            if rvz_send_req_id is not None:
                self._note_rts(env.message_key, rvz_send_req_id)
                self._on_matched(req, env)
            elif self._trace_on or self._rvz_unexpected:
                self._on_matched(req, env)
            else:
                # Flattened common path: eager match, no tracing, no
                # rendezvous bookkeeping pending — complete in place.
                self._complete_recv(req, env)
        # Wake blocked probes/waiters that poll the unexpected queue.  An
        # un-waited (still pending) signal can simply stay in place: a
        # fresh trigger is only needed once this one fired for somebody.
        sig = self._arrival_signal
        if sig._waiters:
            self._arrival_signal = Trigger()
            sig.fire()

    def _note_rts(self, key: Tuple, send_req_id: int) -> None:
        """Remember an accepted RTS until its receive matches."""
        if self._rvz_unexpected is EMPTY_DICT:
            self._rvz_unexpected = {}
        self._rvz_unexpected[key] = send_req_id

    def _on_matched(self, req: RecvRequest, env: Envelope) -> None:
        if self._trace_on:
            self._trace_env(KIND_MATCH, env, req.req_seq)
        rvz_id = (
            self._rvz_unexpected.pop(env.message_key, None)
            if self._rvz_unexpected
            else None
        )
        if rvz_id is not None:
            # Rendezvous: grant the sender a CTS; completion at data arrival.
            if self._rvz_awaiting_data is EMPTY_DICT:
                self._rvz_awaiting_data = {}
            self._rvz_awaiting_data[env.message_key] = req
            self.world.network.send(
                self.rank, env.src, CtsMsg(rvz_id), WIRE_HEADER_BYTES
            )
            return
        self._complete_recv(req, env)

    def _trace_env(self, kind: int, env: Envelope, req_seq: int) -> None:
        ident = env.ident
        self._trace_put(pack_row(
            kind, self.rank, self.engine.now, env.src, env.dst, env.comm_id,
            env.seqnum, env.tag, env.nbytes, req_seq, ident[0], ident[1],
        ))

    def _complete_recv(self, req: RecvRequest, env: Envelope) -> None:
        comm = self._comms[env.comm_id]
        # Direct map hit (the sender is a member by construction); the
        # checked comm_rank() accessor costs a try/except per delivery.
        status = Status(comm._rank_of_world[env.src], env.tag, env.nbytes, env.payload)
        if self._trace_on:
            self._trace_env(KIND_DELIVER, env, req.req_seq)
        self.hooks.on_deliver(self, env)
        # req.complete() inlined (once per delivered message).
        if not req.done:
            req.done = True
            req.status = status
            trigger = req._trigger
            if trigger is not None:
                trigger.fire(status)

    # ------------------------------------------------------------------
    # Packet dispatch (net sink)
    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        payload = pkt.payload
        cls = payload.__class__  # exact wire types; no subclassing
        if cls is EagerMsg:
            env = payload.env
            if self.hooks.on_arrival(self, env, None):
                self.accept_arrival(env)
        elif cls is RtsMsg:
            env = payload.env
            if self.hooks.on_arrival(self, env, payload.send_req_id):
                self.accept_arrival(env, rvz_send_req_id=payload.send_req_id)
        elif cls is CtsMsg:
            req = self._rvz_pending_cts.pop(payload.send_req_id, None)
            if req is None:
                return  # sender restarted; stale CTS
            data_pkt = self.world.network.send(
                self.rank,
                req.env.dst,
                RvzData(req.env, req.req_id),
                req.env.nbytes + WIRE_HEADER_BYTES,
            )
            self.engine.schedule_at_fast(
                data_pkt.inject_done_at, self._complete_send_evt, req, self.incarnation
            )
        elif cls is RvzData:
            req = self._rvz_awaiting_data.pop(payload.env.message_key, None)
            if req is None:
                return  # receiver restarted; stale data
            self._complete_recv(req, payload.env)
        elif cls is ControlMsg:
            self.hooks.on_control(self, payload)
        else:  # pragma: no cover - wiring error
            raise SimError(f"rank {self.rank}: unknown packet payload {payload!r}")

    # ------------------------------------------------------------------
    # Blocking operations (generators; apps use them via ``yield from``)
    # ------------------------------------------------------------------
    def charge_cpu(self, ns: int) -> None:
        """Accumulate CPU time to be paid at the next blocking call."""
        self.cpu_debt_ns += ns

    def _flush_debt(self) -> Generator:
        if self.cpu_debt_ns > 0:
            debt, self.cpu_debt_ns = self.cpu_debt_ns, 0
            sleep = self._sleep
            sleep.delay_ns = debt
            yield sleep

    def compute(self, ns: int) -> Generator:
        """Model ``ns`` of local computation."""
        if ns < 0:
            raise ValueError("negative compute time")
        self.compute_total_ns += ns
        debt, self.cpu_debt_ns = self.cpu_debt_ns, 0
        total = ns + debt
        warp = self.world.warp
        if warp is not None:
            warp.on_compute(self, total)
        if self._tele_on:
            now = self.engine.now
            self.telemetry.rank_span("compute", self.rank, now, now + total)
        sleep = self._csleep
        sleep.delay_ns = total
        yield sleep

    def wait(self, req: Request) -> Generator:
        if self.cpu_debt_ns > 0:
            debt, self.cpu_debt_ns = self.cpu_debt_ns, 0
            sleep = self._sleep
            sleep.delay_ns = debt
            yield sleep
        if not req.done:
            if req.completes_at_ns >= 0:
                self._settle_or_schedule(req)
            if not req.done:
                if self._tele_on:
                    t0 = self.engine.now
                    yield req.trigger
                    self.telemetry.rank_span(
                        "mpi-wait", self.rank, t0, self.engine.now
                    )
                else:
                    yield req.trigger
        return req.status

    def waitall(self, reqs: List[Request]) -> Generator:
        if self.cpu_debt_ns > 0:
            debt, self.cpu_debt_ns = self.cpu_debt_ns, 0
            sleep = self._sleep
            sleep.delay_ns = debt
            yield sleep
        for r in reqs:
            if not r.done and r.completes_at_ns >= 0:
                self._settle_or_schedule(r)
        pending = [r.trigger for r in reqs if not r.done]
        if pending:
            if self._tele_on:
                t0 = self.engine.now
                yield AllOf(pending)
                self.telemetry.rank_span(
                    "mpi-wait", self.rank, t0, self.engine.now
                )
            else:
                yield AllOf(pending)
        return [r.status for r in reqs]

    def waitany(self, reqs: List[Request]) -> Generator:
        """MPI_Waitany: yields (index, status) of one completed request.

        This call is one of the paper's two sources of non-determinism
        (section 3.2): which request completes first depends on message
        arrival timing.
        """
        if not reqs:
            raise ValueError("waitany on empty request list")
        yield from self._flush_debt()
        for r in reqs:
            if not r.done and r.completes_at_ns >= 0:
                self._settle_or_schedule(r)
        while True:
            for i, r in enumerate(reqs):
                if r.done:
                    return i, r.status
            if self._tele_on:
                t0 = self.engine.now
                yield AnyOf([r.trigger for r in reqs if not r.done])
                self.telemetry.rank_span(
                    "mpi-wait", self.rank, t0, self.engine.now
                )
            else:
                yield AnyOf([r.trigger for r in reqs if not r.done])

    def test(self, req: Request) -> Tuple[bool, Optional[Status]]:
        """MPI_Test: nonblocking completion check."""
        if not req.done and req.completes_at_ns >= 0:
            self._settle(req)
        return (True, req.status) if req.done else (False, None)

    def testall(self, reqs: List[Request]) -> Tuple[bool, Optional[List[Status]]]:
        for r in reqs:
            if not r.done and r.completes_at_ns >= 0:
                self._settle(r)
        if all(r.done for r in reqs):
            return True, [r.status for r in reqs]
        return False, None

    def testany(self, reqs: List[Request]) -> Tuple[bool, int, Optional[Status]]:
        """MPI_Testany: (flag, index, status) of the first completed
        request, or (False, -1, None).  Like MPI_Waitany, one of the
        paper's sources of timing non-determinism (section 3.2)."""
        for i, r in enumerate(reqs):
            if not r.done and r.completes_at_ns >= 0:
                self._settle(r)
            if r.done:
                return True, i, r.status
        return False, -1, None

    def waitsome(self, reqs: List[Request]) -> Generator:
        """MPI_Waitsome: block until at least one request completes, then
        return every completed (index, status) pair."""
        if not reqs:
            raise ValueError("waitsome on empty request list")
        yield from self._flush_debt()
        for r in reqs:
            if not r.done and r.completes_at_ns >= 0:
                self._settle_or_schedule(r)
        while True:
            done = [(i, r.status) for i, r in enumerate(reqs) if r.done]
            if done:
                return done
            if self._tele_on:
                t0 = self.engine.now
                yield AnyOf([r.trigger for r in reqs if not r.done])
                self.telemetry.rank_span(
                    "mpi-wait", self.rank, t0, self.engine.now
                )
            else:
                yield AnyOf([r.trigger for r in reqs if not r.done])

    def iprobe(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Tuple[bool, Optional[Status]]:
        """MPI_Iprobe: check for a matchable unexpected message.

        The probe carries the active identifier, so under SPBC a message
        from another pattern iteration is invisible — the same rule the
        modified matching function applies (section 5.2.1).
        """
        comm = comm or self.world.comm_world
        probe = RecvRequest(
            src=src,
            tag=tag,
            comm_id=comm.comm_id,
            req_seq=-1,
            ident=self.active_ident if self.stamp_idents else DEFAULT_IDENT,
        )
        env = self.matching.probe(probe)
        if env is None:
            return False, None
        return True, Status(
            source=comm.comm_rank(env.src), tag=env.tag, nbytes=env.nbytes
        )

    def probe(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        """Blocking probe: waits until a matching message is available."""
        yield from self._flush_debt()
        while True:
            flag, status = self.iprobe(src, tag, comm)
            if flag:
                return status
            if self._tele_on:
                t0 = self.engine.now
                yield self._arrival_signal
                self.telemetry.rank_span(
                    "mpi-wait", self.rank, t0, self.engine.now
                )
            else:
                yield self._arrival_signal

    def send(
        self,
        dst: int,
        payload: Any = None,
        nbytes: int = 0,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        req = self.isend(dst, payload, nbytes, tag, comm)
        yield from self.wait(req)

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        req = self.irecv(src, tag, comm)
        status = yield from self.wait(req)
        return status

    def maybe_checkpoint(self, state_fn: Callable[[], dict]) -> Generator:
        """Cooperative checkpoint opportunity (delegated to the protocol)."""
        warp = self.world.warp
        if warp is not None:
            warp.on_iteration(self)
        if self.cpu_debt_ns > 0:
            debt, self.cpu_debt_ns = self.cpu_debt_ns, 0
            sleep = self._sleep
            sleep.delay_ns = debt
            yield sleep
        if self.hooks.checkpoint_noop(self):
            # Fast path: the protocol declined this call (cadence not
            # due / checkpointing off) — skip the generator machinery
            # entirely.  This is once per app iteration per rank.
            return None
        result = yield from self.hooks.maybe_checkpoint(self, state_fn)
        return result

    # ------------------------------------------------------------------
    # Failure / restart support
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Crash this rank's library state (failure injection)."""
        self.alive = False
        self.incarnation += 1
        self.warp_skip = 0  # an unconsumed jump dies with the incarnation
        self.world.network.detach(self.rank)
        self.matching.clear()
        self._rvz_pending_cts.clear()
        self._rvz_awaiting_data.clear()
        self._rvz_unexpected.clear()
        self._deferred_sends.clear()
        self.cpu_debt_ns = 0
        self._send_busy_until = 0

    def restart(self) -> None:
        """Bring the library back up for a new process incarnation.

        Channel seqnums, pattern state etc. must be restored separately
        by the protocol (they are part of the checkpoint)."""
        self.alive = True
        self.matching = MatchingEngine(self.hooks.match_allowed)
        self._arrival_signal = Trigger()
        self.chan_seq = {}
        self._coll_seq = {}
        self._recv_post_seq = 0
        self._send_post_seq = 0
        self._send_complete_seq = 0
        self.world.network.attach(self.rank, self._on_packet)

    def cancel_pending_rvz_to(self, peer: int, comm_id: int) -> int:
        """Complete rendezvous sends stuck waiting for a CTS from a peer
        that just rolled back.

        The old incarnation's RTS died with the crash and the new
        incarnation will receive the payload through log replay (every
        inter-cluster message is logged before transmission), so the local
        send request is done as far as this application is concerned.
        Returns the number of requests completed.
        """
        victims = [
            (rid, req)
            for rid, req in self._rvz_pending_cts.items()
            if req.env.dst == peer and req.env.comm_id == comm_id
        ]
        for rid, req in victims:
            del self._rvz_pending_cts[rid]
            req.suppressed = True
            self._complete_send(req)
        return len(victims)

    def scrub_peer_rendezvous(self, peer: int, comm_id: int) -> int:
        """Cancel rendezvous transfers whose sender just rolled back.

        Matched-but-incomplete receives are unbound and re-posted (at the
        front, in original posting order) so the restarted peer's re-sent
        copy can match them again; unmatched-RTS bookkeeping is dropped
        (the protocol removes the corresponding unexpected envelopes).
        Returns the number of unbound requests.
        """
        victims = [
            (key, req)
            for key, req in self._rvz_awaiting_data.items()
            if key[0] == peer and key[2] == comm_id
        ]
        reqs = []
        for key, req in victims:
            del self._rvz_awaiting_data[key]
            req.matched_env = None
            reqs.append(req)
        reqs.sort(key=lambda r: r.req_seq)
        self.matching.posted[:0] = reqs
        for key in [
            k for k in self._rvz_unexpected if k[0] == peer and k[2] == comm_id
        ]:
            del self._rvz_unexpected[key]
        return len(victims)

    # ------------------------------------------------------------------
    def control_send(self, dst: int, kind: str, data: Any = None, nbytes: int = 0) -> None:
        """Send an out-of-band protocol control message."""
        msg = ControlMsg(kind=kind, data=data, src=self.rank)
        if dst == self.rank:
            # Local control delivery (e.g. a rank hosting a coordinator
            # role talking to itself): cheap in-process hop.
            self.engine.schedule_fast(
                LOOPBACK_FIXED_NS, self._local_control, msg, self.incarnation
            )
            return
        self.world.network.send(
            self.rank, dst, msg, nbytes + WIRE_HEADER_BYTES
        )

    def _local_control(self, msg: ControlMsg, inc: int) -> None:
        if inc != self.incarnation or not self.alive:
            return
        self.hooks.on_control(self, msg)


class World:
    """All simulated ranks plus the fabric they run on."""

    def __init__(
        self,
        nranks: int,
        ranks_per_node: int = 8,
        net_params: Optional[NetworkParams] = None,
        seed: int = 0,
        hooks: Optional[ProtocolHooks] = None,
        trace: bool = True,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        telemetry: Any = None,
    ) -> None:
        self.engine = self._make_engine(nranks)
        # Resolve telemetry before anything touches the engine: runtime
        # construction already runs protocol attach hooks (which bind
        # the storage backend and its I/O scheduler to this engine).
        self.telemetry = resolve_telemetry(telemetry)
        self.engine.telemetry = self.telemetry
        self.topology = Topology(nranks=nranks, ranks_per_node=ranks_per_node)
        self.network = self._make_network(net_params, seed)
        self.trace = Trace(enabled=trace)
        self.comms = CommunicatorRegistry(nranks)
        self.hooks = hooks or NativeHooks()
        self.eager_threshold = eager_threshold
        # Steady-state warp controller (repro.sim.warp); None = exact mode.
        self.warp = None
        # Construction allocates O(nranks) long-lived objects; the young
        # generation is sized for it like the run itself (see sim_gc).
        with sim_gc(nranks):
            self.runtimes: List[MPIRuntime] = [MPIRuntime(self, r) for r in range(nranks)]
            for rt in self.runtimes:
                self.hooks.attach(rt)
        self.processes: Dict[int, SimProcess] = {}
        # The queue-depth sampler is observation-only (reads the heap,
        # schedules nothing but its own re-arm); guarded like every
        # other call site so disabled telemetry is never even invoked.
        if self.telemetry.enabled:
            self.telemetry.start_queue_sampler(self.engine)

    def _make_engine(self, nranks: int) -> Engine:
        """Subclass hook: the engine, sized by the ranks it executes
        (its event queue is picked from that count); a shard executes
        only its owned ranks."""
        return Engine(nranks)

    def _make_network(self, net_params: Optional[NetworkParams], seed: int) -> Network:
        """Subclass hook: the sharded world (repro.sim.shard) swaps in a
        network that exports packets addressed outside the shard."""
        return Network(self.engine, self.topology, net_params, seed=seed)

    @property
    def nranks(self) -> int:
        return self.topology.nranks

    @property
    def comm_world(self) -> Communicator:
        return self.comms.world

    def launch(self, rank: int, gen: Generator, name: Optional[str] = None) -> SimProcess:
        """Create and start the application process of ``rank``."""
        proc = SimProcess(self.engine, name or f"rank{rank}", gen)
        self.processes[rank] = proc
        proc.start()
        return proc

    def run(self, until_ns: Optional[int] = None, detect_deadlock: bool = True) -> int:
        with sim_gc(self.nranks):
            return self.engine.run(until_ns=until_ns, detect_deadlock=detect_deadlock)
