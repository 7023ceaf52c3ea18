"""Steady-state warp: analytic fast-forward of failure-free periodic phases.

Iterative MPI applications spend almost all simulated time in a *periodic
steady state*: every rank runs the same loop body, the same messages move
on the same channels, and the whole world's state advances by a constant
delta per iteration.  Simulating each of those iterations event by event
is what caps the simulator's scale.  Warp mode observes the execution,
proves (empirically) that it has become periodic, and then jumps K
iterations at once by *shifting* the clock and *adding* K times the
measured per-iteration delta to every counter — producing, by
construction, exactly the state exact mode would have reached.

Exactness contract
------------------
The fast-forward is exact — identical simulated end time, Table 1 log
counters, and checkpoint commit history — when the application's loop
satisfies what the detector checks for:

* **Quiescent anchors.**  Once per iteration (armed by the anchor rank's
  ``maybe_checkpoint`` call) there must be an instant where every live
  rank is blocked in a virtual sleep (compute phase), the network has no
  packets in flight, no rendezvous transfer is half-done, no storage
  flow is draining, and no failure is scheduled.  The engine's event
  queue then holds nothing but the ranks' wake-ups.
* **Periodicity.**  Two consecutive anchor-to-anchor intervals must show
  the *same* period and the *same* per-rank delta in every piece of
  evolving state the controller tracks (channel seqnums, log bytes and
  records, LR/LS marks, intra-cluster counters, pattern iterations,
  traced bytes, NIC/FIFO offsets, wake offsets).  The simulator itself
  is time-translation invariant (all costs are relative; seeded jitter
  would simply never produce equal deltas, so jittered runs never warp),
  hence equal deltas twice running implies the state evolution is
  periodic and can be extrapolated.
* **A declared horizon.**  The controller must know how many iterations
  (``WarpConfig.total_iters`` = ``maybe_checkpoint`` calls per rank) the
  loop runs in total, because the loop's *exit* is invisible until it
  happens.  The jump always stops at least one full iteration short of
  the horizon and at least one iteration short of the next checkpoint
  round, so checkpoints, recoveries, and the final iterations always run
  in exact mode.

Anything that breaks the pattern — an injected failure event sitting in
the queue, an async flush draining, a data-dependent communication
schedule, ANY_SOURCE probing loops — simply prevents anchors or delta
equality, and the run proceeds in exact mode without further cost.

What a warped span does *not* materialize: per-message trace events
(``Trace.warp_pair_bytes`` carries the byte totals for the clustering
pipeline instead) and sender-log payloads (a single coalesced
:class:`~repro.core.logstore.LogRecord` with ``count``/``nbytes`` totals
keeps every byte/record/GC counter exact; replay content for warped
spans is not needed because warp only ever runs in failure-free phases
and recovery re-executes from exact-mode checkpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class WarpConfig:
    """Opt-in steady-state warp parameters (``--warp``).

    ``total_iters`` is the application's per-rank iteration count —
    the number of ``maybe_checkpoint`` calls each rank will make.  It is
    the exactness horizon: warp never jumps into or past the last
    iteration."""

    total_iters: int
    #: Rank whose maybe_checkpoint arms the per-iteration anchor probe.
    anchor_rank: int = 0
    #: Consecutive equal anchor-to-anchor deltas required before jumping.
    confirm: int = 2
    #: Optional cap on iterations per jump (None = to the horizon).
    max_chunk: Optional[int] = None
    #: Longest anchor period searched (a pure-logging singleton-cluster
    #: ring rotates its last-to-compute rank all the way around, giving
    #: periods up to nranks anchors; raising this finds them at the cost
    #: of keeping 2*max_period+1 snapshots).
    max_period: int = 8


@dataclass
class _Snapshot:
    now: int
    current_rank: int
    current_sleep_ns: int
    trace_len: int
    wake_in_ns: Dict[int, int]
    per_rank: Dict[int, dict]
    net_pairs: Dict[Tuple[int, int], Tuple[int, int]]  # (arrival-now, seq)
    nic_free_in_ns: List[int]
    net_counters: Tuple[int, int]


def _dict_delta(new: Dict, old: Dict) -> Optional[Dict]:
    """Per-key numeric delta; None if a key disappeared (not monotone)."""
    for k in old:
        if k not in new:
            return None
    return {k: v - old.get(k, 0) for k, v in new.items()}


class WarpController:
    """Observes one :class:`~repro.mpi.runtime.World` and fast-forwards it.

    Installed as ``world.warp``; the runtime calls :meth:`on_iteration`
    once per application iteration and :meth:`on_compute` when a rank is
    about to enter a virtual sleep.  Everything else happens lazily
    inside those two hooks.
    """

    def __init__(self, world, config: WarpConfig) -> None:
        self.world = world
        self.config = config
        self.engine = world.engine
        self.iter_count: Dict[int, int] = {}
        self._armed = False
        # All quiescent snapshots, newest last.  The execution's true
        # period can span several anchors (the last-to-compute rank
        # cycles, NIC/FIFO offsets alternate), so detection searches
        # periods p = 1..max_period over this list: a warp fires when
        # the last three snapshots at stride p show two identical
        # deltas.
        self._snaps: List[_Snapshot] = []
        self.max_period = config.max_period
        # Live (non-DONE) process count, refreshed once per anchor-rank
        # iteration: gates the O(n) quiescence probe on the engine's
        # O(1) compute-sleeper counter.
        self._live = 0
        # Stats (reported by simperf / asserted by tests).
        self.warps = 0
        self.warped_iterations = 0
        self.warped_time_ns = 0
        self.anchors_seen = 0

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def on_iteration(self, runtime) -> None:
        rank = runtime.rank
        self.iter_count[rank] = self.iter_count.get(rank, 0) + 1
        if rank == self.config.anchor_rank:
            self._armed = True
            from repro.sim.process import ProcessStatus

            self._live = sum(
                1
                for p in self.world.processes.values()
                if p.status is not ProcessStatus.DONE
            )

    def on_compute(self, runtime, sleep_ns: int) -> None:
        if not self._armed:
            return
        # Cheap O(1) rejections first: the quiescent instant needs every
        # other live rank parked in a compute sleep and an empty network
        # — the common case for every rank but the last one to finish an
        # iteration's communication.
        if self.engine.compute_sleepers < self._live - 1:
            return
        if self.world.network._in_flight:
            return
        snap = self._try_snapshot(runtime, sleep_ns)
        if snap is None:
            return
        self._armed = False
        self.anchors_seen += 1
        snaps = self._snaps
        snaps.append(snap)
        keep = 2 * self.max_period + 1
        if len(snaps) > keep:
            del snaps[: len(snaps) - keep]
        self._maybe_warp(snaps)

    # ------------------------------------------------------------------
    # Quiescence probe + snapshot
    # ------------------------------------------------------------------
    def _try_snapshot(self, runtime, sleep_ns: int) -> Optional[_Snapshot]:
        world = self.world
        engine = self.engine
        now = engine.now
        processes = world.processes

        # Every live rank except the caller must be blocked in a sleep.
        from repro.sim.process import ProcessStatus

        sleepers: Dict[int, Any] = {}
        for rank, proc in processes.items():
            if proc.status is ProcessStatus.DONE:
                continue
            if not world.runtimes[rank].warp_capable:
                return None  # the app did not opt into the warp contract
            if rank == runtime.rank:
                if proc.status is not ProcessStatus.RUNNING:
                    return None
                continue
            if proc.status is not ProcessStatus.BLOCKED:
                return None
            waiting = proc._waiting_on
            # Only a *compute* sleep marks a rank parked at its loop
            # body's fast-forwardable point; a CPU-debt sleep inside a
            # blocking call means the rank is mid-communication.
            if waiting is None or not getattr(waiting, "is_compute", False):
                return None
            sleepers[id(proc)] = rank

        # The event queue must hold nothing but those ranks' wake-ups:
        # any other event (failure injection, storage flow tick, stale
        # wake of a killed incarnation, composed timeout) vetoes warp.
        wake_in_ns: Dict[int, int] = {}
        for time_ns, _seq, handle, fn, _args in engine.iter_pending():
            if handle is not None:
                if handle.cancelled:
                    continue
                return None
            owner = getattr(fn, "__self__", None)
            rank = sleepers.get(id(owner))
            if rank is None or fn.__name__ != "_wake_sleep":
                return None
            if rank in wake_in_ns:
                return None  # stale duplicate wake — not quiescent
            wake_in_ns[rank] = time_ns - now
        if len(wake_in_ns) != len(sleepers):
            return None

        # Per-rank library/protocol state.
        spbc = self._spbc()
        per_rank: Dict[int, dict] = {}
        for rank in processes:
            rt = world.runtimes[rank]
            if (
                rt.matching.posted
                or rt.matching.unexpected
                or rt._rvz_pending_cts
                or rt._rvz_awaiting_data
                or rt._rvz_unexpected
                or rt._deferred_sends
            ):
                return None
            entry = {
                "iters": self.iter_count.get(rank, 0),
                "chan_seq": dict(rt.chan_seq),
                "send_post": rt._send_post_seq,
                "recv_post": rt._recv_post_seq,
                "send_complete": rt._send_complete_seq,
                "compute": rt.compute_total_ns,
                "overhead": rt.overhead_total_ns,
                "debt": rt.cpu_debt_ns,
                "busy_off": rt._send_busy_until - now,
                "patterns": dict(rt.pattern_iters),
                "active": rt.active_ident,
                "coll_seq": dict(rt._coll_seq),
            }
            if spbc is not None:
                st = spbc.state.get(rank)
                if st is None:
                    return None
                if st.recovering or st.gated:
                    return None
                for ch in st.inbound.values():
                    if ch.pending_data or ch.drop_set or ch.buffer:
                        return None
                entry.update(
                    lr=dict(st.lr),
                    ls=dict(st.ls),
                    arrived={k: ch.arrived for k, ch in st.inbound.items()},
                    intra_sent=dict(st.intra_sent),
                    intra_arrived=dict(st.intra_arrived),
                    ckpt_calls=st.ckpt_calls,
                    log_chans={
                        k: (len(recs), recs[-1].seqnum)
                        for k, recs in st.log.channels.items()
                    },
                    log_bytes=st.log.bytes_logged,
                    log_records=st.log.records_logged,
                )
            per_rank[rank] = entry

        net = world.network
        return _Snapshot(
            now=now,
            current_rank=runtime.rank,
            current_sleep_ns=sleep_ns,
            trace_len=len(world.trace),
            wake_in_ns=wake_in_ns,
            per_rank=per_rank,
            net_pairs={
                k: (v[0] - now, v[1]) for k, v in net.chan_state_items()
            },
            nic_free_in_ns=[t - now for t in net._nic_free],
            net_counters=(net.packets_sent, net.bytes_sent),
        )

    def _spbc(self):
        from repro.core.protocol import SPBC

        hooks = self.world.hooks
        return hooks if isinstance(hooks, SPBC) else None

    # ------------------------------------------------------------------
    # Periodicity check + jump
    # ------------------------------------------------------------------
    def _deltas(self, new: _Snapshot, old: _Snapshot) -> Optional[dict]:
        if new.current_rank != old.current_rank:
            return None
        if new.current_sleep_ns != old.current_sleep_ns:
            return None
        if new.wake_in_ns != old.wake_in_ns:
            return None
        if new.nic_free_in_ns != old.nic_free_in_ns:
            return None
        if set(new.per_rank) != set(old.per_rank):
            return None
        period = new.now - old.now
        if period <= 0:
            return None
        out: dict = {"period": period, "rank": {}, "net_pairs": {}}
        for key, (arr_off, seq) in new.net_pairs.items():
            o = old.net_pairs.get(key)
            if o is None:
                o = (arr_off, 0)  # new pair: baseline offset, zero seq
            elif o[0] != arr_off:
                return None  # FIFO floor offset must be stable
            out["net_pairs"][key] = seq - o[1]
        for key in old.net_pairs:
            if key not in new.net_pairs:
                return None
        out["net_counters"] = (
            new.net_counters[0] - old.net_counters[0],
            new.net_counters[1] - old.net_counters[1],
        )
        for rank, entry in new.per_rank.items():
            oe = old.per_rank[rank]
            if entry["debt"] != oe["debt"]:
                return None
            if entry["busy_off"] != oe["busy_off"]:
                return None
            if entry["active"][0] != oe["active"][0]:
                return None
            d: dict = {}
            for field_name in ("chan_seq", "patterns", "coll_seq"):
                dd = _dict_delta(entry[field_name], oe[field_name])
                if dd is None:
                    return None
                d[field_name] = dd
            spbc_fields = (
                "lr", "ls", "arrived", "intra_sent", "intra_arrived",
            )
            for field_name in spbc_fields:
                if field_name in entry:
                    dd = _dict_delta(entry[field_name], oe[field_name])
                    if dd is None:
                        return None
                    d[field_name] = dd
            for field_name in (
                "iters", "send_post", "recv_post", "send_complete",
                "compute", "overhead",
            ):
                d[field_name] = entry[field_name] - oe[field_name]
            if "ckpt_calls" in entry:
                d["ckpt_calls"] = entry["ckpt_calls"] - oe["ckpt_calls"]
                d["log_bytes"] = entry["log_bytes"] - oe["log_bytes"]
                d["log_records"] = entry["log_records"] - oe["log_records"]
                log_d: Dict[Any, Tuple[int, int, int]] = {}
                spbc = self._spbc()
                st = spbc.state[rank]
                for key, (ln, last) in entry["log_chans"].items():
                    o_ln, o_last = oe["log_chans"].get(key, (0, 0))
                    if ln < o_ln:
                        return None
                    recs = st.log.channels.get(key, [])
                    # Records appended over THIS window only (the list
                    # may have grown past the snapshot since — slice by
                    # the recorded lengths, not the live list).
                    added = recs[o_ln:ln]
                    log_d[key] = (
                        ln - o_ln,
                        last - o_last,
                        sum(r.nbytes for r in added),
                        sum(r.count for r in added),
                    )
                for key in oe["log_chans"]:
                    if key not in entry["log_chans"]:
                        return None
                d["log_chans"] = log_d
            out["rank"][rank] = d
        # Traced per-pair send bytes over the window.
        trace = self.world.trace
        if trace.enabled:
            out["trace_pairs"] = trace.send_pair_bytes(
                old.trace_len, new.trace_len
            )
        return out

    def _maybe_warp(self, snaps: List[_Snapshot]) -> None:
        n = len(snaps)
        for p in range(1, min(self.max_period, (n - 1) // 2) + 1):
            a, b, c = snaps[-1 - 2 * p], snaps[-1 - p], snaps[-1]
            d2 = self._deltas(c, b)
            if d2 is None:
                continue
            d1 = self._deltas(b, a)
            if d1 != d2:
                continue
            k = self._pick_chunk(d2)
            if k < 1:
                return
            self._apply(d2, k)
            # Every snapshot predates the jump — start fresh.
            snaps.clear()
            return

    def _pick_chunk(self, delta: dict) -> int:
        cfg = self.config
        spbc = self._spbc()
        k = cfg.total_iters  # upper bound, tightened below
        for rank, d in delta["rank"].items():
            # Per-rank iteration advance per period (a period may span
            # several iterations when the anchor rank cycles).
            it = d["iters"]
            if it < 1:
                return 0  # a rank not iterating is not in steady state
            done = self.iter_count.get(rank, 0)
            # Stop at least one full iteration before the loop exit.
            k = min(k, (cfg.total_iters - done - 1) // it)
            if spbc is not None:
                every = spbc.config.checkpoint_every
                calls = spbc.state[rank].ckpt_calls
                if every == "auto":
                    cad = spbc._cadences.get(spbc.state[rank].cluster)
                    if cad is None:
                        return 0
                    until = cad.every - (calls - cad.last_ckpt_call)
                    k = min(k, (until - 1) // it)
                elif every is not None:
                    until = every - (calls % every)
                    k = min(k, (until - 1) // it)
        if cfg.max_chunk is not None:
            k = min(k, cfg.max_chunk)
        return k

    def _apply(self, delta: dict, k: int) -> None:
        from repro.core.logstore import LogRecord
        from repro.mpi.constants import DEFAULT_IDENT

        world = self.world
        shift = delta["period"] * k
        spbc = self._spbc()

        # Clock + every pending wake-up.
        self.engine.shift_pending(shift)
        now = self.engine.now

        net = world.network
        net._nic_free = [t + shift for t in net._nic_free]
        for key, state in net.chan_state_items():
            state[0] += shift
            state[1] += k * delta["net_pairs"].get(key, 0)
        net.packets_sent += k * delta["net_counters"][0]
        net.bytes_sent += k * delta["net_counters"][1]

        for rank, d in delta["rank"].items():
            rt = world.runtimes[rank]
            for key, dv in d["chan_seq"].items():
                if dv:
                    rt.chan_seq[key] = rt.chan_seq.get(key, 0) + k * dv
            for key, dv in d["coll_seq"].items():
                if dv:
                    rt._coll_seq[key] = rt._coll_seq.get(key, 0) + k * dv
            for pid, dv in d["patterns"].items():
                if dv:
                    rt.pattern_iters[pid] = rt.pattern_iters.get(pid, 0) + k * dv
            active = rt.active_ident
            if active != DEFAULT_IDENT and active[0] in d["patterns"]:
                rt.active_ident = (
                    active[0], active[1] + k * d["patterns"][active[0]]
                )
            rt._send_post_seq += k * d["send_post"]
            rt._recv_post_seq += k * d["recv_post"]
            rt._send_complete_seq += k * d["send_complete"]
            rt.compute_total_ns += k * d["compute"]
            rt.overhead_total_ns += k * d["overhead"]
            rt._send_busy_until += shift
            it = d["iters"]
            self.iter_count[rank] = self.iter_count.get(rank, 0) + k * it
            # The application consumes this at its next warp_jump() and
            # advances its own loop index / accumulators by k*it.
            rt.warp_skip += k * it

            if spbc is None:
                continue
            st = spbc.state[rank]
            st.ckpt_calls += k * d["ckpt_calls"]
            for key, dv in d["lr"].items():
                if dv:
                    st.lr[key] = st.lr.get(key, 0) + k * dv
            for key, dv in d["ls"].items():
                if dv:
                    st.ls[key] = st.ls.get(key, 0) + k * dv
            for key, dv in d["arrived"].items():
                if dv:
                    st.chan_in(key).arrived += k * dv
            for key, dv in d["intra_sent"].items():
                if dv:
                    st.intra_sent[key] = st.intra_sent.get(key, 0) + k * dv
            for key, dv in d["intra_arrived"].items():
                if dv:
                    st.intra_arrived[key] = (
                        st.intra_arrived.get(key, 0) + k * dv
                    )
            # Sender log: one coalesced record per channel carries the
            # whole span's seqnum advance, bytes, and record count, so
            # residency/GC/Table-1 accounting stays exact without
            # materializing the skipped messages.
            log = st.log
            for key, (_dn, dseq, dbytes, dcount) in d["log_chans"].items():
                if dseq <= 0:
                    continue
                cid, dst = key
                log.append(
                    LogRecord(
                        comm_id=cid,
                        dst=dst,
                        seqnum=log.last_seq(cid, dst) + k * dseq,
                        tag=-1,
                        nbytes=k * dbytes,
                        ident=DEFAULT_IDENT,
                        payload=None,
                        send_time_ns=now,
                        count=k * dcount,
                    )
                )

        if world.trace.enabled and "trace_pairs" in delta:
            wp = world.trace.warp_pair_bytes
            for key, nbytes in delta["trace_pairs"].items():
                wp[key] = wp.get(key, 0) + k * nbytes

        self.warps += 1
        # k counts detector periods; report application iterations.
        self.warped_iterations += k * max(
            d["iters"] for d in delta["rank"].values()
        )
        self.warped_time_ns += shift
