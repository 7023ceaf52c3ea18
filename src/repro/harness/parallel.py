"""Sharded parallel simulation: conservative PDES across worker processes.

Exact-mode simulations of 4096-16384 ranks are bottlenecked by one
Python interpreter churning through one global event heap.  This module
splits a run into *shards* — each a worker process simulating the full
world topology but executing application processes only for its assigned
clusters — and synchronizes them conservatively, so the merged outcome
is bit-identical to the single-process run (same makespan, results, log
counters, commit history, and communication matrix).

The synchronization is window-based (YAWNS):

1.  Every shard reports its next local event time, its earliest pending
    restart milestone (*hold*), and the cross-shard packets it produced.
2.  The coordinator computes the global floor ``T`` — the minimum over
    next-event times, undelivered packet arrivals, and unscheduled
    mirror actions — and grants the horizon ``H = T + L``, where ``L``
    is the network lookahead: any send issued at ``t >= T`` arrives no
    earlier than ``t + L >= H``, so nothing a shard does inside the
    window can affect another shard within the same window.
3.  Shards inject the relayed packets (arrival times were fixed by the
    sending shard's channel state, so delivery is exact), run up to but
    excluding ``H``, and report again.

Failure schedules are mirrored: every shard executes the crash side of
each failure locally (the schedule is static), while the shard owning a
rolled-back cluster drives the restart and publishes its completion as a
milestone the coordinator rebroadcasts, so remote survivors deliver
their failure notifications at the same instant.  Holds and a
``failure time + restart delay`` horizon cap keep windows from skipping
over these same-instant interactions.

Async-flush storage (``--storage ...:async``) is decomposed by
mirroring the shared-tier flow model: each shard runs its owned flows
(background flushes, restart-read pipelines, partner rebuilds) on a
local bandwidth-resource replica, exports start/cancel records for
flows on *shared* lanes, and replays the other shards' records as
mirror flows at the exported absolute instants — so every shard
recomputes identical piecewise-constant bandwidth shares and identical
completion times (see :mod:`repro.sim.resources`).  Two extra horizon
rules keep the replay exact: the lookahead is capped by the smallest
shared-tier latency (a flow started inside a window cannot be admitted
before the next window's grant has delivered its record), and a window
containing a failure ends right after it (the failure's flush
cancellations must reach the mirrors before any shard advances past
the crash instant).  Unshared lanes (per-node RAM/SSD, partner links)
drain flows independently and need no mirroring; synchronous storage
decomposes exactly with no flow traffic at all.

Sharding still refuses configurations it cannot reproduce exactly:
network jitter (seeded per-packet draws diverge across event orders)
and warp mode (the detector needs the global event stream).  Like every
other check on a run, these are made in
:func:`repro.harness.runner.execute`, this module's only caller.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig, peak_overlap
from repro.core.recovery import FailureEvent
from repro.harness.runner import RunSpec
from repro.journal.recorder import log_counters_of
from repro.obs import NULL_TELEMETRY, Telemetry, resolve_telemetry
from repro.sim.network import NetworkParams, Topology
from repro.sim.shard import lookahead_ns, shard_worker_main
from repro.util.units import mb_per_s

if TYPE_CHECKING:  # pragma: no cover - numpy loads only when densifying
    import numpy as np


@dataclass
class ShardPlan:
    """Everything one worker needs to build and run its shard: the run's
    spec plus what this shard owns.

    Workers are forked, so the (unpicklable) application factory and the
    shared config object travel by address-space inheritance; only the
    window-protocol messages cross the pipes."""

    spec: RunSpec
    shard_id: int
    owned_clusters: frozenset
    owned_ranks: frozenset
    # Collect owned-rank journal events (commits, gc, restarts) into a
    # ListSink and ship them back in the worker summary.
    journal: bool = False
    # Record per-shard telemetry (metrics + timeline) and ship the
    # snapshot back in the worker summary for the coordinator's merge.
    telemetry: bool = False


def partition_shards(clusters: ClusterMap, nshards: int) -> List[List[int]]:
    """Assign whole clusters to shards (clusters never span shards — the
    protocol's barriers, drains, and restarts are cluster-collective):
    contiguous cluster ranges balanced by rank count, which preserves
    any node alignment of the cluster map."""
    ncl = clusters.nclusters
    if not 1 <= nshards <= ncl:
        raise ValueError(
            f"need 1 <= shards <= {ncl} clusters, got {nshards}"
        )
    out: List[List[int]] = [[] for _ in range(nshards)]
    for c, s in enumerate(_contiguous_assignment(clusters.sizes(), nshards)):
        out[s].append(c)
    if any(not part for part in out):
        raise ValueError("partition left an empty shard")
    return out


def _contiguous_assignment(sizes: Sequence[int], nshards: int) -> List[int]:
    """Greedy contiguous split balanced by rank count: close the open
    shard once it reached its proportional share (or when the remaining
    clusters are only just enough to give every later shard one)."""
    n = len(sizes)
    total = sum(sizes)
    assignment: List[int] = []
    shard = 0
    acc = 0  # ranks in the open shard
    done = 0  # ranks in closed shards
    for c, size in enumerate(sizes):
        remaining_shards = nshards - shard
        must_close = acc > 0 and remaining_shards > 1 and n - c == remaining_shards
        met_share = (
            acc > 0
            and remaining_shards > 1
            and acc >= (total - done) / remaining_shards
        )
        if must_close or met_share:
            shard += 1
            done += acc
            acc = 0
        assignment.append(shard)
        acc += size
    return assignment


class _LogShim:
    """Duck-type of a rank's sender-log counters (Table 1 views)."""

    __slots__ = ("bytes_logged", "records_logged")

    def __init__(self, bytes_logged: int, records_logged: int) -> None:
        self.bytes_logged = bytes_logged
        self.records_logged = records_logged

    def growth_rate_mb_s(self, duration_ns: int) -> float:
        return mb_per_s(self.bytes_logged, duration_ns)


class _StateShim:
    __slots__ = ("log",)

    def __init__(self, log: _LogShim) -> None:
        self.log = log


class _HooksShim:
    """The slice of :class:`~repro.core.protocol.SPBC` reporting that a
    merged sharded run can reconstruct from per-shard summaries."""

    def __init__(
        self,
        log: Dict[int, Tuple[int, int]],
        pfs_write_windows: List[Tuple[int, int, int]],
        shared_flow_windows: List[Tuple[int, int, int, int]],
        ckpt_stall_ns: int,
    ) -> None:
        self.state = {
            r: _StateShim(_LogShim(b, n)) for r, (b, n) in sorted(log.items())
        }
        self.pfs_write_windows = pfs_write_windows
        self._shared_flow_windows = shared_flow_windows
        self._ckpt_stall_ns = ckpt_stall_ns

    def total_bytes_logged(self) -> int:
        return sum(s.log.bytes_logged for s in self.state.values())

    def log_growth_rates_mb_s(self, duration_ns: int) -> List[float]:
        return [
            self.state[r].log.growth_rate_mb_s(duration_ns)
            for r in sorted(self.state)
        ]

    def peak_concurrent_pfs_writers(self) -> int:
        return peak_overlap(self.pfs_write_windows, self._shared_flow_windows)

    def total_checkpoint_stall_ns(self) -> int:
        return self._ckpt_stall_ns


class _TraceShim:
    """The merged run's communication volume: the shards' sparse
    (src, dst) -> bytes sums, densified only when asked for."""

    __slots__ = ("enabled", "_pairs")

    def __init__(self, pairs: Optional[Dict[Tuple[int, int], int]]) -> None:
        self.enabled = pairs is not None
        self._pairs = pairs

    def comm_bytes_matrix(self, nranks: int) -> np.ndarray:
        if self._pairs is None:
            raise RuntimeError("run was traced with trace=False")
        import numpy as np

        mat = np.zeros((nranks, nranks), dtype=np.int64)
        for (src, dst), nbytes in self._pairs.items():
            mat[src, dst] += nbytes
        return mat


@dataclass
class ShardedRunResult:
    """Merged outcome of a sharded run — the sequential
    :class:`~repro.harness.runner.RunResult` observables plus recovery
    and engine accounting (``world`` is gone; each shard's world died
    with its worker)."""

    nranks: int
    nshards: int
    makespan_ns: int
    finish_ns: Dict[int, int]
    results: Dict[int, object]
    hooks: _HooksShim
    trace: _TraceShim
    #: rank -> [(round_no, taken_at_ns)] for every committed round.
    commit_history: Dict[int, List[Tuple[int, int]]]
    failures: List[FailureEvent] = field(default_factory=list)
    restarts: Dict[int, int] = field(default_factory=dict)
    packets_sent: int = 0
    bytes_sent: int = 0
    events_executed: int = 0
    overhead_ns: int = 0
    compute_ns: int = 0
    windows: int = 0
    lookahead_ns: int = 0
    #: Background-flow accounting summed across shards (async storage;
    #: zeros for synchronous specs) — matches the sequential backend's
    #: flush_flows_*/rebuild_flows_* counters.
    storage_counters: Dict[str, int] = field(default_factory=dict)
    #: rank -> rounds restorable at the end of the run (the "drained
    #: rounds" view: an in-flight flush that never landed is absent).
    drained_rounds: Dict[int, List[int]] = field(default_factory=dict)
    #: Coordinator-side merged telemetry (None unless requested): every
    #: worker's metrics and timeline folded into one view, plus the
    #: coordinator's own per-shard window/barrier-wait lanes.
    telemetry: Optional[Telemetry] = None

    @property
    def restarted_ranks(self) -> set:
        return set(self.restarts)

    @property
    def log(self) -> Dict[int, Tuple[int, int]]:
        """rank -> (bytes_logged, records_logged)."""
        return log_counters_of(self.hooks)


def _flow_lookahead_cap_ns(cfg: SPBCConfig) -> Optional[int]:
    """Horizon cap for mirrored shared-lane flows, or None when the
    storage runs no flows.

    A flow started at ``t`` inside a window is admitted at
    ``t + delay + latency >= t + latency``; its start record reaches the
    other shards with the *next* window's grant, by which time they sit
    at the previous horizon.  Capping the lookahead at the smallest
    shared-tier latency guarantees the record always arrives before its
    admission instant.  (Cancellations are delivered in time by the
    failure and hold caps — they only happen at crash and restart
    milestones.)"""
    storage = cfg.storage
    if storage is None or not storage.async_flush:
        return None
    shared = [t.latency_ns for t in storage.plan.tiers if t.shared]
    if not shared:
        return None
    return max(1, min(shared))


def run_sharded(spec: RunSpec, parts: List[List[int]], journaled: bool, telemetry):
    """Run an already validated ``spec`` with the clusters of
    ``parts[i]`` (see :func:`partition_shards`) simulated by worker
    process ``i``.  Returns the merged :class:`ShardedRunResult` and the
    journal events the workers collected for their owned ranks (empty
    unless ``journaled``; the caller owns the journal).  Requires a
    platform with ``fork`` (the application factory is inherited, not
    pickled)."""
    nranks, clusters, cfg = spec.nranks, spec.clusters, spec.config
    # The coordinator's sink: workers record shard-locally and ship
    # snapshots back; the coordinator adds its own window/barrier lanes
    # and merges everything here.  Its queue sampler never runs (no
    # engine on the coordinator side).
    tele = resolve_telemetry(telemetry)
    shard_of_cluster: Dict[int, int] = {}
    shard_of_rank = [0] * nranks
    for sid, part in enumerate(parts):
        for c in part:
            shard_of_cluster[c] = sid
            for r in clusters.members(c):
                shard_of_rank[r] = sid
    topology = Topology(nranks=nranks, ranks_per_node=spec.ranks_per_node)
    lookahead = lookahead_ns(
        spec.net_params or NetworkParams(), topology, shard_of_rank
    )
    flow_cap = _flow_lookahead_cap_ns(cfg)
    if flow_cap is not None:
        # Mirrored shared-lane flows: a start record must reach the
        # other shards before its admission instant (see
        # _flow_lookahead_cap_ns).  The PFS latency (milliseconds)
        # dwarfs the network lookahead (microseconds), so in practice
        # this never bites.
        lookahead = min(lookahead, flow_cap)

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - platform dependent
        raise RuntimeError(
            "sharded simulation requires the fork start method "
            "(application factories are closures and cannot be pickled)"
        ) from exc

    conns = []
    workers = []
    try:
        for sid, part in enumerate(parts):
            plan = ShardPlan(
                spec=spec,
                shard_id=sid,
                owned_clusters=frozenset(part),
                owned_ranks=frozenset(
                    r for c in part for r in clusters.members(c)
                ),
                journal=journaled,
                telemetry=tele.enabled,
            )
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child, plan),
                daemon=True,
                name=f"shard-{sid}",
            )
            proc.start()
            child.close()
            conns.append(parent)
            workers.append(proc)
        summaries, windows = _coordinate(
            conns,
            shard_of_rank,
            shard_of_cluster,
            lookahead,
            spec.restart_delay_ns,
            sorted(at for at, _r, _k in spec.schedule),
            tele,
            flows_mirrored=flow_cap is not None,
        )
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hang safety net
                proc.terminate()
                proc.join()

    result = _merge(summaries, shard_of_cluster, spec, windows, lookahead, tele)
    return result, [
        ev for summ in summaries for ev in summ.get("journal_events", ())
    ]


def _recv(conn, sid: int):
    """One protocol message from shard ``sid`` (raises on worker death
    or reported error)."""
    try:
        msg = conn.recv()
    except EOFError:
        raise RuntimeError(f"shard worker {sid} died unexpectedly") from None
    if msg[0] == "error":
        raise RuntimeError(f"shard worker {sid} failed:\n{msg[1]}")
    return msg[1]


def _coordinate(
    conns,
    shard_of_rank: List[int],
    shard_of_cluster: Dict[int, int],
    lookahead: int,
    restart_delay_ns: int,
    failure_times: List[int],
    tele=NULL_TELEMETRY,
    flows_mirrored: bool = False,
):
    """Drive the report/grant windows until every shard drains.

    Returns the per-shard summaries and the number of windows granted."""
    k = len(conns)
    reports = [_recv(conns[i], i) for i in range(k)]
    pending_imports: List[list] = [[] for _ in range(k)]
    pending_actions: List[list] = [[] for _ in range(k)]
    pending_flows: List[list] = [[] for _ in range(k)]
    windows = 0
    while True:
        # Harvest: route packets to their destination shard, rebroadcast
        # restart milestones and shared-lane flow records to every
        # *other* shard (the originator already ran the real thing).
        for sid, rep in enumerate(reports):
            for export in rep["exports"]:
                pending_imports[shard_of_rank[export[1]]].append(export)
            for at_ns, cluster, members, node in rep["milestones"]:
                for other in range(k):
                    if other != sid:
                        pending_actions[other].append(
                            (at_ns, cluster, members, node)
                        )
            for rec in rep.get("flows", ()):
                for other in range(k):
                    if other != sid:
                        pending_flows[other].append(rec)
        candidates = [
            rep["next_ns"] for rep in reports if rep["next_ns"] is not None
        ]
        candidates += [e[6] for imp in pending_imports for e in imp]
        candidates += [a[0] for act in pending_actions for a in act]
        # Flow-record application instants (admit time for starts,
        # cancel time for cancels): already bounded below by the floor,
        # but fold them in so the window math never has to assume it.
        candidates += [
            rec[4] if rec[0] == "start" else rec[3]
            for flows in pending_flows
            for rec in flows
        ]
        if not candidates:
            if all(rep["done"] for rep in reports):
                break
            blocked = [
                name for rep in reports for name in rep["blocked"]
            ]
            raise RuntimeError(
                "sharded run deadlocked with no pending events; "
                f"blocked processes: {', '.join(blocked)}"
            )
        floor = min(candidates)
        # Failures already executed (the window floor moved past them)
        # no longer constrain the horizon: their holds are now reported.
        failure_times = [t for t in failure_times if t >= floor]
        horizon = floor + lookahead
        for rep in reports:
            if rep["hold_ns"] is not None:
                horizon = min(horizon, rep["hold_ns"] + 1)
        if failure_times and failure_times[0] < horizon:
            # A crash inside this window schedules a restart the other
            # shards have not seen as a hold yet; its earliest possible
            # completion is failure + restart delay.
            horizon = min(horizon, failure_times[0] + restart_delay_ns + 1)
            if flows_mirrored:
                # Async storage: the crash cancels in-flight flushes on
                # the owning shards at the failure instant; end the
                # window right after it so the cancel records reach the
                # mirrors while they still sit at that instant.
                horizon = min(horizon, failure_times[0] + 1)
        horizon = max(horizon, floor + 1)
        if tele.enabled:
            # Per-shard YAWNS lanes: the granted window, and (when a
            # shard had already drained up to the floor) the stretch it
            # spent waiting on the global barrier before this grant.
            tele.inc("shard.windows")
            for sid, rep in enumerate(reports):
                if rep["now_ns"] < floor:
                    tele.shard_span("barrier-wait", sid, rep["now_ns"], floor)
                tele.shard_span(
                    "window", sid, floor, horizon, args={"lookahead": lookahead}
                )
        for sid in range(k):
            conns[sid].send(
                (
                    "grant",
                    horizon,
                    pending_imports[sid],
                    pending_actions[sid],
                    pending_flows[sid],
                )
            )
            pending_imports[sid] = []
            pending_actions[sid] = []
            pending_flows[sid] = []
        reports = [_recv(conns[i], i) for i in range(k)]
        windows += 1
    for sid in range(k):
        conns[sid].send(("finalize",))
    summaries = [_recv(conns[i], i) for i in range(k)]
    return summaries, windows


def _merge(
    summaries,
    shard_of_cluster: Dict[int, int],
    spec: RunSpec,
    windows: int,
    lookahead: int,
    tele=NULL_TELEMETRY,
) -> ShardedRunResult:
    nranks = spec.nranks
    finish: Dict[int, int] = {}
    results: Dict[int, object] = {}
    log: Dict[int, Tuple[int, int]] = {}
    commits: Dict[int, List[Tuple[int, int]]] = {}
    restarts: Dict[int, int] = {}
    pfs_windows: List[Tuple[int, int, int]] = []
    flow_windows: List[Tuple[int, int, int, int]] = []
    pairs: Optional[Dict[Tuple[int, int], int]] = {} if spec.trace else None
    stall = overhead = compute = packets = nbytes = events = 0
    # Failure events: every shard logs every injection (the crash side
    # runs everywhere), but only the owner of a cluster knows its actual
    # restart round/tier — take the owner's event and fold in the
    # shard-local purge/invalidation counts.
    owner_events: Dict[Tuple[int, int], dict] = {}
    count_sums: Dict[Tuple[int, int], List[int]] = {}
    storage_counters: Dict[str, int] = {}
    drained: Dict[int, List[int]] = {}
    for sid, summ in enumerate(summaries):
        finish.update(summ["finish_ns"])
        results.update(summ["results"])
        log.update(summ["log"])
        commits.update(summ["commits"])
        restarts.update(summ["restarts"])
        pfs_windows.extend(summ["pfs_write_windows"])
        flow_windows.extend(summ["shared_flow_windows"])
        stall += summ["ckpt_stall_ns"]
        overhead += summ["overhead_ns"]
        compute += summ["compute_ns"]
        packets += summ["packets_sent"]
        nbytes += summ["bytes_sent"]
        events += summ["events_executed"]
        if pairs is not None and summ["comm_pairs"] is not None:
            for pair, value in summ["comm_pairs"].items():
                pairs[pair] = pairs.get(pair, 0) + value
        if tele.enabled:
            tele.merge_snapshot(summ.get("telemetry"))
        for name, value in summ.get("storage_counters", {}).items():
            storage_counters[name] = storage_counters.get(name, 0) + value
        drained.update(summ.get("drained_rounds", {}))
        for ev in summ["failures"]:
            key = (ev["time_ns"], ev["cluster"])
            sums = count_sums.setdefault(key, [0, 0, 0, 0])
            sums[0] += ev["purged_packets"]
            sums[1] += ev["invalidated_copies"]
            sums[2] += ev["cancelled_flushes"]
            # Partner rebuilds are started shard-locally on every shard
            # (each re-mirrors its own ranks' copies onto the returned
            # node), so the global count is a sum like the others.
            sums[3] += ev["partner_rebuilds"]
            if shard_of_cluster[ev["cluster"]] == sid:
                owner_events[key] = dict(ev)
    failures = []
    for key in sorted(owner_events):
        ev = owner_events[key]
        (
            ev["purged_packets"],
            ev["invalidated_copies"],
            ev["cancelled_flushes"],
            ev["partner_rebuilds"],
        ) = count_sums[key]
        ev["killed_ranks"] = tuple(ev["killed_ranks"])
        failures.append(FailureEvent(**ev))
    return ShardedRunResult(
        nranks=nranks,
        nshards=len(summaries),
        makespan_ns=max(finish.values()),
        finish_ns=finish,
        results=results,
        hooks=_HooksShim(log, pfs_windows, flow_windows, stall),
        trace=_TraceShim(pairs),
        commit_history=commits,
        failures=failures,
        restarts=restarts,
        packets_sent=packets,
        bytes_sent=nbytes,
        events_executed=events,
        overhead_ns=overhead,
        compute_ns=compute,
        windows=windows,
        lookahead_ns=lookahead,
        storage_counters=storage_counters,
        drained_rounds=drained,
        telemetry=tele if tele.enabled else None,
    )
