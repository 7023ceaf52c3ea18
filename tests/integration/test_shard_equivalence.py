"""Sharded-vs-sequential equivalence: the parallel engine's exactness
contract.

Every test runs the same scenario twice — single-process exact mode and
``shards=N`` — and requires *bit-identical* observables: simulated
makespan, per-rank finish times and results, the Table 1 log counters,
the traced communication-byte matrix, the checkpoint commit history
(rounds and timestamps), and under failure schedules the restart
bookkeeping.  The fuzz matrix varies seeds, cluster counts, shard
counts, and random process/node failure schedules, so the conservative
windows are exercised across different partition shapes and crash
timings.

The last section holds the same kind of contract for the other two
things that must not change a simulation, down to the number of engine
events executed: ``trace=True`` against ``trace=False``, and the always
installed (passive) recovery manager of the one run path against a bare
world that has none.
"""

import random

import numpy as np
import pytest

from repro.apps.amg import amg_app
from repro.apps.milc import milc_app
from repro.apps.minife import minife_app
from repro.apps.synthetic import halo2d_app, ring_app
from repro.ckptdata.plane import parse_ckpt_data
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBC, SPBCConfig
from repro.harness import parallel
from repro.harness.parallel import partition_shards
from repro.harness.runner import run_app, run_failure_schedule, run_spbc
from repro.journal.recorder import commit_history_of, log_counters_of
from repro.sim.network import NetworkParams
from repro.storage.backend import make_backend

NRANKS = 16
RPN = 4


def commit_history(backend, nranks):
    hist = {}
    for r in range(nranks):
        rows = []
        for rnd in backend.rounds_of(r):
            rec = backend.retrieve(r, rnd)
            if rec is not None and rec.ckpt is not None:
                rows.append((rnd, rec.ckpt.taken_at_ns))
        hist[r] = rows
    return hist


def assert_matches_sequential(sh, seq, nranks, note=""):
    """``sh`` is a ShardedRunResult, ``seq`` a RunResult."""
    seq_world = seq.world
    seq_hooks = seq_world.hooks
    assert sh.makespan_ns == seq.makespan_ns, note
    assert sh.results == seq.results, note
    for r in range(nranks):
        assert (
            sh.hooks.state[r].log.bytes_logged
            == seq_hooks.state[r].log.bytes_logged
        ), (note, r)
        assert (
            sh.hooks.state[r].log.records_logged
            == seq_hooks.state[r].log.records_logged
        ), (note, r)
    assert sh.hooks.log_growth_rates_mb_s(
        sh.makespan_ns
    ) == seq_hooks.log_growth_rates_mb_s(seq.makespan_ns), note
    assert (
        sh.trace.comm_bytes_matrix(nranks)
        == seq_world.trace.comm_bytes_matrix(nranks)
    ).all(), note
    assert sh.commit_history == commit_history(seq_hooks.storage, nranks), note


# ----------------------------------------------------------------------
# Failure-free equivalence (the Table 1 / Table 2 configurations)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("k", [4, 8])
def test_failure_free_runs_are_bit_identical(k, shards):
    factory = ring_app(iters=12, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(NRANKS, k)
    seq = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN)
    sh = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN, shards=shards)
    assert sh.nshards == shards
    assert_matches_sequential(sh, seq, NRANKS, f"k={k} shards={shards}")
    assert sh.packets_sent == seq.world.network.packets_sent
    assert sh.bytes_sent == seq.world.network.bytes_sent


def _ndarrays(obj):
    """Every numpy array reachable through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _ndarrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _ndarrays(value)


def test_traced_worker_summary_carries_no_ndarray(monkeypatch):
    """A traced shard ships its send volume as sparse (src, dst) byte
    sums, not a dense nranks x nranks matrix; the merged result builds
    the dense matrix only when asked, equal to the sequential one."""
    summaries = []
    real_merge = parallel._merge

    def spy(worker_summaries, *args, **kwargs):
        summaries.extend(worker_summaries)
        return real_merge(worker_summaries, *args, **kwargs)

    monkeypatch.setattr(parallel, "_merge", spy)
    factory = ring_app(iters=6, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(NRANKS, 4)
    seq = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN)
    sh = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN, shards=2)
    assert len(summaries) == 2
    assert all(s["comm_pairs"] for s in summaries)
    assert not [a for s in summaries for a in _ndarrays(s)]
    assert_matches_sequential(sh, seq, NRANKS)


def test_paper_app_with_checkpoints_is_bit_identical():
    """minife (ANY_SOURCE halo + allreduces) with coordinated
    checkpoints on a tiered backend: commit rounds and timestamps must
    survive the shard cut."""
    factory = minife_app(iters=12, face_bytes=2048, compute_ns=300_000)
    cm = ClusterMap.block(NRANKS, 4)
    cfg = lambda: SPBCConfig(
        clusters=cm, checkpoint_every=4, state_nbytes=1 << 18
    )
    seq = run_spbc(
        factory, NRANKS, cm, config=cfg(), storage="tiered:ram@1,pfs@2",
        ranks_per_node=RPN,
    )
    sh = run_spbc(
        factory, NRANKS, cm, config=cfg(), storage="tiered:ram@1,pfs@2",
        ranks_per_node=RPN, shards=4,
    )
    assert_matches_sequential(sh, seq, NRANKS, "minife ckpt")
    assert sh.hooks.peak_concurrent_pfs_writers() == (
        seq.hooks.peak_concurrent_pfs_writers()
    )
    assert sh.hooks.total_checkpoint_stall_ns() == (
        seq.hooks.total_checkpoint_stall_ns()
    )


def test_node_splitting_partition_uses_intra_lookahead():
    """Clusters smaller than a node force the intra-node alpha bound;
    the run stays exact, just with tighter windows."""
    factory = ring_app(iters=8, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(16, 8)  # rpn=4: two clusters per node
    seq = run_spbc(factory, 16, cm, ranks_per_node=4)
    # One cluster per shard: both of a node's clusters land on
    # different shards, so intra-node traffic crosses the cut.
    sh = run_spbc(factory, 16, cm, ranks_per_node=4, shards=8)
    params = NetworkParams()
    assert sh.lookahead_ns == params.inject_fixed_ns + params.alpha_intra_ns
    assert_matches_sequential(sh, seq, 16, "intra-split")


# ----------------------------------------------------------------------
# Failure-schedule fuzz matrix
# ----------------------------------------------------------------------

def random_schedule(seed, makespan_ns, max_failures=3):
    rng = random.Random(seed)
    n = rng.randint(1, max_failures)
    times = sorted(
        rng.randint(1, int(makespan_ns * 0.9)) for _ in range(n)
    )
    return [
        (t, rng.randrange(NRANKS), rng.choice(("process", "node")))
        for t in times
    ]


def overlapping(schedule, k):
    """``schedule`` plus a process crash of the next cluster 1 ms after
    the first crash: inside the first crash's 2 ms restart window, so
    the two clusters come back at different instants (and a next
    cluster the first crash already took down has its pending restart
    superseded)."""
    at_ns, rank, _kind = schedule[0]
    second = (at_ns + 1_000_000, (rank + NRANKS // k) % NRANKS, "process")
    return sorted([*schedule, second])


def _fuzz_case(seed, k, shards, storage="tiered:ram@1,pfs@2", overlap=False):
    factory = ring_app(iters=14, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(NRANKS, k)
    probe = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN)
    schedule = random_schedule(seed, probe.makespan_ns)
    if overlap:
        schedule = overlapping(schedule, k)

    def kw():
        return dict(
            config=SPBCConfig(
                clusters=cm, checkpoint_every=3, state_nbytes=1 << 18
            ),
            storage=storage,
            ranks_per_node=RPN,
        )

    seq = run_failure_schedule(factory, NRANKS, cm, schedule, **kw())
    sh = run_failure_schedule(
        factory, NRANKS, cm, schedule, shards=shards, **kw()
    )
    note = f"seed={seed} k={k} shards={shards} schedule={schedule}"
    assert_matches_sequential(sh, seq, NRANKS, note)
    assert sh.restarts == dict(seq.manager.restarts), note
    assert sh.restarted_ranks == seq.restarted_ranks, note
    # Failure bookkeeping: same events, same globally summed purge and
    # invalidation counts, same restart rounds and tiers.
    assert len(sh.failures) == len(seq.manager.failures), note
    seq_by_key = {
        (ev.time_ns, ev.cluster): ev for ev in seq.manager.failures
    }
    for ev in sh.failures:
        ref = seq_by_key[(ev.time_ns, ev.cluster)]
        assert ev.killed_ranks == ref.killed_ranks, note
        assert ev.purged_packets == ref.purged_packets, note
        assert ev.invalidated_copies == ref.invalidated_copies, note
        assert ev.cancelled_flushes == ref.cancelled_flushes, note
        assert ev.partner_rebuilds == ref.partner_rebuilds, note
        if not ref.superseded:
            assert ev.restarted_from_round == ref.restarted_from_round, note
            assert ev.restored_tier == ref.restored_tier, note
    # Storage-side bookkeeping: the per-shard flow counters must sum
    # back to the sequential totals, and every rank's set of fully
    # drained (restorable) rounds must match.
    st = seq.world.hooks.storage
    for name in (
        "flush_flows_started",
        "flush_flows_completed",
        "flush_flows_cancelled",
        "rebuild_flows_started",
        "rebuild_flows_completed",
    ):
        assert sh.storage_counters.get(name, 0) == getattr(st, name, 0), (
            note, name,
        )
    for r in range(NRANKS):
        assert sh.drained_rounds.get(r, []) == list(st.restorable_rounds(r)), (
            note, r,
        )


@pytest.mark.parametrize("seed,k,shards", [
    (1, 4, 2),
    (2, 4, 4),
    (3, 8, 4),
])
def test_fuzz_failure_schedules_are_bit_identical(seed, k, shards):
    """PR-gate slice of the shard-determinism matrix."""
    _fuzz_case(seed, k, shards)


def test_fuzz_with_partner_copies_and_overlapping_restarts():
    _fuzz_case(
        5, 8, 4, storage="partner:ram@1,partner@1,pfs@3", overlap=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("shards", [2, 4, 8])
@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("seed", range(10, 16))
def test_fuzz_failure_schedules_deep(seed, k, shards):
    """Nightly slice: seeds x cluster counts x shard counts."""
    if shards > k:
        pytest.skip("more shards than clusters")
    _fuzz_case(seed, k, shards)


# ----------------------------------------------------------------------
# Async (:async) storage under shards: the background flush flows on
# the shared tier are mirrored across shards, so crash-time cancels,
# SSD background drains, and partner rebuilds must all reproduce the
# sequential engine's timeline and bookkeeping bit for bit.
# ----------------------------------------------------------------------

def test_async_failure_free_is_bit_identical():
    """minife with checkpoints on an async-flush backend: background
    PFS drains overlap compute on every shard identically."""
    factory = minife_app(iters=12, face_bytes=2048, compute_ns=300_000)
    cm = ClusterMap.block(NRANKS, 4)
    cfg = lambda: SPBCConfig(
        clusters=cm, checkpoint_every=4, state_nbytes=1 << 18
    )
    seq = run_spbc(
        factory, NRANKS, cm, config=cfg(),
        storage="tiered:ram@1,pfs@2:async", ranks_per_node=RPN,
    )
    sh = run_spbc(
        factory, NRANKS, cm, config=cfg(),
        storage="tiered:ram@1,pfs@2:async", ranks_per_node=RPN, shards=4,
    )
    assert_matches_sequential(sh, seq, NRANKS, "minife async")
    st = seq.hooks.storage
    assert sh.storage_counters["flush_flows_started"] == st.flush_flows_started
    assert (
        sh.storage_counters["flush_flows_completed"]
        == st.flush_flows_completed
    )
    assert sh.storage_counters["flush_flows_cancelled"] == 0
    assert sh.hooks.peak_concurrent_pfs_writers() == (
        seq.hooks.peak_concurrent_pfs_writers()
    )


@pytest.mark.parametrize("seed,k,shards", [
    (1, 4, 2),
    (2, 4, 4),
    (3, 8, 4),
])
def test_fuzz_async_flush_schedules_are_bit_identical(seed, k, shards):
    """PR-gate slice: crashes cancel in-flight background flushes; the
    owning shard and every mirror must cancel the same flow set."""
    _fuzz_case(seed, k, shards, storage="tiered:ram@1,pfs@2:async")


def test_fuzz_async_ssd_drain_is_bit_identical():
    """Background SSD drain (background_drain tier) between the RAM
    commit and the PFS copy: unshared lane, no mirroring, but its
    completion feeds the shared-tier flush chain."""
    _fuzz_case(4, 8, 4, storage="tiered:ram@1,ssd@2,pfs@4:async")


def test_fuzz_async_partner_rebuild_is_bit_identical():
    """Node failures with partner copies under async flush: rebuild
    flows after the node returns, summed across shards, must match the
    sequential count — and overlapping restarts still line up."""
    _fuzz_case(
        5, 8, 4, storage="partner:ram@1,partner@1,pfs@3:async", overlap=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("storage", [
    "tiered:ram@1,pfs@2:async",
    "tiered:ram@1,ssd@2,pfs@4:async",
    "partner:ram@1,partner@1,pfs@3:async",
])
@pytest.mark.parametrize("seed", range(10, 16))
def test_fuzz_async_schedules_deep(seed, storage, shards):
    """Nightly slice: seeds x async backends x shard counts."""
    _fuzz_case(seed, 8, shards, storage=storage)


def test_async_journal_streams_are_byte_identical(tmp_path):
    """Recording the same async failure run sequentially and sharded
    must produce byte-identical canonical event streams."""
    from repro.journal import Journal
    from repro.journal.format import canonical_json, canonical_key, strip_lsn
    from repro.journal.recorder import journaled_app

    factory = journaled_app(
        "ring", iters=14, msg_bytes=2048, compute_ns=200_000
    )
    cm = ClusterMap.block(NRANKS, 4)
    probe = run_spbc(factory, NRANKS, cm, ranks_per_node=RPN)
    schedule = random_schedule(2, probe.makespan_ns)

    def go(path, **extra):
        return run_failure_schedule(
            factory, NRANKS, cm, schedule,
            config=SPBCConfig(
                clusters=cm, checkpoint_every=3, state_nbytes=1 << 18
            ),
            storage="tiered:ram@1,pfs@2:async",
            ranks_per_node=RPN,
            journal=str(path),
            **extra,
        )

    seq_path = tmp_path / "seq.journal"
    sh_path = tmp_path / "sh.journal"
    go(seq_path)
    go(sh_path, shards=4)
    seq_j, sh_j = Journal.load(seq_path), Journal.load(sh_path)
    assert seq_j.complete and sh_j.complete

    def stream(j):
        # The on-disk order is engine-specific (shard workers batch
        # their owned ranks); canonical_key defines the stream the
        # equivalence contract covers.
        return [
            canonical_json(strip_lsn(e))
            for e in sorted(j.events, key=canonical_key)
        ]

    assert stream(seq_j) == stream(sh_j)
    assert seq_j.result["makespan_ns"] == sh_j.result["makespan_ns"]
    assert seq_j.result["results"] == sh_j.result["results"]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

def test_partition_contiguous_balanced():
    cm = ClusterMap.block(64, 8)
    parts = partition_shards(cm, 4)
    assert [len(p) for p in parts] == [2, 2, 2, 2]
    assert sorted(c for p in parts for c in p) == list(range(8))
    # Contiguity: each shard owns a consecutive cluster range.
    for p in parts:
        assert p == list(range(p[0], p[0] + len(p)))


def test_partition_uneven_sizes_never_leaves_empty_shards():
    cm = ClusterMap([0] * 10 + [1] * 2 + [2] * 2 + [3] * 2)
    parts = partition_shards(cm, 3)
    assert sorted(c for p in parts for c in p) == [0, 1, 2, 3]
    assert all(p for p in parts)


def test_partition_rejects_more_shards_than_clusters():
    with pytest.raises(ValueError, match="clusters"):
        partition_shards(ClusterMap.block(16, 4), 5)


# ----------------------------------------------------------------------
# Guard rails and worker-failure handling
# ----------------------------------------------------------------------

def test_shards_reject_warp():
    factory = ring_app(iters=8, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(16, 4)
    with pytest.raises(ValueError, match="warp"):
        run_spbc(factory, 16, cm, ranks_per_node=4, shards=2, warp=8)


def test_shards_reject_jitter():
    factory = ring_app(iters=8, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(16, 4)
    with pytest.raises(ValueError, match="jitter"):
        run_spbc(
            factory, 16, cm, ranks_per_node=4, shards=2,
            net_params=NetworkParams(jitter_max_ns=1_000),
        )


def test_shards_cap_lookahead_to_shared_tier_latency():
    """Async flows pin the window length to the shared tier's latency,
    so a start record always reaches the mirrors before admission.
    (With the stock 5 ms PFS latency the network bound stays tighter,
    so the run is unaffected in practice — asserted here.)"""
    from repro.harness.parallel import _flow_lookahead_cap_ns

    factory = ring_app(iters=8, msg_bytes=2048, compute_ns=200_000)
    cm = ClusterMap.block(16, 4)
    cfg = SPBCConfig(clusters=cm, checkpoint_every=4)
    sh = run_spbc(
        factory, 16, cm, ranks_per_node=4, shards=2,
        config=cfg, storage="tiered:ram@1,pfs@2:async",
    )
    cap = _flow_lookahead_cap_ns(cfg)
    assert cap is not None
    assert sh.lookahead_ns <= cap
    assert sh.nshards == 2


def test_crashing_app_surfaces_cleanly_without_hanging():
    """A rank raising mid-run must fail the whole run with the worker's
    error, terminate the other shards, and not deadlock the window
    loop."""

    def broken_factory(ctx, state):
        def gen():
            me = ctx.rank
            for i in range(10):
                if me == 5 and i == 3:
                    raise RuntimeError("boom at iteration 3")
                nxt = (me + 1) % ctx.size
                prev = (me - 1) % ctx.size
                req = ctx.irecv(src=prev, tag=0)
                ctx.isend(nxt, i, nbytes=1024, tag=0)
                yield from ctx.wait(req)
                yield from ctx.compute(100_000)
            return 0

        return gen()

    cm = ClusterMap.block(16, 4)
    with pytest.raises(RuntimeError, match="boom|rank 5"):
        run_spbc(broken_factory, 16, cm, shards=4, ranks_per_node=4)


# ----------------------------------------------------------------------
# Trace is an observer: traced == untraced, engine events included
# ----------------------------------------------------------------------

#: Above DEFAULT_EAGER_THRESHOLD (64 KiB): every message is a rendezvous.
RVZ_BYTES = 96 * 1024

#: name -> (app, its message-size parameter, the other parameters).  amg
#: is the ANY_SOURCE + pattern-identifier app, milc the declared-pattern
#: one.
OBSERVER_APPS = {
    "ring": (ring_app, "msg_bytes",
             dict(iters=8, msg_bytes=2048, compute_ns=200_000)),
    "halo2d": (halo2d_app, "msg_bytes",
               dict(iters=8, msg_bytes=8192, compute_ns=400_000)),
    "amg": (amg_app, "fine_bytes", dict(cycles=3, compute_l0_ns=700_000)),
    "milc": (milc_app, "face_bytes", dict(iters=6, compute_ns=2_000_000)),
}

#: name -> (message bytes or None for the app's own, crashes as
#: ``(ns after the first, rank, kind)``).  The first crash lands at 55 %
#: of the failure-free makespan.  2-rank clusters on 4-rank nodes make a
#: node loss roll back two clusters; in "overlapping-restart" a process
#: crash of the second one 1.5 ms later, inside its 2 ms restart delay,
#: supersedes its restart, so cluster 0 re-executes while cluster 1 is
#: still down (the lost wake-up's shape, docs/failure_model.md).
OBSERVER_SCENARIOS = {
    "failure-free": (None, ()),
    "one-failure": (None, ((0, 0, "process"),)),
    "overlapping-restart": (
        None, ((0, 0, "node"), (1_500_000, 2, "process")),
    ),
    "rendezvous": (RVZ_BYTES, ((0, 0, "process"),)),
}


def _observed(res):
    hooks = res.world.hooks
    return {
        "makespan_ns": res.makespan_ns,
        "finish_ns": {r: p.finish_time for r, p in res.world.processes.items()},
        "results": res.results,
        "log": log_counters_of(hooks),
        "commits": commit_history_of(hooks),
        "packets_sent": res.world.network.packets_sent,
        "events_executed": res.world.engine.events_executed,
    }


@pytest.mark.parametrize("scenario", OBSERVER_SCENARIOS)
@pytest.mark.parametrize("app_name", OBSERVER_APPS)
def test_trace_is_an_observer(app_name, scenario):
    """Recording the trace changes nothing the simulation does: same
    observables and the *same engine events* — the exact,
    host-independent gate that keeps a traced/untraced fork from
    growing back into the send path (docs/performance.md, "Why tracing
    cost a third of a paper run")."""
    nbytes, crashes = OBSERVER_SCENARIOS[scenario]
    make_app, size_param, params = OBSERVER_APPS[app_name]
    factory = make_app(**{**params, **({size_param: nbytes} if nbytes else {})})
    cm = ClusterMap.block(NRANKS, 8)

    def run(trace, schedule=None):
        kw = dict(
            config=SPBCConfig(
                clusters=cm, checkpoint_every=2, state_nbytes=1 << 20
            ),
            storage="tiered:ram@1,pfs@2:async", ranks_per_node=RPN, trace=trace,
        )
        if schedule is None:
            return run_spbc(factory, NRANKS, cm, **kw)
        return run_failure_schedule(factory, NRANKS, cm, schedule, **kw)

    free = run(True)
    first = int(0.55 * free.makespan_ns)
    schedule = [
        (first + after, rank, kind) for after, rank, kind in crashes
    ] or None
    traced = free if schedule is None else run(True, schedule)
    untraced = run(False, schedule)
    assert len(traced.world.trace) > 0 and len(untraced.world.trace) == 0
    assert _observed(traced) == _observed(untraced)
    if schedule is not None:
        assert traced.results == free.results
        assert traced.restarted_ranks == untraced.restarted_ranks != set()
        superseded = [ev.superseded for ev in untraced.manager.failures]
        assert any(superseded) == (len(crashes) > 1)


# ----------------------------------------------------------------------
# One run path: failure-free == the empty failure schedule == a bare world
# ----------------------------------------------------------------------

_RING = dict(msg_bytes=2048, compute_ns=200_000)

#: name -> (app, ranks, cluster map, SPBCConfig fields, run keywords).
ONE_PATH_SHAPES = {
    "ring64-traced": (
        ring_app(iters=8, **_RING), 64, ClusterMap.block(64, 8), {},
        dict(trace=True),
    ),
    "ring64-untraced": (
        ring_app(iters=8, **_RING), 64, ClusterMap.block(64, 8), {},
        dict(trace=False),
    ),
    "ckpt-storm": (
        ring_app(iters=6, **_RING), 64, ClusterMap.block(64, 8),
        dict(checkpoint_every=1, state_nbytes=1 << 20),
        dict(storage="partner:ram@1,partner@1,pfs@2:async",
             ckpt_data="incr:4:zlib-like", profile=TEST_PROFILE, trace=False),
    ),
    "minife-tiered": (
        minife_app(iters=12, face_bytes=2048, compute_ns=300_000),
        NRANKS, ClusterMap.block(NRANKS, 4),
        dict(checkpoint_every=4, state_nbytes=1 << 18),
        dict(storage="tiered:ram@1,pfs@2"),
    ),
    "amg-singletons": (
        amg_app(cycles=3, compute_l0_ns=700_000),
        NRANKS, ClusterMap.singletons(NRANKS), {}, {},
    ),
    "ring-warp": (
        ring_app(iters=200, **_RING), NRANKS, ClusterMap.block(NRANKS, 4), {},
        dict(warp=200),
    ),
}


@pytest.mark.parametrize("shape", ONE_PATH_SHAPES)
def test_failure_free_is_the_empty_failure_schedule(shape):
    """``run_spbc`` is ``run_failure_schedule`` with no entries, and the
    recovery manager that path always installs is free: same observables
    and the same engine events as a world built without one."""
    factory, nranks, cm, cfg_fields, kw = ONE_PATH_SHAPES[shape]
    kw = dict(kw, ranks_per_node=RPN)

    def cfg():
        return SPBCConfig(clusters=cm, **cfg_fields)

    free = run_spbc(factory, nranks, cm, config=cfg(), **kw)
    empty = run_failure_schedule(factory, nranks, cm, [], config=cfg(), **kw)
    assert free.manager is not None and free.failures == [] == empty.failures
    assert free.restarts == {} and free.restarted_ranks == set()

    # The bare world: the same config resolved by hand, no manager.
    bare_kw = dict(kw)
    bare_cfg, profile = cfg(), bare_kw.pop("profile", None)
    if "storage" in bare_kw:
        bare_cfg.storage = make_backend(bare_kw.pop("storage"))
    if "ckpt_data" in bare_kw:
        bare_cfg.ckpt_data = parse_ckpt_data(
            bare_kw.pop("ckpt_data"), profile=profile
        )
    bare = run_app(factory, nranks, hooks=SPBC(bare_cfg), **bare_kw)
    assert bare.manager is None

    assert _observed(free) == _observed(empty) == _observed(bare)
