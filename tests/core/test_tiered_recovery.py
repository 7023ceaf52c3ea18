"""Tiered stable storage through the online checkpoint/recovery path:
write costs on the simulation clock, tier survivability under node vs
process failure, and log truncation at durable commits."""

import pytest

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_native, run_online_failure, run_spbc
from repro.storage.backend import make_backend
from repro.apps.synthetic import ring_app

NRANKS = 8
PLAN = "tiered:ram@1,pfs@2"


def app():
    return ring_app(iters=8, msg_bytes=4096, compute_ns=300_000)


def cfg(clusters, storage=None, every=2):
    return SPBCConfig(clusters=clusters, checkpoint_every=every, storage=storage)


def fail_between_rounds(backend, lo, hi):
    """A failure instant strictly between two checkpoint commits."""
    t_lo = backend.retrieve(0, lo).ckpt.taken_at_ns
    t_hi = backend.retrieve(0, hi).ckpt.taken_at_ns
    return (t_lo + t_hi) // 2


# ----------------------------------------------------------------------
# Write cost on the simulation clock
# ----------------------------------------------------------------------

def test_tiered_run_charges_write_time_to_the_clock():
    clusters = ClusterMap.block(NRANKS, 4)
    free = run_spbc(
        app(), NRANKS, clusters, config=cfg(clusters), ranks_per_node=2
    )
    tiered = run_spbc(
        app(), NRANKS, clusters,
        config=cfg(clusters, storage=make_backend(PLAN)), ranks_per_node=2,
    )
    backend = tiered.hooks.storage
    assert backend.write_ns_total > 0
    assert tiered.makespan_ns > free.makespan_ns
    assert tiered.results == free.results
    # every rank wrote RAM each round and PFS every second round
    assert backend.tier_writes["ram"] == NRANKS * 4
    assert backend.tier_writes["pfs"] == NRANKS * 2


def test_in_memory_backend_keeps_seed_numbers_bit_identical():
    """The default (storage=None) and an explicit "memory" store are the
    same run: zero write time, identical event timing, identical output —
    the seed's failure-free numbers are untouched by the storage layer."""
    clusters = ClusterMap.block(NRANKS, 2)
    default = run_spbc(
        app(), NRANKS, clusters, config=cfg(clusters), ranks_per_node=2
    )
    explicit = run_spbc(
        app(), NRANKS, clusters,
        config=cfg(clusters, storage=make_backend("memory")), ranks_per_node=2,
    )
    assert [t.name for t in default.hooks.storage.plan.tiers] == ["memory"]
    assert default.makespan_ns == explicit.makespan_ns
    assert default.finish_ns == explicit.finish_ns
    assert default.results == explicit.results
    assert explicit.hooks.storage.write_ns_total == 0


# ----------------------------------------------------------------------
# Node vs process failure
# ----------------------------------------------------------------------

def probe_run(clusters):
    """Failure-free tiered run used to time the failure injection."""
    return run_spbc(
        app(), NRANKS, clusters,
        config=cfg(clusters, storage=make_backend(PLAN)), ranks_per_node=2,
    )


def test_node_failure_falls_back_to_deeper_tier_than_process_failure():
    clusters = ClusterMap.block(NRANKS, 4)
    ref = run_native(app(), NRANKS, ranks_per_node=2)
    probe = probe_run(clusters)
    fail_at = fail_between_rounds(probe.hooks.storage, 3, 4)

    outs = {}
    for kind in ("process", "node"):
        outs[kind] = run_online_failure(
            app(), NRANKS, clusters,
            fail_at_ns=fail_at, fail_rank=0,
            config=cfg(clusters, storage=make_backend(PLAN)),
            ranks_per_node=2, failure_kind=kind,
        )
        assert outs[kind].results == ref.results, f"{kind} recovery diverged"

    proc_ev = outs["process"].manager.failures[0]
    node_ev = outs["node"].manager.failures[0]
    assert proc_ev.kind == "process" and node_ev.kind == "node"
    # process crash: RAM partner copies survive -> newest round, fast read
    assert proc_ev.restored_tier == "ram"
    assert proc_ev.restarted_from_round == 3
    assert proc_ev.invalidated_copies == 0
    # node loss: RAM copies die -> older PFS round, slow restart read
    assert node_ev.restored_tier == "pfs"
    assert node_ev.restarted_from_round == 2
    assert node_ev.invalidated_copies > 0
    assert node_ev.restore_read_ns > proc_ev.restore_read_ns
    # the deeper rollback + read burst cost real simulated time
    assert outs["node"].makespan_ns > outs["process"].makespan_ns


def test_failure_during_write_burst_falls_back_to_previous_round():
    """A copy is restorable only once its write finished: a crash in the
    middle of a round's write burst must restart from the round before."""
    clusters = ClusterMap.block(NRANKS, 4)
    probe = probe_run(clusters)
    backend = probe.hooks.storage
    ckpt3 = backend.retrieve(0, 3).ckpt
    write_ns = backend.write_cost_ns(ckpt3, concurrent_writers=NRANKS)
    assert write_ns > 0
    # taken_at_ns stamps the write *start*; fail halfway through it
    out = run_online_failure(
        app(), NRANKS, clusters,
        fail_at_ns=ckpt3.taken_at_ns + write_ns // 2, fail_rank=0,
        config=cfg(clusters, storage=make_backend(PLAN)), ranks_per_node=2,
    )
    ref = run_native(app(), NRANKS, ranks_per_node=2)
    assert out.results == ref.results
    assert out.manager.failures[0].restarted_from_round == 2


def test_node_failure_before_any_durable_round_restarts_from_scratch():
    """RAM-only plan: a node loss leaves nothing -> synthetic round 0."""
    clusters = ClusterMap.block(NRANKS, 4)
    ref = run_native(app(), NRANKS, ranks_per_node=2)
    out = run_online_failure(
        app(), NRANKS, clusters,
        fail_at_ns=int(ref.makespan_ns * 0.6), fail_rank=0,
        config=cfg(clusters, storage=make_backend("tiered:ram@1")),
        ranks_per_node=2, failure_kind="node",
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    assert ev.restarted_from_round == 0
    assert ev.restored_tier is None
    assert ev.invalidated_copies > 0


def test_node_failure_on_in_memory_backend_degenerates_to_process_failure():
    clusters = ClusterMap.block(NRANKS, 4)
    ref = run_native(app(), NRANKS, ranks_per_node=2)
    kw = dict(fail_at_ns=int(ref.makespan_ns * 0.7), fail_rank=0,
              ranks_per_node=2)
    node = run_online_failure(
        app(), NRANKS, clusters, config=cfg(clusters),
        failure_kind="node", **kw,
    )
    proc = run_online_failure(
        app(), NRANKS, clusters, config=cfg(clusters),
        failure_kind="process", **kw,
    )
    assert node.results == proc.results == ref.results
    assert node.makespan_ns == proc.makespan_ns
    assert node.manager.failures[0].invalidated_copies == 0
    assert node.manager.failures[0].restarted_from_round == (
        proc.manager.failures[0].restarted_from_round
    )


def test_unknown_failure_kind_rejected():
    clusters = ClusterMap.block(4, 2)
    with pytest.raises(ValueError):
        run_online_failure(
            ring_app(iters=2, compute_ns=1_000), 4, clusters,
            fail_at_ns=1, failure_kind="meteor", ranks_per_node=2,
        )


# ----------------------------------------------------------------------
# Log truncation at durable commits
# ----------------------------------------------------------------------

def test_durable_commit_bounds_log_residency():
    """The in-memory backend commits durably every round, so resident
    log memory only covers records since the last checkpoint — while the
    cumulative Table 1 counters keep the whole run."""
    clusters = ClusterMap.block(NRANKS, 4)
    res = run_spbc(
        app(), NRANKS, clusters, config=cfg(clusters), ranks_per_node=2
    )
    spbc = res.hooks
    truncated = 0
    for r in range(NRANKS):
        log = spbc.state[r].log
        assert log.resident_bytes <= log.bytes_logged
        if log.bytes_logged:
            # everything up to the last commit moved off-resident
            assert log.resident_records < log.records_logged
            truncated += 1
    assert truncated > 0  # the ring logs on every rank


def test_non_durable_rounds_keep_logs_resident():
    """A RAM+SSD plan never reaches a surviving tier: no truncation."""
    clusters = ClusterMap.block(NRANKS, 4)
    res = run_spbc(
        app(), NRANKS, clusters,
        config=cfg(clusters, storage=make_backend("tiered:ram@1,ssd@2")),
        ranks_per_node=2,
    )
    for r in range(NRANKS):
        log = res.hooks.state[r].log
        assert log.resident_bytes == log.bytes_logged
        assert log.resident_records == log.records_logged


def test_repeated_failures_replay_records_truncated_by_commits():
    """A second rollback of the same cluster re-triggers replay after the
    survivors have truncated at their own (later) commits: the records
    the rolled-back LR needs now live in the stable log area, so replay
    must read the union — and does, converging to the reference."""
    from repro.core.protocol import SPBC
    from repro.core.recovery import RecoveryManager
    from repro.mpi.context import RankContext
    from repro.mpi.runtime import World

    factory = app()
    clusters = ClusterMap.block(NRANKS, 4)
    ref = run_native(factory, NRANKS, ranks_per_node=2)
    hooks = SPBC(cfg(clusters))
    world = World(NRANKS, ranks_per_node=2, hooks=hooks)
    mgr = RecoveryManager(world, hooks, factory)
    for r in range(NRANKS):
        world.launch(r, factory(RankContext(world, r), None))
    mgr.inject_failure(int(ref.makespan_ns * 0.5), 0)
    mgr.inject_failure(int(ref.makespan_ns * 0.9), 0)
    world.run()
    results = {r: p.result for r, p in world.processes.items()}
    assert results == ref.results
    assert len(mgr.failures) == 2
    # survivors truncated (durable in-memory commits) yet replayed
    survivor = hooks.state[7]
    assert survivor.log.resident_records < survivor.log.records_logged
    assert sum(s.replayed_records for s in hooks.state.values()) > 0
