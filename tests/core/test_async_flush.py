"""Async checkpoint flush: commit semantics on the event-driven I/O path.

``--storage ...:async`` commits a coordinated checkpoint once the local
tiers land and drains the PFS copy in the background:

* the app's checkpoint *stall* shrinks (the shared-tier burst no longer
  blocks compute) and results stay identical;
* an in-flight flush is not a restorable copy — a node failure mid-
  flush cancels it and recovery restarts from the last *fully drained*
  round;
* log GC credit arrives when the drain lands (deferred, cluster-
  consistent), not at the commit barrier;
* the PFS burst timeline is *measured* from the actual flows instead
  of being assumed.
"""

import pytest

from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule, run_native, run_spbc
from repro.util.units import MB, MS

NRANKS = 8
RPN = 2
K = 4  # cluster == node under ClusterMap.block(8, 4)

STATE = 4 * MB
PLAN = "tiered:ram@1,pfs@2"


def app(iters=8):
    return ring_app(iters=iters, msg_bytes=2048, compute_ns=2 * MS)


def run_mode(spec, iters=8, allreduce_every=None):
    cm = ClusterMap.block(NRANKS, K)
    cfg = SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE)
    factory = (
        ring_app(
            iters=iters, msg_bytes=2048, compute_ns=2 * MS,
            allreduce_every=allreduce_every,
        )
        if allreduce_every
        else app(iters)
    )
    return run_spbc(
        factory, NRANKS, cm, config=cfg, storage=spec, ranks_per_node=RPN
    )


def test_async_flush_shrinks_stall_and_makespan_preserving_results():
    sync = run_mode(PLAN)
    asyn = run_mode(PLAN + ":async")
    assert asyn.results == sync.results
    assert asyn.hooks.total_checkpoint_stall_ns() < sync.hooks.total_checkpoint_stall_ns()
    assert asyn.makespan_ns < sync.makespan_ns
    # Every deferred PFS copy eventually drained: same durable rounds.
    sb, ab = sync.hooks.storage, asyn.hooks.storage
    for r in range(NRANKS):
        assert ab.guaranteed_round(r) == sb.guaranteed_round(r)
    assert ab.flush_flows_completed == ab.flush_flows_started > 0


def test_async_flush_same_rounds_fewer_stalled_ns_via_spec_string():
    """The ``:async`` spec goes through the same registry as every other
    backend (CLI/harness parity)."""
    res = run_mode("tiered:ram@1,pfs@4:async")
    backend = res.hooks.storage
    assert backend.async_flush
    assert backend.flush_flows_started > 0


def _probe_and_flush_windows(spec):
    probe = run_mode(spec, iters=12)
    windows = [
        w for w in probe.hooks.storage.shared_flow_windows() if w[2] == 0
    ]
    assert windows, "probe produced no PFS flush windows for rank 0"
    return probe, sorted(windows, key=lambda w: w[0])


def test_node_failure_mid_flush_restarts_from_last_drained_round():
    spec = PLAN + ":async"
    probe, windows = _probe_and_flush_windows(spec)
    ref = run_native(app(iters=12), NRANKS, ranks_per_node=RPN)
    # Pick an in-flight window with a fully drained PFS round before it.
    target = None
    for start, end, _rank, rnd in windows:
        drained = [w[3] for w in windows if w[1] < start]
        if drained:
            target = (start, end, rnd, max(drained))
            break
    assert target is not None, "need two PFS rounds; recalibrate the app"
    start, end, inflight_round, last_drained = target
    fail_at = (start + end) // 2
    assert fail_at < probe.makespan_ns  # the app is still running

    cm = ClusterMap.block(NRANKS, K)
    out = run_failure_schedule(
        app(iters=12), NRANKS, cm,
        [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE),
        ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    assert ev.kind == "node"
    # Never the in-flight round: the flush was cancelled with the node.
    assert ev.cancelled_flushes >= 1
    assert ev.restarted_from_round < inflight_round
    assert ev.restarted_from_round == last_drained
    assert ev.restored_tier == "pfs"
    # The restart read ran as flows and was measured, not assumed.
    assert ev.restore_read_ns > 0


def test_process_failure_lets_the_flush_land():
    """A process crash does not kill the node: local copies survive and
    the in-flight drain (FTI-style node-local daemon) completes, so the
    restart comes from the latest committed round."""
    spec = PLAN + ":async"
    probe, windows = _probe_and_flush_windows(spec)
    ref = run_native(app(iters=12), NRANKS, ranks_per_node=RPN)
    # Latest flush still in flight while the app is running.
    live = [w for w in windows if (w[0] + w[1]) // 2 < probe.makespan_ns]
    assert live, "every flush drains post-app; recalibrate the app"
    start, end, _rank, rnd = live[-1]
    fail_at = (start + end) // 2
    # Which rounds had committed (ram copy registered) by fail_at?
    committed = [
        r for r in probe.hooks.storage.rounds_of(0)
        if probe.hooks.storage.retrieve(0, r).ckpt.taken_at_ns < fail_at
    ]
    cm = ClusterMap.block(NRANKS, K)
    out = run_failure_schedule(
        app(iters=12), NRANKS, cm,
        [(fail_at, 0, "process")],
        config=SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE),
        ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    assert ev.cancelled_flushes == 0
    assert ev.restarted_from_round == max(committed)
    backend = out.world.hooks.storage
    # No flush died with the process crash; every started drain either
    # landed or was superseded by the re-executed rounds' own flushes.
    assert backend.flush_flows_cancelled + backend.flush_flows_completed == (
        backend.flush_flows_started
    )


def test_async_deferred_gc_collects_once_the_drain_lands():
    """Durability arrives between barriers under async flush; the
    deferred cluster-consistent GC still frees sender logs."""
    res = run_mode(PLAN + ":async", iters=12)
    assert res.hooks.total_collected_log_bytes() > 0


@pytest.mark.parametrize("spec", [PLAN, PLAN + ":async"])
def test_every_rank_writes_the_pfs_at_once(spec):
    """Every cluster checkpoints on the same cadence, so every rank's
    PFS burst overlaps: the sync path records closed-form burst windows,
    the async path reads the same peak off its measured flows."""
    res = run_mode(spec, allreduce_every=2)
    assert res.hooks.peak_concurrent_pfs_writers() == NRANKS
    closed_form = res.hooks.pfs_write_windows
    flows = res.hooks.storage.shared_flow_windows()
    assert (len(closed_form) > 0, len(flows) > 0) == (
        (True, False) if spec == PLAN else (False, True)
    )


def test_async_auto_cadence_optimizes_against_the_stall_cost():
    """checkpoint_every='auto' under async flush uses the local-tier
    stall as Young's C — a cheaper C means an equal-or-tighter cadence
    than the sync plan's."""
    cm = ClusterMap.block(NRANKS, K)

    def run(spec):
        cfg = SPBCConfig(
            clusters=cm,
            checkpoint_every="auto",
            mtbf_ns=int(0.5e9),
            state_nbytes=STATE,
        )
        return run_spbc(
            app(iters=10), NRANKS, cm, config=cfg, storage=spec,
            ranks_per_node=RPN,
        )

    sync_rep = run(PLAN).hooks.auto_cadence_report()
    async_rep = run(PLAN + ":async").hooks.auto_cadence_report()
    for cluster in async_rep:
        assert (
            async_rep[cluster]["ckpt_cost_ns"]
            <= sync_rep[cluster]["ckpt_cost_ns"]
        )
        assert async_rep[cluster]["every"] <= sync_rep[cluster]["every"]


def test_async_ssd_drain_defers_the_local_copy():
    """The node-local SSD declares ``background_drain``: under async
    flush its writes leave the commit barrier too (FTI-style local
    daemon), so only the RAM copy stalls the app — and the drained
    copies still all land."""
    from repro.storage.backend import make_backend

    spec = "tiered:ram@1,ssd@2,pfs@4"
    b = make_backend(spec + ":async")
    # Round 2 schedules ram+ssd, round 4 ram+ssd+pfs: the SSD defers
    # alongside the PFS, the RAM copy never does.
    assert [t.name for t in b.round_writes(2).deferred] == ["local-ssd"]
    assert [t.name for t in b.round_writes(4).deferred] == ["local-ssd", "pfs"]
    assert b.amortized_write_cost_ns(STATE) < make_backend(
        spec
    ).amortized_write_cost_ns(STATE)

    sync = run_mode(spec, iters=12)
    asyn = run_mode(spec + ":async", iters=12)
    assert asyn.results == sync.results
    assert (
        asyn.hooks.total_checkpoint_stall_ns()
        < sync.hooks.total_checkpoint_stall_ns()
    )
    ab, sb = asyn.hooks.storage, sync.hooks.storage
    # Every deferred SSD copy eventually drained: the same rounds hold
    # local-ssd copies in both modes, they just landed off the barrier.
    assert ab.tier_writes["local-ssd"] == sb.tier_writes["local-ssd"] > 0
    assert ab.flush_flows_completed == ab.flush_flows_started > 0
    for r in range(NRANKS):
        assert ab.guaranteed_round(r) == sb.guaranteed_round(r)


def test_async_ssd_drain_mid_flight_copy_is_not_restorable():
    """A node failure while the SSD drain is in flight cancels it —
    recovery restarts from a fully landed round, exactly like a PFS
    flush cancellation (no time travel through the local daemon)."""
    spec = "tiered:ram@1,ssd@2,pfs@4:async"
    probe = run_mode(spec, iters=12)
    b = probe.hooks.storage
    assert b.flush_flows_started > 0
    ref = run_native(app(iters=12), NRANKS, ranks_per_node=RPN)
    # Fail a node just after round 2's commit barrier (RAM copy only),
    # while the ~8 ms SSD drain is still in flight.
    ck = b.retrieve(0, 2)
    assert ck is not None
    fail_at = (
        ck.ckpt.taken_at_ns
        + b.write_cost_ns(ck.ckpt, concurrent_writers=NRANKS)
        + 1_000_000
    )
    cm = ClusterMap.block(NRANKS, K)
    out = run_failure_schedule(
        app(iters=12), NRANKS, cm,
        [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE),
        ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    assert ev.cancelled_flushes >= 1
    assert ev.restarted_from_round < 2


def test_async_spec_on_memory_backend_is_rejected():
    with pytest.raises(ValueError, match="memory backend takes no arguments"):
        from repro.storage.backend import make_backend

        make_backend("memory:async")


def test_third_party_node_loss_mid_restore_replans_the_read():
    """A restore pipeline sourced from a partner mirror must not land
    after the buddy node dies mid-read: the pending restore is
    re-planned against what still survives (the drained PFS round)."""
    from repro.harness.runner import run_failure_schedule

    spec = "partner:ram@1,partner@1,pfs@3:async"
    cm = ClusterMap.block(NRANKS, K)
    factory = ring_app(iters=12, msg_bytes=2048, compute_ns=2 * MS)
    ref = run_native(ring_app(iters=12, msg_bytes=2048, compute_ns=2 * MS),
                     NRANKS, ranks_per_node=RPN)

    def cfg():
        return SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE)

    probe = run_failure_schedule(
        factory, NRANKS, cm, [], config=cfg(),
        ranks_per_node=RPN, storage=spec,
    )
    b = probe.world.hooks.storage
    target = 4  # ram+partner copies only (pfs rounds are 3, 6)
    assert target in b.rounds_of(0)
    commit = max(
        b.retrieve(r, target).ckpt.taken_at_ns
        + b.write_cost_ns(b.retrieve(r, target).ckpt, concurrent_writers=NRANKS)
        for r in cm.members(0)
    )
    t_a = commit + 200_000  # node 0 dies: restore will read partner@node1
    # The PFS round 3 must be fully drained by then (the fallback).
    drained = [w for w in b.shared_flow_windows() if w[2] == 0 and w[3] == 3]
    assert drained and drained[0][1] < t_a
    # Node 1 dies while cluster 0's partner read (~3 ms for 4 MB at
    # 1.25 GB/s) is in flight, 0.5 ms after the restore began.
    t_b = t_a + 2_000_000 + 500_000

    out = run_failure_schedule(
        ring_app(iters=12, msg_bytes=2048, compute_ns=2 * MS), NRANKS, cm,
        [(t_a, 0, "node"), (t_b, 2, "node")],
        config=cfg(), ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    ev0 = [ev for ev in out.manager.failures if ev.cluster == 0][-1]
    # Never restored off the mirror that died mid-read: re-planned onto
    # the last drained PFS round.
    assert ev0.restored_tier == "pfs"
    assert ev0.restarted_from_round == 3 < target
