"""Event-driven storage I/O: async flushes, flow restores, rebuild.

Backend-level coverage of the I/O scheduler wiring (protocol-level
behavior lives in tests/core/test_async_flush.py): an async save
registers local copies immediately but the PFS copy only when its
background flow lands; mid-flight flows are cancellable (node loss,
superseded rounds) and a cancelled flush never becomes restorable; the
partner rebuild re-replicates the latest round as a background flow.
"""

import pytest

from repro.core.checkpoint import Checkpoint
from repro.core.logstore import LogStore
from repro.sim.engine import Engine
from repro.sim.network import Topology
from repro.storage.backend import TieredBackend, make_backend, parse_plan
from repro.storage.model import partner_tier, pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan
from repro.util.units import MB


def ckpt(rank, rnd, nbytes=10 * MB):
    return Checkpoint(
        rank=rank,
        round_no=rnd,
        taken_at_ns=0,
        app_state={},
        chan_seq={},
        lr={},
        arrived={},
        ls={},
        pattern_state={},
        unexpected=[],
        log_snapshot=LogStore(rank).snapshot(),
        nbytes=nbytes,
    )


def async_backend(engine, plan="ram@1,pfs@2"):
    b = TieredBackend(parse_plan(plan), async_flush=True)
    b.bind_engine(engine)
    return b


def test_async_save_defers_the_pfs_copy_until_the_flow_lands():
    engine = Engine()
    b = async_backend(engine)
    receipt = b.save(ckpt(0, 2))  # round 2 schedules ram + pfs
    assert receipt.tiers == ("ram",)
    assert receipt.pending_tiers == ("pfs",)
    assert not receipt.durable  # the durable copy has not landed yet
    assert b.surviving_rounds(0) == [2]  # ram copy is immediate
    assert b.guaranteed_round(0) == 0  # ...but certifies nothing
    engine.run()  # drain the background flow
    assert b.guaranteed_round(0) == 2
    assert b.tier_writes["pfs"] == 1
    assert b.flush_flows_completed == 1
    # The measured burst window was recorded for the shared tier.
    assert len(b.shared_flow_windows()) == 1


def test_async_save_without_engine_raises_actionably():
    b = TieredBackend(parse_plan("ram@1,pfs@1"), async_flush=True)
    with pytest.raises(RuntimeError, match="bind_engine"):
        b.save(ckpt(0, 1))


def test_write_cost_excludes_deferred_tiers():
    engine = Engine()
    b = async_backend(engine)
    sync = TieredBackend(parse_plan("ram@1,pfs@2"))
    c = ckpt(0, 2)
    assert b.write_cost_ns(c) < sync.write_cost_ns(c)
    assert b.write_cost_ns(c) == ram_tier().write_time_ns(c.stored_bytes)
    # Non-PFS rounds are identical: nothing to defer.
    c1 = ckpt(0, 1)
    assert b.write_cost_ns(c1) == sync.write_cost_ns(c1)
    # The stall-cost amortization prices only the non-deferred tiers.
    assert b.amortized_write_cost_ns(c.stored_bytes) < sync.amortized_write_cost_ns(
        c.stored_bytes
    )


def test_node_loss_cancels_inflight_flushes_of_that_node():
    engine = Engine()
    b = async_backend(engine)
    b.bind_topology(Topology(nranks=4, ranks_per_node=2))
    b.save(ckpt(0, 2))
    b.save(ckpt(2, 2))
    assert b.flush_flows_started == 2
    b.invalidate_node_copies([0, 1])  # node 0 dies mid-flush
    engine.run()
    assert b.flush_flows_cancelled == 1
    assert b.flush_flows_completed == 1
    # Rank 0's PFS copy never landed; rank 2's did.
    assert b.guaranteed_round(0) == 0
    assert b.guaranteed_round(2) == 2


def test_cancel_inflight_above_supersedes_reexecuted_rounds():
    engine = Engine()
    b = async_backend(engine)
    b.save(ckpt(0, 2))
    assert b.cancel_inflight_above(0, 1) == 1  # round 2 is re-executed
    engine.run()
    assert b.flush_flows_completed == 0
    assert b.guaranteed_round(0) == 0
    # Flows at or below the restore round are left to land.
    b.save(ckpt(0, 2))
    assert b.cancel_inflight_above(0, 2) == 0
    engine.run()
    assert b.guaranteed_round(0) == 2


def test_recommitted_round_supersedes_its_stale_flush():
    engine = Engine()
    b = async_backend(engine)
    b.save(ckpt(0, 2))
    b.save(ckpt(0, 2))  # re-taken after a rollback
    engine.run()
    assert b.flush_flows_cancelled == 1
    assert b.flush_flows_completed == 1


def test_flow_restore_measures_contention():
    """Two ranks restoring concurrently off the shared PFS take longer
    than one rank alone — measured, not assumed."""

    def setup():
        engine = Engine()
        b = async_backend(engine, plan="pfs@1")
        for r in (0, 1):
            b.save(ckpt(r, 1))
        engine.run()
        return engine, b

    engine, b = setup()
    got = {}
    b.start_restore(b.restore_plan(0, 1), on_done=lambda rec: got.setdefault(0, rec))
    engine.run()
    solo_ns = got[0].read_ns

    engine, b = setup()
    got = {}
    for r in (0, 1):
        b.start_restore(
            b.restore_plan(r, 1), on_done=lambda rec, r=r: got.setdefault(r, rec)
        )
    engine.run()
    assert got[0].read_ns > solo_ns  # shared read bandwidth split


def test_flow_restore_waits_out_each_link_decode_stage():
    """A flow restore charges each chain link's modeled decompression
    after its read: the restore ends ``read_ns + decompress_ns`` after
    it started."""
    from dataclasses import replace

    engine = Engine()
    b = async_backend(engine, plan="pfs@1")
    b.save(ckpt(0, 1))
    engine.run()
    plan = b.restore_plan(0, 1)
    plan = replace(
        plan,
        links=tuple(replace(link, decompress_ns=3_000_000) for link in plan.links),
    )
    start, got = engine.now, {}
    b.start_restore(plan, on_done=lambda rec: got.setdefault(0, rec))
    engine.run()
    assert got[0].decompress_ns == 3_000_000
    assert got[0].read_ns > 0
    assert engine.now - start == got[0].read_ns + 3_000_000


def test_unified_lane_restore_read_steals_bandwidth_from_a_flush():
    """StorageTier(unified_lane=True): a restore read and an in-flight
    async flush share ONE lane, so the flush measurably slows while the
    restore reads — against the default split-lane tier the same flush
    is unaffected by the concurrent read (the PR-4 follow-up)."""
    from dataclasses import replace

    def run(unified):
        engine = Engine()
        tier = replace(pfs_tier(), unified_lane=unified)
        plan = MultiLevelPlan(tiers=[tier], periods=[1])
        b = TieredBackend(plan, async_flush=True)
        b.bind_engine(engine)
        b.save(ckpt(0, 1, nbytes=200 * MB))
        engine.run()  # round 1 durably lands for both ranks' restore base
        b.save(ckpt(1, 1, nbytes=200 * MB))
        engine.run(until_ns=engine.now + 1)  # admit the flush flow
        # Rank 0 starts restoring while rank 1's flush still drains.
        got = {}
        b.start_restore(
            b.restore_plan(0, 1), on_done=lambda rec: got.setdefault(0, rec)
        )
        flush_start = engine.now
        engine.run()
        flush_end = max(e for _s, e, _r, _n in b.shared_flow_windows())
        return got[0].read_ns, flush_end - flush_start

    split_read, split_flush = run(unified=False)
    uni_read, uni_flush = run(unified=True)
    # On the unified lane both directions slow each other down...
    assert uni_flush > split_flush
    assert uni_read > split_read
    # ...and with equal sizes sharing one lane, the restore takes about
    # as long as the (slowed) flush instead of running for free.
    assert uni_read > 1.5 * split_read


def test_unified_lane_rejects_asymmetric_read_bandwidth():
    from dataclasses import replace

    with pytest.raises(ValueError, match="unified_lane"):
        replace(pfs_tier(read_gb_s=40.0), unified_lane=True)


def test_asymmetric_pfs_read_bandwidth_speeds_up_restores():
    def run_restore(read_gb_s):
        engine = Engine()
        plan = MultiLevelPlan(
            tiers=[pfs_tier(read_gb_s=read_gb_s)], periods=[1]
        )
        b = TieredBackend(plan, async_flush=True)
        b.bind_engine(engine)
        b.save(ckpt(0, 1, nbytes=100 * MB))
        engine.run()
        got = {}
        b.start_restore(
            b.restore_plan(0, 1), on_done=lambda rec: got.setdefault(0, rec)
        )
        engine.run()
        return got[0].read_ns

    assert run_restore(read_gb_s=40.0) < run_restore(read_gb_s=None)


def test_partner_rebuild_restores_the_buddy_mirror():
    engine = Engine()
    plan = MultiLevelPlan(
        tiers=[ram_tier(), partner_tier(), pfs_tier()], periods=[1, 1, 2]
    )
    b = TieredBackend(plan, async_flush=False)  # rebuild works sync too
    b.bind_engine(engine)
    b.bind_topology(Topology(nranks=4, ranks_per_node=2))
    b.save(ckpt(0, 1))
    # Node 1 (rank 0's buddy) dies: the partner copy is gone.
    b.invalidate_node_copies([2, 3])
    assert "partner" not in b._copies[0][1]
    assert b.rebuild_partner_copies(1) == 1
    assert b.rebuild_partner_copies(1) == 0  # idempotent while in flight
    engine.run()
    assert b._copies[0][1]["partner"] is not None
    assert b.rebuild_flows_completed == 1
    assert b.rebuild_partner_copies(1) == 0  # nothing left to rebuild


def test_plan_without_partner_tier_rebuilds_nothing():
    engine = Engine()
    plan = MultiLevelPlan(tiers=[ram_tier(), pfs_tier()], periods=[1, 1])
    b = TieredBackend(plan)
    b.bind_engine(engine)
    b.bind_topology(Topology(nranks=4, ranks_per_node=2))
    b.save(ckpt(0, 1))
    b.invalidate_node_copies([2, 3])
    assert b.rebuild_partner_copies(1) == 0


def test_make_backend_async_spec_variants():
    assert make_backend("tiered:async").async_flush
    assert make_backend("partner:ram@1,partner@1,pfs@8:async").async_flush
    assert not make_backend("tiered").async_flush
    with pytest.raises(ValueError, match="valid options: async"):
        make_backend("tiered:ram@1,pfs@2:later")
