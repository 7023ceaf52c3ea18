"""Checkpoint write cost: tier plans x cluster counts.

The paper excludes checkpoint I/O ("none of our experiments include
checkpointing") and points at multi-level checkpointing [3, 27] for that
side of the problem.  This benchmark measures what that exclusion hides:
the same run under the free in-memory store versus tiered plans, with
write time charged to the simulation clock.

Shape targets:

* the in-memory backend charges nothing (identical to the seed numbers);
* any tiered plan slows the run down (nonzero write time in makespan);
* everything-to-PFS costs more than node-local tiers: the PFS's
  aggregate bandwidth is shared by all concurrent writers, local SSDs
  are not (the contention argument of the paper's introduction);
* more clusters -> more logged bytes ride along with each checkpoint.
"""

import pytest


@pytest.mark.benchmark(group="ckptcost")
def test_checkpoint_cost_tier_sweep(regenerate):
    rows = regenerate("ckptcost")
    by = {(r.k, r.plan): r for r in rows}
    for k in (4, 16):
        mem = by[(k, "memory")]
        assert mem.write_ms_per_rank == 0.0
        assert mem.slowdown_pct == pytest.approx(0.0)
        for plan in ("local", "multilevel", "pfs-only"):
            r = by[(k, plan)]
            # nonzero checkpoint write time on the simulation clock
            assert r.write_ms_per_rank > 0.0
            assert r.makespan_ns > mem.makespan_ns
        # shared-PFS contention: every rank funnels into one aggregate
        # pipe, so everything-to-PFS beats local tiers only in
        # survivability, never in write time.
        assert (
            by[(k, "pfs-only")].write_ms_per_rank
            > by[(k, "local")].write_ms_per_rank
        )
    # more clusters -> more inter-cluster traffic logged -> bigger
    # checkpoints riding to the same tiers
    assert by[(16, "local")].write_ms_per_rank >= by[(4, "local")].write_ms_per_rank
