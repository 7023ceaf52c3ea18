"""Blast radius: per-node failures across storage plans.

What PR 1's whole-cluster failure model hid: with a per-node blast
radius, a buddy-node RAM mirror (the ``partner`` tier) turns a node loss
from "fall back to the last PFS round" into "restart from the latest
round" — the regime where tiered checkpointing pays off (FTI/SCR).

Shape targets:

* process failures lose no rounds on any plan;
* node failure without a partner copy loses rounds (falls back to the
  durable tier or to scratch);
* node failure with a partner copy restarts from the latest round, read
  from the buddy's RAM;
* the Young/Daly 'auto' cadence lands within one iteration of the
  analytic optimum.
"""

import pytest


@pytest.mark.benchmark(group="blastradius")
def test_blastradius_partner_vs_no_partner(regenerate):
    rows = regenerate(
        "blastradius",
        lambda r: dict(app=r.app, plan=r.plan, kind=r.kind, nranks=r.nranks,
                       nnodes=r.nnodes, failed_node=r.failed_node,
                       restarted_ranks=r.restarted_ranks,
                       rounds_at_failure=r.rounds_at_failure,
                       restarted_from_round=r.restarted_from_round,
                       lost_rounds=r.lost_rounds, restored_tier=r.restored_tier,
                       invalidated_copies=r.invalidated_copies,
                       recovery_overhead_pct=r.recovery_overhead_pct),
    )
    by = {(r.plan, r.kind): r for r in rows}
    assert by[("no-partner", "process")].lost_rounds == 0
    assert by[("partner", "process")].lost_rounds == 0
    assert by[("partner", "node")].lost_rounds == 0
    assert by[("no-partner", "node")].lost_rounds > 0
    assert by[("partner", "node")].restored_tier == "partner"


@pytest.mark.benchmark(group="blastradius")
def test_auto_interval_tracks_young_daly(regenerate):
    rows = regenerate(
        "auto_interval",
        lambda r: dict(app=r.app, plan=r.plan, cluster=r.cluster, every=r.every,
                       predicted_every=r.predicted_every, iter_ns=r.iter_ns,
                       ckpt_cost_ns=r.ckpt_cost_ns, t_opt_ns=r.t_opt_ns,
                       commits=r.commits),
    )
    for r in rows:
        assert abs(r.every - r.predicted_every) <= 1
