"""Partner plans: buddy-node placement and invalidation semantics."""

import pytest

from repro.core.checkpoint import Checkpoint
from repro.core.logstore import LogStore
from repro.sim.network import Topology
from repro.storage.backend import make_backend


def ckpt(rank, round_no, nbytes=1024):
    return Checkpoint(
        rank=rank,
        round_no=round_no,
        taken_at_ns=round_no * 1000,
        app_state={"nbytes": nbytes},
        chan_seq={},
        lr={},
        arrived={},
        ls={},
        pattern_state={},
        unexpected=[],
        log_snapshot=LogStore(rank).snapshot(),
        nbytes=nbytes,
    )


def backend(nranks=8, rpn=2, spec="partner:ram@1,partner@1,pfs@4"):
    b = make_backend(spec)
    b.bind_topology(Topology(nranks=nranks, ranks_per_node=rpn))
    return b


def test_partner_plan_must_include_partner_tier():
    with pytest.raises(ValueError, match="partner"):
        make_backend("partner:ram@1,pfs@4:async")
    with pytest.raises(ValueError, match="partner"):
        make_backend("partner:ram@1,pfs@4")


def test_default_partner_plan_mirrors_every_round():
    b = make_backend("partner")
    names = [t.name for t in b.plan.tiers]
    assert names == ["ram", "partner", "pfs"]
    assert list(b.plan.periods)[:2] == [1, 1]


def test_partner_copy_lives_on_buddy_node():
    b = backend()  # 4 nodes, ring partner
    assert b.host_node("ram", 0) == 0
    assert b.host_node("partner", 0) == 1
    assert b.host_node("partner", 7) == 0  # node 3 wraps to node 0


def test_single_node_loss_keeps_partner_copy():
    b = backend()
    for r in range(8):
        b.save(ckpt(r, 1))
    # Node 0 dies: ranks 0,1's ram copies die; their partner copies on
    # node 1 survive.  Node 3's ranks (6,7) lose their partner copies
    # (hosted on node 0) but keep their own ram copies.
    dropped = b.invalidate_node_copies([0, 1])
    # ram of ranks 0,1 + partner of ranks 6,7
    assert dropped == 4
    assert b.surviving_rounds(0) == [1]
    assert b.retrieve(0, 1).tier == "partner"
    assert b.retrieve(6, 1).tier == "ram"  # own ram copy survived
    # ranks 6,7 lost only their partner mirror
    assert {b.retrieve(r, 1).tier for r in (6, 7)} == {"ram"}


def test_both_partners_down_loses_the_round():
    b = backend(spec="partner:ram@1,partner@1")
    for r in range(8):
        b.save(ckpt(r, 1))
    # Nodes 0 and 1 die together: rank 0's ram (node 0) and partner
    # (node 1) copies are both gone -> nothing survives.
    b.invalidate_node_copies([0, 1, 2, 3])
    assert b.surviving_rounds(0) == []
    assert b.load_latest(0) is None
    # rank 4 (node 2) is untouched: ram + partner both live
    assert b.surviving_rounds(4) == [1]


def test_sequential_failures_erode_partner_protection():
    """Buddy node dies first (mirror lost), own node second (ram lost):
    the round is gone even though each failure was a single node."""
    b = backend(spec="partner:ram@1,partner@1")
    for r in range(8):
        b.save(ckpt(r, 1))
    b.invalidate_node_copies([2, 3])  # node 1: rank 0's mirror host
    assert b.retrieve(0, 1).tier == "ram"  # still covered locally
    b.invalidate_node_copies([0, 1])  # node 0: rank 0's own ram
    assert b.surviving_rounds(0) == []


def test_single_node_world_partner_degenerates_to_local_ram():
    b = backend(nranks=4, rpn=4, spec="partner:ram@1,partner@1")
    for r in range(4):
        b.save(ckpt(r, 1))
    assert b.host_node("partner", 0) == 0  # buddy of the only node
    b.invalidate_node_copies([0, 1, 2, 3])
    assert b.surviving_rounds(0) == []


def test_without_topology_partner_behaves_like_owner_local():
    b = make_backend("partner:ram@1,partner@1")  # never bound
    for r in range(4):
        b.save(ckpt(r, 1))
    dropped = b.invalidate_node_copies([0])
    assert dropped == 2  # ram + partner of rank 0, legacy blast radius
    assert b.surviving_rounds(0) == []
    assert b.surviving_rounds(1) == [1]


def test_guaranteed_round_ignores_partner_copies():
    b = backend()
    for rnd in range(1, 5):
        b.save(ckpt(0, rnd))
    # pfs runs every 4th round: only round 4 is future-proof.
    assert b.guaranteed_round(0) == 4
    b2 = backend(spec="partner:ram@1,partner@1")
    b2.save(ckpt(0, 1))
    assert b2.guaranteed_round(0) == 0
