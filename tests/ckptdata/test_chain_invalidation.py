"""Chain-aware storage: a delta whose base is lost is unusable, restart
reads the whole surviving chain, and guaranteed rounds require durably
stored chains end-to-end."""

import pytest

from repro.ckptdata.plane import CkptDataPlane
from repro.ckptdata.regions import uniform_profile
from repro.core.checkpoint import Checkpoint
from repro.storage.backend import TieredBackend
from repro.storage.model import pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan
from repro.util.units import KB, MB


def ckpt(rank=0, round_no=1, nbytes=1 * MB, payload=None):
    return Checkpoint(
        rank=rank,
        round_no=round_no,
        taken_at_ns=0,
        app_state={},
        chan_seq={},
        lr={},
        arrived={},
        ls={},
        pattern_state={},
        unexpected=[],
        log_snapshot={},
        nbytes=nbytes,
        payload=payload,
    )


def chain_backend(ram_period=1, pfs_period=2):
    return TieredBackend(
        MultiLevelPlan(
            tiers=[ram_tier(), pfs_tier()], periods=[ram_period, pfs_period]
        )
    )


def save_chain(backend, rounds=4, full_period=100, rank=0, full_on_durable=False):
    """Save rounds 1..N where round 1 is full and the rest are deltas."""
    plane = CkptDataPlane(
        full_period=full_period,
        profile=uniform_profile(1 * MB, 0.1),
        full_on_durable=full_on_durable,
    )
    ckpts = {}
    for rnd in range(1, rounds + 1):
        payload = plane.build_payload(
            rank, rnd, iters_since_prev=1,
            durable_round=backend.round_writes(rnd).shared_scheduled,
        )
        c = ckpt(rank=rank, round_no=rnd, payload=payload)
        backend.save(c)
        ckpts[rnd] = c
    return ckpts


# ----------------------------------------------------------------------
# Restorability
# ----------------------------------------------------------------------

def test_all_chains_complete_while_everything_survives():
    b = chain_backend()
    save_chain(b, rounds=4)
    assert b.surviving_rounds(0) == [1, 2, 3, 4]
    assert b.restorable_rounds(0) == [1, 2, 3, 4]


def test_lost_delta_base_makes_later_deltas_unusable():
    # ram every round, pfs rounds 2 and 4; round 1 (the only full) lives
    # in ram only.  Killing the node drops the ram copies: the surviving
    # pfs deltas of rounds 2 and 4 have no base left.
    b = chain_backend(pfs_period=2)
    save_chain(b, rounds=4)
    dropped = b.invalidate_node_copies([0])
    assert dropped == 4  # four ram copies
    assert b.surviving_rounds(0) == [2, 4]  # copies exist...
    assert b.restorable_rounds(0) == []  # ...but their chains are broken
    assert b.retrieve(0, 2) is None
    assert b.retrieve(0, 4) is None
    assert b.load_latest(0) is None


def test_full_on_durable_round_keeps_pfs_self_contained():
    # Same plan, but the plane forces fulls on durable (pfs) rounds: a
    # node loss now falls back to the last full on the PFS instead of
    # all the way to scratch.
    b = chain_backend(pfs_period=2)
    save_chain(b, rounds=5, full_on_durable=True)
    b.invalidate_node_copies([0])
    assert b.surviving_rounds(0) == [2, 4]
    assert b.restorable_rounds(0) == [2, 4]  # fulls: chains of length 1
    assert b.load_latest(0).round_no == 4


def test_retrieve_reads_the_whole_chain_and_sums_read_time():
    b = chain_backend(pfs_period=10)  # everything in ram (plus pfs round 10)
    ckpts = save_chain(b, rounds=3)
    rec = b.retrieve(0, 3)
    assert rec is not None
    assert rec.chain == (1, 2, 3)  # base-full first
    ram = b.plan.tiers[0]
    expected = sum(
        ram.read_time_ns(ckpts[rnd].payload.stored_bytes, 1) for rnd in (1, 2, 3)
    )
    assert rec.read_ns == expected
    # a single-round (full) retrieve reports no chain
    rec1 = b.retrieve(0, 1)
    assert rec1.chain == () and rec1.read_ns < expected


def test_payloadless_checkpoints_keep_single_round_semantics():
    b = chain_backend(pfs_period=2)
    for rnd in (1, 2, 3):
        b.save(ckpt(round_no=rnd))
    b.invalidate_node_copies([0])
    # opaque blobs: pfs round 2 stands alone and stays restorable
    assert b.restorable_rounds(0) == [2]
    assert b.retrieve(0, 2).chain == ()


# ----------------------------------------------------------------------
# Guaranteed rounds (log-GC floor) are chain-aware
# ----------------------------------------------------------------------

def test_guaranteed_round_requires_a_durably_stored_chain():
    # Round 2 is a pfs-stored *delta* whose base (round 1) is ram-only:
    # a node failure can still force a rollback past round 2, so it must
    # not certify a GC floor.
    b = chain_backend(pfs_period=2)
    save_chain(b, rounds=2)
    assert b.guaranteed_round(0) == 0

    # With fulls forced on durable rounds the pfs copy is self-contained.
    b2 = chain_backend(pfs_period=2)
    save_chain(b2, rounds=2, full_on_durable=True)
    assert b2.guaranteed_round(0) == 2


def test_guaranteed_round_unchanged_for_payloadless_checkpoints():
    b = chain_backend(pfs_period=2)
    for rnd in (1, 2, 3):
        b.save(ckpt(round_no=rnd))
    assert b.guaranteed_round(0) == 2  # the pfs round


# ----------------------------------------------------------------------
# Compression-aware cost accounting at the tier level
# ----------------------------------------------------------------------

def test_tiers_are_charged_for_stored_not_logical_bytes():
    from repro.ckptdata.compression import compression_model

    comp = compression_model("zlib-like")
    plane = CkptDataPlane(
        mode="full", compression=comp, profile=uniform_profile(2 * MB, 0.5)
    )
    payload = plane.build_payload(0, 1, 1)
    b = chain_backend(pfs_period=1)
    c = ckpt(round_no=1, nbytes=2 * MB, payload=payload)
    cost = b.write_cost_ns(c)
    receipt = b.save(c)
    stored = payload.stored_bytes
    assert stored == int(2 * MB / comp.ratio)
    ram, pfs = b.plan.tiers
    assert cost == ram.write_time_ns(stored, 1) + pfs.write_time_ns(stored, 1)
    assert receipt.write_ns == cost
    assert b.bytes_written == 2 * stored  # one copy per tier
    assert b.tier_bytes["ram"] == stored and b.tier_bytes["pfs"] == stored


def test_deltas_cost_less_than_fulls_on_the_same_tier():
    plane = CkptDataPlane(full_period=8, profile=uniform_profile(4 * MB, 0.05))
    b = chain_backend(pfs_period=10)
    full = ckpt(round_no=1, payload=plane.build_payload(0, 1, 1))
    delta = ckpt(round_no=2, payload=plane.build_payload(0, 2, 1))
    assert b.write_cost_ns(delta) < b.write_cost_ns(full)


def test_amortized_write_cost_between_delta_and_full_round_cost():
    b = chain_backend(pfs_period=4)
    nbytes = 1 * MB
    amortized = b.amortized_write_cost_ns(nbytes)
    ram, pfs = b.plan.tiers
    ram_only = ram.write_time_ns(nbytes, 1)
    with_pfs = ram_only + pfs.write_time_ns(nbytes, 1)
    assert ram_only < amortized < with_pfs


def test_corrupt_chain_cycle_is_detected():
    from repro.ckptdata.plane import CkptPayload

    b = chain_backend(pfs_period=10)
    loop = CkptPayload(
        kind="delta", round_no=1, full_bytes=1 * KB, delta_bytes=1 * KB,
        base_round=1, stored_bytes=1 * KB, compress_ns=0,
    )
    b.save(ckpt(round_no=1, payload=loop))
    with pytest.raises(ValueError, match="cycle"):
        b.restorable_rounds(0)
