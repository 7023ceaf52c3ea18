"""Storage backend layer: receipts, tier scheduling, survivability."""

from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.ckptdata.plane import CkptPayload
from repro.core.checkpoint import Checkpoint
from repro.sim.engine import Engine
from repro.sim.network import Topology
from repro.storage.backend import (
    TieredBackend,
    default_plan,
    make_backend,
    parse_plan,
)
from repro.storage.model import local_ssd_tier, memory_tier, pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan
from repro.util.units import MB


def ckpt(rank=0, round_no=1, nbytes=10 * MB):
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
    )


def two_level():
    return TieredBackend(
        MultiLevelPlan(tiers=[ram_tier(), pfs_tier()], periods=[1, 2])
    )


# ----------------------------------------------------------------------
# The "memory" plan: the free, indestructible default
# ----------------------------------------------------------------------

def test_memory_store_is_a_one_tier_plan():
    b = make_backend("memory")
    assert list(b.plan.tiers) == [memory_tier()] and list(b.plan.periods) == [1]
    tier = memory_tier()
    assert tier.latency_ns == 0 and tier.survives_node_failure and not tier.shared
    assert tier.write_time_ns(2**40, 512) == tier.read_time_ns(2**40, 512) == 0
    assert b.writes_free and not make_backend("tiered").writes_free


def test_in_memory_is_free_and_durable():
    b = make_backend("memory")
    r = b.save(ckpt(round_no=1), concurrent_writers=512)
    assert r.write_ns == 0 and r.durable and r.tiers == ("memory",)
    assert b.invalidate_node_copies([0]) == 0
    assert b.surviving_rounds(0) == [1]
    rec = b.retrieve(0, 1)
    assert rec.read_ns == 0 and rec.tier == "memory"
    assert b.load_latest(0).round_no == 1
    assert b.load_latest(1) is None


# ----------------------------------------------------------------------
# TieredBackend: plan execution and cost accounting
# ----------------------------------------------------------------------

def test_tiered_writes_follow_the_plan_schedule():
    b = two_level()
    r1 = b.save(ckpt(round_no=1))
    r2 = b.save(ckpt(round_no=2))
    assert r1.tiers == ("ram",) and not r1.durable
    assert r2.tiers == ("ram", "pfs") and r2.durable
    assert r1.write_ns > 0
    # the PFS round pays both tiers
    assert r2.write_ns > r1.write_ns
    assert b.tier_writes == {"ram": 2, "pfs": 1}
    assert b.writes == 2


def test_shared_tier_contention_scales_write_receipts():
    alone = two_level().save(ckpt(round_no=2), concurrent_writers=1)
    crowded = two_level().save(ckpt(round_no=2), concurrent_writers=512)
    assert crowded.write_ns > alone.write_ns


def test_node_failure_invalidates_volatile_copies():
    b = two_level()
    for rnd in (1, 2, 3):
        b.save(ckpt(round_no=rnd))
    assert b.surviving_rounds(0) == [1, 2, 3]
    dropped = b.invalidate_node_copies([0])
    assert dropped == 3  # the three RAM copies
    assert b.surviving_rounds(0) == [2]  # only the PFS round survives
    assert b.rounds_of(0) == [1, 2, 3]  # history remembers everything
    assert b.load_latest(0).round_no == 2
    # a second invalidation is a no-op
    assert b.invalidate_node_copies([0]) == 0


def test_retrieve_prefers_the_fastest_surviving_copy():
    b = two_level()
    b.save(ckpt(round_no=2))  # ram + pfs
    rec = b.retrieve(0, 2, concurrent_readers=8)
    assert rec.tier == "ram" and rec.read_ns > 0
    b.invalidate_node_copies([0])
    rec = b.retrieve(0, 2, concurrent_readers=8)
    assert rec.tier == "pfs"
    assert rec.read_ns > 0
    assert b.retrieve(0, 1) is None
    assert b.retrieve(1, 2) is None


def test_restart_read_burst_contends_on_shared_tier():
    b = two_level()
    b.save(ckpt(round_no=2))
    b.invalidate_node_copies([0])
    quiet = b.retrieve(0, 2, concurrent_readers=1).read_ns
    burst = b.retrieve(0, 2, concurrent_readers=512).read_ns
    assert burst > quiet


def test_duplicate_tier_names_rejected():
    with pytest.raises(ValueError):
        TieredBackend(MultiLevelPlan(tiers=[ram_tier(), ram_tier()], periods=[1, 2]))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_make_backend_specs():
    memory = make_backend("memory")
    assert isinstance(memory, TieredBackend)
    assert [x.name for x in memory.plan.tiers] == ["memory"]
    t = make_backend("tiered")
    assert isinstance(t, TieredBackend)
    assert [x.name for x in t.plan.tiers] == [x.name for x in default_plan().tiers]
    custom = make_backend("tiered:ram@1,pfs@4")
    assert [x.name for x in custom.plan.tiers] == ["ram", "pfs"]
    assert list(custom.plan.periods) == [1, 4]


def test_parse_plan_defaults_and_errors():
    plan = parse_plan("ssd")
    assert plan.periods[0] == 1 and plan.tiers[0].name == "local-ssd"
    with pytest.raises(ValueError):
        parse_plan("floppy@1")
    with pytest.raises(ValueError):
        parse_plan("")
    with pytest.raises(ValueError):
        make_backend("tape")
    with pytest.raises(ValueError):
        make_backend("memory:ram@1")


# ----------------------------------------------------------------------
# Spec error messages: name the offending token, list the valid choices
# ----------------------------------------------------------------------

def test_unknown_backend_error_names_token_and_choices():
    with pytest.raises(ValueError) as e:
        make_backend("cloud:ram@1")
    msg = str(e.value)
    assert "'cloud'" in msg
    for valid in ("memory", "tiered", "partner"):
        assert valid in msg


def test_unknown_tier_error_names_token_and_choices():
    with pytest.raises(ValueError) as e:
        make_backend("tiered:ram@1,floppy@4")
    msg = str(e.value)
    assert "'floppy'" in msg
    for valid in ("ram", "ssd", "pfs", "partner"):
        assert valid in msg


def test_bad_period_errors_name_the_token():
    with pytest.raises(ValueError) as e:
        make_backend("tiered:ram@fast")
    assert "'ram@fast'" in str(e.value) and "'fast'" in str(e.value)
    with pytest.raises(ValueError) as e:
        make_backend("tiered:ram@0")
    assert "'ram@0'" in str(e.value) and ">= 1" in str(e.value)
    with pytest.raises(ValueError) as e:
        make_backend("tiered:ram@-2")
    assert ">= 1" in str(e.value)


def test_memory_backend_rejects_arguments_naming_them():
    with pytest.raises(ValueError) as e:
        make_backend("memory:ram@1")
    assert "'ram@1'" in str(e.value)


def test_empty_tiered_plan_suggests_an_example():
    with pytest.raises(ValueError) as e:
        make_backend("tiered: ,, ")
    assert "ram@1,pfs@4" in str(e.value)


# ----------------------------------------------------------------------
# The guaranteed-round memo against the walk-everything definitions
# ----------------------------------------------------------------------

NRANKS, RANKS_PER_NODE = 6, 2


def chain_from_copies(backend, rank, round_no):
    """Rounds needed to rebuild ``round_no`` (newest first), None when a
    link has no surviving copy — recomputed from ``_copies``."""
    per_rank = backend._copies.get(rank, {})
    chain = []
    while round_no is not None:
        copies = per_rank.get(round_no)
        if not copies:
            return None
        chain.append(round_no)
        payload = next(iter(copies.values())).payload
        round_no = payload.base_round if payload is not None else None
    return chain


def guaranteed_from_copies(backend, rank):
    per_rank = backend._copies.get(rank, {})
    best = 0
    for rnd in per_rank:
        chain = chain_from_copies(backend, rank, rnd)
        if chain is not None and all(
            any(backend._tier(n).survives_node_failure for n in per_rank[link])
            for link in chain
        ):
            best = max(best, rnd)
    return best


class BackendIndexMachine(RuleBasedStateMachine):
    """Drives an async partner backend through every operation that
    writes or deletes a checkpoint copy; after each one the memoized
    ``guaranteed_round`` and ``restorable_rounds`` must equal what a
    fresh walk over ``_copies`` says.  (The invariant queries every
    rank, so each rule runs against a fully populated memo.)"""

    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.backend = make_backend("partner:ram@1,partner@1,pfs@2:async")
        self.backend.bind_engine(self.engine)
        self.backend.bind_topology(
            Topology(nranks=NRANKS, ranks_per_node=RANKS_PER_NODE)
        )
        self.latest = dict.fromkeys(range(NRANKS), 0)

    def _save(self, rank, round_no, delta_on):
        base = None
        if delta_on is not None and round_no > 1:
            base = 1 + delta_on % (round_no - 1)  # any earlier round
        payload = CkptPayload(
            kind="full" if base is None else "delta", round_no=round_no,
            full_bytes=MB, delta_bytes=MB, base_round=base,
            stored_bytes=(1 + round_no % 3) * MB, compress_ns=0,
        )
        self.backend.save(replace(ckpt(rank, round_no), payload=payload))

    @rule(rank=st.integers(0, NRANKS - 1), delta_on=st.none() | st.integers(0, 50))
    def save_next_round(self, rank, delta_on):
        self.latest[rank] += 1
        self._save(rank, self.latest[rank], delta_on)

    @precondition(lambda self: any(self.latest.values()))
    @rule(data=st.data(), delta_on=st.none() | st.integers(0, 50))
    def supersede_a_round(self, data, delta_on):
        rank = data.draw(st.sampled_from([r for r, n in self.latest.items() if n]))
        self._save(rank, data.draw(st.integers(1, self.latest[rank])), delta_on)

    @rule(dt_ms=st.integers(1, 400))
    def let_flows_land(self, dt_ms):
        self.engine.run(until_ns=self.engine.now + dt_ms * 1_000_000)

    @rule(rank=st.integers(0, NRANKS - 1), above=st.integers(0, 6))
    def cancel_flushes_above(self, rank, above):
        self.backend.cancel_inflight_above(rank, above)

    @rule(node=st.integers(0, NRANKS // RANKS_PER_NODE - 1))
    def lose_node(self, node):
        first = node * RANKS_PER_NODE
        self.backend.invalidate_node_copies(range(first, first + RANKS_PER_NODE))

    @rule(node=st.integers(0, NRANKS // RANKS_PER_NODE - 1))
    def rebuild_partner_copies(self, node):
        self.backend.rebuild_partner_copies(node)

    @invariant()
    def index_equals_the_walk(self):
        b = self.backend
        for rank in range(NRANKS):
            assert b.guaranteed_round(rank) == guaranteed_from_copies(b, rank)
            assert b.restorable_rounds(rank) == [
                rnd
                for rnd in sorted(b._copies.get(rank, {}))
                if chain_from_copies(b, rank, rnd) is not None
            ]


BackendIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestBackendIndex = BackendIndexMachine.TestCase
