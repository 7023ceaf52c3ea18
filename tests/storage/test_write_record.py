"""Each storage decision has one site.

A round's write set is the backend's ``RoundWrites`` record, built once
per residue of the plan's cycle; a restart's read chain is
``restore_plan``, which ``retrieve`` prices in closed form.  The
properties below check the record against a reference built from the
per-round predicates the backends used to re-derive on every call, the
costs against the record, and that looking a round up costs nothing.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import ring_app
from repro.ckptdata.plane import CkptPayload
from repro.core.checkpoint import Checkpoint
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_spbc
from repro.journal.recorder import commit_history_of
from repro.sim.engine import Engine
from repro.storage.backend import TieredBackend, make_backend
from repro.storage.model import local_ssd_tier, partner_tier, pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan
from repro.util.units import MB

FACTORIES = {
    "ram": ram_tier,
    "ssd": local_ssd_tier,
    "pfs": pfs_tier,
    "partner": partner_tier,
}


@st.composite
def plans(draw):
    names = draw(
        st.lists(
            st.sampled_from(sorted(FACTORIES)), min_size=1, max_size=4, unique=True
        )
    )
    periods = sorted(
        draw(st.lists(st.integers(1, 8), min_size=len(names), max_size=len(names)))
    )
    periods[0] = 1
    return MultiLevelPlan(tiers=[FACTORIES[n]() for n in names], periods=periods)


def reference_writes(plan, async_flush, round_no):
    """(committed, deferred, durable, shared) from the per-round rule."""
    scheduled = [
        t for t, period in zip(plan.tiers, plan.periods) if round_no % period == 0
    ]
    deferred = [
        t for t in scheduled if async_flush and (t.shared or t.background_drain)
    ]
    committed = [t for t in scheduled if t not in deferred]
    return (
        committed,
        deferred,
        any(t.survives_node_failure for t in scheduled),
        any(t.shared for t in scheduled),
    )


def ckpt(round_no, nbytes=4 * MB, payload=None):
    return Checkpoint(
        rank=0,
        round_no=round_no,
        taken_at_ns=round_no,
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


def counters(backend):
    return {k: v for k, v in vars(backend).items() if isinstance(v, int)}


@settings(max_examples=60, deadline=None)
@given(
    plan=plans(),
    async_flush=st.booleans(),
    writers=st.integers(1, 64),
    nbytes=st.integers(0, 64 * MB),
)
def test_write_record_matches_the_per_round_rule(plan, async_flush, writers, nbytes):
    b = TieredBackend(plan, async_flush=async_flush)
    lcm = math.lcm(*plan.periods)
    assert plan.cycle == lcm
    for r in range(1, 2 * lcm + 1):
        committed, deferred, durable, shared = reference_writes(plan, async_flush, r)
        rec = b.round_writes(r)
        assert list(rec.committed) == committed
        assert list(rec.deferred) == deferred
        # On the factory tiers the PFS is the only tier that survives
        # node failure and the only shared one, so the one flag serves
        # both the stagger and the data plane's forced full.
        assert rec.shared_scheduled == shared == durable
        assert b.write_cost_ns(ckpt(r, nbytes), writers) == sum(
            t.write_time_ns(nbytes, writers) for t in committed
        )
    mean = sum(
        b.write_cost_ns(ckpt(r, nbytes), writers) for r in range(1, lcm + 1)
    ) // lcm
    assert b.amortized_write_cost_ns(nbytes, writers) == mean


@settings(max_examples=60, deadline=None)
@given(
    plan=plans(),
    async_flush=st.booleans(),
    bases=st.lists(st.none() | st.integers(0, 50), min_size=1, max_size=12),
    readers=st.integers(1, 64),
)
def test_retrieve_is_the_restore_plan_summed(plan, async_flush, bases, readers):
    engine = Engine()
    b = TieredBackend(plan, async_flush=async_flush)
    b.bind_engine(engine)
    for r, base_on in enumerate(bases, start=1):
        base = None if base_on is None or r == 1 else 1 + base_on % (r - 1)
        payload = CkptPayload(
            kind="full" if base is None else "delta", round_no=r,
            full_bytes=MB, delta_bytes=MB, base_round=base,
            stored_bytes=(1 + r % 3) * MB, compress_ns=0,
        )
        b.save(ckpt(r, payload=payload))
        if r % 2:
            engine.run()  # let some background flushes land
    tiers = {t.name: t for t in plan.tiers}
    before = counters(b)
    for r in range(1, len(bases) + 1):
        rec = b.retrieve(0, r, readers)
        plan_k = b.restore_plan(0, r, readers)
        if plan_k is None:
            assert rec is None
            continue
        assert rec.ckpt is plan_k.ckpt and rec.tier == plan_k.tier
        assert rec.chain == plan_k.chain
        assert rec.read_ns == sum(
            tiers[link.tier].read_time_ns(link.nbytes, readers)
            for link in plan_k.links
        )
    history = commit_history_of(SimpleNamespace(storage=b), ranks=[0])
    assert commit_history_of(SimpleNamespace(storage=b), ranks=[0]) == history
    assert counters(b) == before


def test_amortized_cost_averages_a_non_nested_plan_over_its_lcm():
    """ssd@3 and pfs@4 coincide every 12 rounds: averaging over the last
    period (4) would price the cadence 8 % low."""
    b = make_backend("tiered:ram@1,ssd@3,pfs@4")
    n = 8 * MB
    mean_12 = sum(b.write_cost_ns(ckpt(r, n)) for r in range(1, 13)) // 12
    assert b.amortized_write_cost_ns(n) == mean_12


def test_memory_plan_writes_for_free_and_stays_durable():
    b = make_backend("memory")
    rec = b.round_writes(7)
    assert [t.name for t in rec.committed] == ["memory"]
    assert not rec.deferred and not rec.shared_scheduled
    assert b.write_cost_ns(ckpt(7)) == 0
    assert b.amortized_write_cost_ns(MB) == 0
    assert b.save(ckpt(7)).durable


def test_reading_commit_history_leaves_the_backend_unchanged():
    n = 16
    cm = ClusterMap.block(n, n // 4)
    cfg = SPBCConfig(clusters=cm, checkpoint_every=1, state_nbytes=1 << 20)
    res = run_spbc(
        ring_app(iters=6, msg_bytes=1024, compute_ns=100_000), n, cm,
        config=cfg, storage="tiered:ram@1,pfs@4", trace=False,
    )
    before = counters(res.hooks.storage)
    first = res.commit_history
    assert res.commit_history == first
    assert counters(res.hooks.storage) == before
    assert all(len(h) == 6 for h in first.values())
