"""HydEE baseline: dependency vectors, coordinator protocol, recovery runs."""

import pytest

from repro.baselines.hydee import (
    HydEEPlan,
    compute_dependencies,
    run_hydee_recovery,
)
from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.harness.runner import run_emulated_recovery, run_native, run_spbc
from repro.apps.base import get_app
from repro.apps.synthetic import ring_app
from repro.sim.tracing import CommEvent, Trace


def test_concurrent_messages_depend_on_nothing():
    clusters = ClusterMap([0, 1, 2, 3])
    t = Trace()
    t.record(CommEvent("send", 0, 10, (0, 1, 0), 1))
    t.record(CommEvent("send", 2, 10, (2, 3, 0), 1))
    deps = compute_dependencies(t, clusters, recovering={1, 3})
    assert deps == {(0, 1, 0, 1): {}, (2, 3, 0, 1): {}}


def test_per_sender_dependencies_only_grow_in_real_app():
    """The property the pipelined replayer relies on: each logged
    message's dependency vector covers the previous one's from the same
    sender, so in-order granting cannot deadlock."""
    app = get_app("lu").factory(iters=2, block_ns=20_000)
    clusters = ClusterMap.block(8, 4)
    res = run_spbc(app, 8, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    for sender, recs in plan.base.records_by_sender.items():
        vectors = [plan.deps[(sender, r.dst, r.comm_id, r.seqnum)] for r in recs]
        for before, after in zip(vectors, vectors[1:]):
            assert all(after.get(c, 0) >= s for c, s in before.items()), (
                f"sender {sender}: a dependency vector shrank"
            )


def test_plan_tracks_replayed_and_suppressed():
    app = ring_app(iters=4, msg_bytes=512, compute_ns=20_000)
    clusters = ClusterMap.block(4, 4)  # everything inter-cluster
    res = run_spbc(app, 4, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    # recovering cluster is {0}; replayed: 4 msgs from rank 3; suppressed:
    # 4 msgs from rank 0 to rank 1
    assert len(plan.tracked) == 8
    # the coordinator has a dependency vector for everything it tracks
    assert plan.tracked <= plan.deps.keys()


def test_dependency_vectors_follow_causal_chains():
    """Ring sendrecv: a rank's iteration-(i+1) send causally follows both
    its own iteration-i send (program order) and the iteration-i message
    it received."""
    app = ring_app(iters=3, msg_bytes=512, compute_ns=20_000)
    clusters = ClusterMap.block(4, 4)
    res = run_spbc(app, 4, clusters, ranks_per_node=2)
    deps = compute_dependencies(res.trace, clusters, recovering={0})
    wcid = res.world.comm_world.comm_id
    # rank 0's iteration-2 send follows its own iteration-1 send and the
    # (3 -> 0) message it delivered in iteration 1
    assert deps[(0, 1, wcid, 2)] == {(0, 1, wcid): 1, (3, 0, wcid): 1}
    # rank 3's iteration-2 send follows its own first send; (0 -> 1)
    # traffic is not yet in its causal past after only one iteration
    assert deps[(3, 0, wcid, 2)] == {(3, 0, wcid): 1}
    # first messages depend on nothing
    assert deps[(0, 1, wcid, 1)] == {}
    assert deps[(3, 0, wcid, 1)] == {}


@pytest.mark.parametrize("appname,params", [
    ("lu", dict(iters=2, block_ns=50_000)),
    ("bt", dict(iters=2, compute_per_sweep_ns=100_000)),
    ("mg", dict(cycles=2, compute_l0_ns=100_000)),
    ("sp", dict(iters=2, compute_per_sweep_ns=100_000)),
])
def test_hydee_recovery_correct_on_nas_apps(appname, params):
    app = get_app(appname).factory(**params)
    nranks = 8
    clusters = ClusterMap.block(nranks, 4)
    res = run_spbc(app, nranks, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    out = run_hydee_recovery(app, nranks, clusters, plan, ranks_per_node=2)
    for r in plan.base.recovering_ranks:
        assert out.results[r] == res.results[r]
    assert out.grants == plan.base.total_records
    assert out.acks == len(plan.tracked)


def test_hydee_recovery_slower_than_spbc():
    """The paper's Figure 6 claim: centralized coordination slows
    recovery; SPBC's distributed replay does not."""
    app = get_app("lu").factory(iters=3, block_ns=100_000, blocks_per_sweep=4)
    nranks = 8
    clusters = ClusterMap.block(nranks, 4)
    native = run_native(app, nranks, ranks_per_node=2)
    res = run_spbc(app, nranks, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    spbc_rec = run_emulated_recovery(
        app, nranks, clusters, plan.base,
        reference_ns=native.makespan_ns, ranks_per_node=2,
    )
    hydee_rec = run_hydee_recovery(
        app, nranks, clusters, plan,
        reference_ns=native.makespan_ns, ranks_per_node=2,
    )
    assert hydee_rec.rework_ns > spbc_rec.rework_ns


def test_coordinator_processing_time_hurts():
    app = get_app("lu").factory(iters=2, block_ns=50_000)
    nranks = 8
    clusters = ClusterMap.block(nranks, 4)
    res = run_spbc(app, nranks, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    fast = run_hydee_recovery(app, nranks, clusters, plan, proc_ns=500, ranks_per_node=2)
    slow = run_hydee_recovery(app, nranks, clusters, plan, proc_ns=50_000, ranks_per_node=2)
    assert slow.rework_ns > fast.rework_ns


def test_grant_window_validation():
    app = ring_app(iters=2)
    clusters = ClusterMap.block(4, 2)
    res = run_spbc(app, 4, clusters, ranks_per_node=2)
    plan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    with pytest.raises(RuntimeError):
        run_hydee_recovery(app, 4, clusters, plan, grant_window=0, ranks_per_node=2)
