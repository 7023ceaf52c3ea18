"""SPBC failure-free behaviour: logging, identifiers, overhead, pattern API."""

import pytest

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBC, SPBCConfig, LogCostModel
from repro.harness.runner import run_native, run_spbc
from repro.apps.synthetic import probe_reply_app, ring_app
from repro.apps.base import get_app


def test_only_intercluster_messages_logged():
    app = ring_app(iters=4, msg_bytes=1000, compute_ns=10_000)
    clusters = ClusterMap.block(8, 2)
    res = run_spbc(app, 8, clusters, ranks_per_node=4)
    spbc = res.hooks
    # ring: only channels 3->4 and 7->0 cross the two block clusters
    for rank, st in spbc.state.items():
        if rank in (3, 7):
            assert st.log.records_logged == 4
        else:
            assert st.log.records_logged == 0


def test_pure_logging_logs_everything():
    app = ring_app(iters=3, msg_bytes=500, compute_ns=10_000)
    res = run_spbc(app, 6, ClusterMap.singletons(6), ranks_per_node=2)
    spbc = res.hooks
    for rank, st in spbc.state.items():
        assert st.log.records_logged == 3  # every send crosses clusters


def test_single_cluster_logs_nothing():
    app = ring_app(iters=3, msg_bytes=500, compute_ns=10_000)
    res = run_spbc(app, 6, ClusterMap.single(6), ranks_per_node=2)
    assert res.hooks.total_bytes_logged() == 0


def test_logged_bytes_match_intercluster_traffic():
    app = ring_app(iters=5, msg_bytes=777, compute_ns=5_000)
    clusters = ClusterMap.block(8, 4)
    res = run_spbc(app, 8, clusters, ranks_per_node=2)
    spbc = res.hooks
    expected = 0
    for e in res.trace.sends():
        src, dst, _cid = e.channel
        if clusters.is_intercluster(src, dst):
            expected += e.nbytes
    assert spbc.total_bytes_logged() == expected


def test_spbc_preserves_application_results():
    app = ring_app(iters=6, msg_bytes=2048, compute_ns=20_000, allreduce_every=2)
    native = run_native(app, 8, ranks_per_node=4)
    spbc = run_spbc(app, 8, ClusterMap.block(8, 2), ranks_per_node=4)
    assert native.results == spbc.results


def test_overhead_small_but_positive():
    app = get_app("minighost").factory(iters=2, nvars=6, compute_ns_per_var=2_000_000)
    native = run_native(app, 16, ranks_per_node=4)
    spbc = run_spbc(app, 16, ClusterMap.block(16, 4), ranks_per_node=4)
    overhead = (spbc.makespan_ns - native.makespan_ns) / native.makespan_ns
    assert 0.0 <= overhead < 0.05  # paper Table 2: at most ~1%


def test_more_clusters_more_logging():
    app = get_app("halo2d").factory(iters=4, msg_bytes=4096, compute_ns=50_000)
    logged = []
    for k in (1, 2, 4, 8, 16):
        res = run_spbc(app, 16, ClusterMap.block(16, k), ranks_per_node=1)
        logged.append(res.hooks.total_bytes_logged())
    assert logged == sorted(logged)
    assert logged[0] == 0 and logged[-1] > 0


def test_idents_stamped_on_messages_inside_pattern():
    app = probe_reply_app(iters=2, use_pattern_api=True)
    res = run_spbc(app, 6, ClusterMap.block(6, 2), ranks_per_node=3)
    idents = {e.ident for e in res.trace.sends() if e.tag in (1, 2)}
    # request/reply messages carry (pattern, iteration) != default
    assert idents and all(i != (0, 0) for i in idents)
    assert {i[1] for i in idents} == {1, 2}  # two iterations


def test_ident_matching_disabled_uses_default():
    cfg = SPBCConfig(clusters=ClusterMap.block(6, 2), ident_matching=False)
    app = probe_reply_app(iters=1, use_pattern_api=True)
    res = run_spbc(app, 6, ClusterMap.block(6, 2), config=cfg, ranks_per_node=3)
    assert all(e.ident == (0, 0) for e in res.trace.sends())


def _probe_across_iterations(ctx, state=None):
    """Rank 0 sends in iteration 2 of a pattern; rank 1 probes for it
    from iteration 1, then from iteration 2, then receives it."""
    pattern = ctx.declare_pattern()
    if ctx.rank == 0:
        for it in (1, 2):
            ctx.begin_iteration(pattern)
            if it == 2:
                yield from ctx.send(1, "x", nbytes=64, tag=7)
            ctx.end_iteration(pattern)
        return None
    yield from ctx.compute(1_000_000)  # the message has long arrived
    seen = []
    for it in (1, 2):
        ctx.begin_iteration(pattern)
        seen.append(ctx.iprobe(src=0, tag=7)[0])
        if it == 2:
            yield from ctx.recv(0, tag=7)
        ctx.end_iteration(pattern)
    return seen


@pytest.mark.parametrize("ident_matching,seen", [
    (True, [False, True]),  # another iteration's message is invisible
    (False, [True, True]),  # stock matching sees it at once
])
def test_iprobe_respects_pattern_iteration(ident_matching, seen):
    clusters = ClusterMap.singletons(2)
    cfg = SPBCConfig(clusters=clusters, ident_matching=ident_matching)
    res = run_spbc(
        _probe_across_iterations, 2, clusters, config=cfg, ranks_per_node=2
    )
    assert res.results[1] == seen


def test_seqnums_per_channel_monotone_gapless():
    app = get_app("milc").factory(iters=2, compute_ns=10_000)
    res = run_spbc(app, 8, ClusterMap.block(8, 2), ranks_per_node=4)
    for chan, seq in res.trace.per_channel_send_sequences().items():
        nums = [s for s, _t, _b in seq]
        assert nums == list(range(1, len(nums) + 1)), chan


def test_cost_model_values():
    cost = LogCostModel(log_fixed_ns=100, log_ns_per_byte=0.5, ident_fixed_ns=10)
    assert cost.send_cost_ns(True, 1000) == 600
    assert cost.send_cost_ns(False, 1000) == 10


def test_cluster_map_size_mismatch_rejected():
    app = ring_app(iters=1)
    with pytest.raises(ValueError):
        run_spbc(app, 8, ClusterMap.block(4, 2), ranks_per_node=4)


def test_lr_tracks_deliveries():
    app = ring_app(iters=5, msg_bytes=100, compute_ns=1_000)
    clusters = ClusterMap.block(4, 2)
    res = run_spbc(app, 4, clusters, ranks_per_node=2)
    spbc = res.hooks
    wcid = res.world.comm_world.comm_id
    # rank 2 receives 5 inter-cluster messages from rank 1
    assert spbc.state[2].lr[(wcid, 1)] == 5
    # and intra-cluster channels are not tracked in lr
    assert (wcid, 3) not in spbc.state[2].lr


def test_pattern_api_misuse_detected():
    from repro.harness.runner import run_app

    def bad(ctx, state=None):
        ctx.begin_iteration(99)  # never declared
        yield from ctx.compute(0)

    with pytest.raises(RuntimeError, match="never declared"):
        run_app(bad, 2, ranks_per_node=2)


def test_end_iteration_wrong_pattern_detected():
    from repro.harness.runner import run_app

    def bad(ctx, state=None):
        a = ctx.declare_pattern()
        b = ctx.declare_pattern()
        ctx.begin_iteration(a)
        ctx.end_iteration(b)
        yield from ctx.compute(0)

    with pytest.raises(RuntimeError, match="active pattern"):
        run_app(bad, 2, ranks_per_node=2)
