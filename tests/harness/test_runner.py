"""Harness runner behaviour: world checks, references, result plumbing."""

import multiprocessing

import pytest

from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.core.protocol import SPBCConfig
from repro.harness.runner import (
    run_app,
    run_emulated_recovery,
    run_failure_schedule,
    run_native,
    run_spbc,
)
from repro.apps.synthetic import ring_app
from repro.sim.network import NetworkParams


def test_run_native_returns_results_and_times():
    res = run_native(ring_app(iters=2, compute_ns=1000), 4, ranks_per_node=2)
    assert set(res.results) == {0, 1, 2, 3}
    assert res.makespan_ns == max(res.finish_ns.values()) > 0
    assert len(res.trace.events) > 0


def test_run_app_propagates_application_errors():
    def bad(ctx, state=None):
        yield from ctx.compute(10)
        raise ValueError("app bug")

    with pytest.raises(RuntimeError, match="app bug"):
        run_app(bad, 2, ranks_per_node=2)


def test_run_app_detects_nonterminating_rank():
    def stuck(ctx, state=None):
        if ctx.rank == 0:
            yield from ctx.recv(src=1)  # never sent
        else:
            yield from ctx.compute(10)

    from repro.sim.engine import DeadlockError

    with pytest.raises(DeadlockError):
        run_app(stuck, 2, ranks_per_node=2)


def test_trace_disabled_mode():
    res = run_native(ring_app(iters=2, compute_ns=1000), 4, ranks_per_node=2, trace=False)
    assert len(res.trace.events) == 0
    assert res.makespan_ns > 0


def test_run_spbc_mismatched_config_rejected():
    from repro.core.protocol import SPBCConfig

    app = ring_app(iters=1)
    cfg = SPBCConfig(clusters=ClusterMap.block(4, 4))
    with pytest.raises(ValueError):
        run_spbc(app, 4, ClusterMap.block(4, 2), config=cfg, ranks_per_node=2)


def test_run_spbc_sharded_mismatched_config_rejected():
    """The check runs before the shard dispatch: a sharded run must not
    silently simulate the config's cluster map instead of the argument."""
    from repro.core.protocol import SPBCConfig

    app = ring_app(iters=1)
    cfg = SPBCConfig(clusters=ClusterMap.block(4, 4))
    with pytest.raises(ValueError, match="disagrees"):
        run_spbc(app, 4, ClusterMap.block(4, 2), config=cfg,
                 ranks_per_node=2, shards=2)


@pytest.mark.parametrize("shards", [None, 2])
def test_run_failure_schedule_mismatched_config_rejected(shards):
    """run_failure_schedule historically skipped the clusters-vs-config
    check entirely; the recovery manager then restarted clusters from a
    map the schedule's targets were never placed on."""
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_failure_schedule

    app = ring_app(iters=1)
    cfg = SPBCConfig(clusters=ClusterMap.block(4, 4))
    with pytest.raises(ValueError, match="disagrees"):
        run_failure_schedule(
            app, 4, ClusterMap.block(4, 2), [(1000, 0, "process")],
            config=cfg, ranks_per_node=2, shards=shards,
        )


# ----------------------------------------------------------------------
# Validation: once, in RunSpec / execute, before anything exists
# ----------------------------------------------------------------------

N = 16
CM = ClusterMap.block(N, 4)

#: name -> (run_failure_schedule overrides, a fragment of the message).
MALFORMED_SPECS = {
    "rank-too-large": (dict(schedule=[(1000, 99, "process")]),
                       "schedule[0]: rank 99"),
    "rank-negative": (dict(schedule=[(1000, 3, "node"), (2000, -1, "node")]),
                      "schedule[1]: rank -1"),
    "negative-instant": (dict(schedule=[(-5, 0, "process")]),
                         "schedule[0]: negative instant -5"),
    "unknown-kind": (dict(schedule=[(1000, 0, "meteor")]),
                     "schedule[0]: unknown failure kind 'meteor' "
                     "(valid kinds: process, node)"),
    "negative-delay": (dict(restart_delay_ns=-1), "restart_delay_ns"),
    "map-for-other-nranks": (dict(clusters=ClusterMap.block(8, 4)),
                             "clusters: the map covers 8 ranks"),
    "config-map-disagrees": (
        dict(config=SPBCConfig(clusters=ClusterMap.block(N, 2))),
        "config.clusters disagrees with the clusters argument",
    ),
    "bogus-storage": (dict(storage="bogus:ram@1"), "bogus"),
    "bogus-ckpt-data": (dict(ckpt_data="incr:x"), "incr:x"),
}


def _run_malformed(over, shards, journal):
    kw = dict(schedule=(), clusters=CM, ranks_per_node=4)
    kw.update(over)
    return run_failure_schedule(
        ring_app(iters=2), N, kw.pop("clusters"), kw.pop("schedule"),
        shards=shards, journal=journal, **kw,
    )


@pytest.mark.parametrize("case", MALFORMED_SPECS)
def test_malformed_spec_fails_fast_and_identically_on_both_engines(
    case, tmp_path
):
    """Every rejection is a ValueError naming the field (and the
    schedule entry), the same from either engine, raised before a
    journal file exists or a worker is forked."""
    over, fragment = MALFORMED_SPECS[case]
    raised = []
    for shards in (None, 2):
        with pytest.raises(ValueError) as e:
            _run_malformed(over, shards, str(tmp_path / "run.journal"))
        raised.append((type(e.value), str(e.value)))
        assert fragment in str(e.value)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1]


@pytest.mark.parametrize(
    "over, fragment",
    [
        (dict(shards=0), "shards"),
        (dict(shards=-3), "shards"),
        (dict(shards=5), "need 1 <= shards <= 4 clusters, got 5"),
        (dict(shards=2, warp=2), "warp and shards are mutually exclusive"),
        (dict(shards=2, net_params=NetworkParams(jitter_max_ns=1_000)),
         "jitter_max_ns=0"),
    ],
)
def test_engine_exclusions_are_rejected_before_the_journal_opens(
    over, fragment, tmp_path
):
    """shards=0 used to run sequentially without a word, and a
    sharded+jitter run was refused only after its header was on disk —
    a header-only file resume() takes for a killed campaign."""
    with pytest.raises(ValueError) as e:
        run_spbc(ring_app(iters=2), N, CM, ranks_per_node=4,
                 journal=str(tmp_path / "run.journal"), **over)
    assert fragment in str(e.value)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_headers_of_both_engines_differ_only_in_recorded_shards(tmp_path):
    """One spec, one header: the failure-free sequential header used to
    record restart_delay_ns 0 where the sharded one recorded the real
    default."""
    from repro.journal import Journal, journaled_app

    headers = []
    for shards in (None, 2):
        path = tmp_path / f"shards-{shards}.journal"
        run_spbc(journaled_app("ring", iters=2), N, CM, ranks_per_node=4,
                 storage="memory", shards=shards, journal=str(path))
        headers.append(Journal.load(path).header)
    seq, sh = headers
    assert (seq["recorded_shards"], sh["recorded_shards"]) == (None, 2)
    differing = {k for k in seq if seq[k] != sh[k]}
    assert differing == {"recorded_shards", "fingerprint"}


def test_run_online_failure_forwards_every_knob(monkeypatch):
    """warp/shards/journal used to be silently dropped on the sugar
    path; assert they, and restart_delay_ns, all reach the schedule
    runner."""
    from repro.harness import runner

    seen = {}

    def fake(app, nranks, clusters, schedule, **kw):
        seen.update(kw, schedule=schedule)
        return "ran"

    monkeypatch.setattr(runner, "run_failure_schedule", fake)
    out = runner.run_online_failure(
        ring_app(iters=1), 4, ClusterMap.block(4, 2), 5_000,
        fail_rank=3, failure_kind="node", restart_delay_ns=77,
        warp=9, shards=2, journal="x.journal", ranks_per_node=2,
    )
    assert out == "ran"
    assert seen["schedule"] == [(5_000, 3, "node")]
    assert seen["restart_delay_ns"] == 77
    assert seen["warp"] == 9
    assert seen["shards"] == 2
    assert seen["journal"] == "x.journal"


def test_run_online_failure_sharded_end_to_end():
    """The forwarded shards= actually engages the sharded engine and
    reproduces the sequential observables."""
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_online_failure

    app = ring_app(iters=6, msg_bytes=1024, compute_ns=100_000)
    clusters = ClusterMap.block(8, 4)

    def go(shards):
        return run_online_failure(
            app, 8, clusters, 1_000_000, fail_rank=1,
            config=SPBCConfig(clusters=clusters, checkpoint_every=2),
            ranks_per_node=2, storage="memory", shards=shards,
        )

    seq, sh = go(None), go(2)
    assert sh.makespan_ns == seq.makespan_ns
    assert sh.results == seq.results


def test_recovery_result_normalization():
    app = ring_app(iters=3, msg_bytes=256, compute_ns=10_000)
    clusters = ClusterMap.block(4, 2)
    res = run_spbc(app, 4, clusters, ranks_per_node=2)
    plan = ReplayPlan.from_run(res.hooks, res.makespan_ns)
    rec = run_emulated_recovery(app, 4, clusters, plan, reference_ns=1000, ranks_per_node=2)
    assert rec.normalized == rec.rework_ns / 1000
    rec2 = run_emulated_recovery(app, 4, clusters, plan, ranks_per_node=2)
    assert rec2.reference_ns == res.makespan_ns


def test_determinism_same_seed_same_makespan():
    app = ring_app(iters=3, msg_bytes=512, compute_ns=5_000)
    a = run_native(app, 6, ranks_per_node=3, seed=5)
    b = run_native(app, 6, ranks_per_node=3, seed=5)
    assert a.makespan_ns == b.makespan_ns
    assert a.results == b.results


def test_plan_derivation_with_cluster_override():
    """One singleton-cluster logging run serves any cluster map."""
    app = ring_app(iters=3, msg_bytes=256, compute_ns=10_000)
    n = 8
    full = run_spbc(app, n, ClusterMap.singletons(n), ranks_per_node=2)
    for k in (2, 4):
        cm = ClusterMap.block(n, k)
        plan = ReplayPlan.from_run(full.hooks, full.makespan_ns, clusters=cm)
        # direct phase-1 with that map must agree on the record set
        direct = run_spbc(app, n, cm, ranks_per_node=2)
        dplan = ReplayPlan.from_run(direct.hooks, direct.makespan_ns)
        keys = {
            (s, r.dst, r.comm_id, r.seqnum)
            for s, recs in plan.records_by_sender.items()
            for r in recs
        }
        dkeys = {
            (s, r.dst, r.comm_id, r.seqnum)
            for s, recs in dplan.records_by_sender.items()
            for r in recs
        }
        assert keys == dkeys
