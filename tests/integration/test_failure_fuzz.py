"""Randomized failure-injection stress harness.

Seeded random schedules of process and node failures, across storage
backends, must always satisfy three invariants:

1. **Convergence** — every rank finishes with exactly the failure-free
   reference results (determinism: SPBC recovery reproduces the same
   execution the paper's Theorem 1 promises);
2. **Containment** — only clusters touched by a blast radius restart;
3. **No time travel** — a cluster never restarts from a round whose
   checkpoint was lost: every restart round had a surviving copy at
   restart time (``restored_tier`` set whenever the round is > 0), and
   never exceeds the rounds actually committed before the crash.

The schedules are generated from explicit integer seeds (not hypothesis)
so a failing schedule is directly reproducible from the test id.

The acceptance pair for the partner-copy tier rides on top: under the
same single-node-failure schedule, the plan with a buddy-node mirror
restarts from the latest committed round while the plan without one
falls back to the last durable (PFS) round.
"""

import random

import pytest

from repro.ckptdata.plane import CkptDataPlane
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule, run_native, run_spbc
from repro.apps.synthetic import halo2d_app, ring_app

NRANKS = 8
RPN = 2  # 4 nodes; ClusterMap.block(8, 4) keeps node == cluster

BACKENDS = [
    "memory",
    "tiered:ram@1,pfs@2",
    "partner:ram@1,partner@1,pfs@4",
]

_REF_CACHE = {}


def reference(key, factory):
    if key not in _REF_CACHE:
        _REF_CACHE[key] = run_native(factory, NRANKS, ranks_per_node=RPN)
    return _REF_CACHE[key]


def app():
    return ring_app(iters=8, msg_bytes=2048, compute_ns=200_000)


def random_schedule(seed, makespan_ns, max_failures=3):
    """A reproducible failure schedule inside the reference makespan."""
    rng = random.Random(seed)
    n = rng.randint(1, max_failures)
    times = sorted(
        rng.randint(1, int(makespan_ns * 0.95)) for _ in range(n)
    )
    return [
        (t, rng.randrange(NRANKS), rng.choice(("process", "node")))
        for t in times
    ]


def assert_no_time_travel(out, schedule):
    """A restart must come from a checkpoint that still existed."""
    backend = out.world.hooks.storage
    for ev in out.manager.failures:
        if ev.superseded:
            continue  # this restart never ran; a later crash replaced it
        rnd = ev.restarted_from_round
        assert rnd >= 0
        if rnd > 0:
            # The round was really committed by every member before this
            # restart could use it...
            for r in out.world.hooks.clusters.members(ev.cluster):
                assert rnd in backend.rounds_of(r), (
                    f"cluster {ev.cluster} restarted from round {rnd} "
                    f"which rank {r} never saved"
                )
            # ...and the copy read back was a surviving one.
            assert ev.restored_tier is not None, (
                f"cluster {ev.cluster} claims round {rnd} without a "
                "surviving copy to read it from"
            )


def run_fuzz(seed, spec, factory, k=4, checkpoint_every=2, ckpt_data=None):
    ref = reference(("ring", NRANKS), factory)
    schedule = random_schedule(seed, ref.makespan_ns)
    clusters = ClusterMap.block(NRANKS, k)
    out = run_failure_schedule(
        factory,
        NRANKS,
        clusters,
        schedule,
        config=SPBCConfig(clusters=clusters, checkpoint_every=checkpoint_every),
        ranks_per_node=RPN,
        storage=spec,
        ckpt_data=ckpt_data,
        profile=TEST_PROFILE if ckpt_data is not None else None,
    )
    assert out.results == ref.results, (
        f"seed {seed} spec {spec}: recovery diverged under {schedule}"
    )
    # Containment: every restarted rank belongs to a failed cluster.
    failed_clusters = {ev.cluster for ev in out.manager.failures}
    for r in out.restarted_ranks:
        assert clusters.cluster(r) in failed_clusters
    assert_no_time_travel(out, schedule)
    return out


@pytest.mark.parametrize("spec", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_random_schedules_converge(seed, spec):
    """PR-gate slice: a few seeds per backend."""
    run_fuzz(seed, spec, app())


@pytest.mark.slow
@pytest.mark.parametrize("spec", BACKENDS)
@pytest.mark.parametrize("seed", range(10, 30))
def test_fuzz_random_schedules_converge_deep(seed, spec):
    """Nightly slice: twenty more seeds per backend."""
    run_fuzz(seed, spec, app())


#: Async-flush variants: the PFS copy drains in the background on the
#: event-driven I/O scheduler, commits happen on the local tiers, and
#: restart reads run as overlapping flows.  The same invariants must
#: hold — in particular no time travel: a crash mid-flush must restart
#: from the last fully drained round, never the in-flight one.
ASYNC_BACKENDS = [
    "tiered:ram@1,pfs@2:async",
    "partner:ram@1,partner@1,pfs@4:async",
    # The SSD drains in the background too (background_drain): a crash
    # can land between the RAM commit and the SSD/PFS copies.
    "tiered:ram@1,ssd@2,pfs@4:async",
]


@pytest.mark.parametrize("spec", ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_async_flush_schedules_converge(seed, spec):
    """PR-gate slice: random failures against the async flush path."""
    run_fuzz(seed, spec, app())


@pytest.mark.slow
@pytest.mark.parametrize("spec", ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", range(10, 30))
def test_fuzz_async_flush_schedules_converge_deep(seed, spec):
    """Nightly slice: twenty more seeds per async backend."""
    run_fuzz(seed, spec, app())


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10, 20))
def test_fuzz_async_flush_with_delta_chains_deep(seed):
    """Nightly slice: background flushes + chain-aware restarts + the
    decompression stage, under the same random schedules."""
    run_fuzz(
        seed, "tiered:ram@1,pfs@2:async", app(), ckpt_data="incr:3:zlib-like"
    )


#: The incremental-vs-full acceptance pair: the same random schedules
#: must satisfy the same invariants whether each round writes an opaque
#: full blob or a compressed delta chain.
DATA_PLANES = ["full", "incr:3:zlib-like"]


@pytest.mark.parametrize("ckpt_data", DATA_PLANES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_data_plane_modes_converge(seed, ckpt_data):
    """PR-gate slice: chain-aware restarts reproduce the failure-free
    final state under random failures, in both data-plane modes."""
    run_fuzz(seed, "tiered:ram@1,pfs@2", app(), ckpt_data=ckpt_data)


@pytest.mark.slow
@pytest.mark.parametrize("ckpt_data", DATA_PLANES)
@pytest.mark.parametrize("seed", range(10, 20))
def test_fuzz_data_plane_modes_converge_deep(seed, ckpt_data):
    """Nightly slice: ten more seeds per data-plane mode, including the
    partner-copy backend."""
    run_fuzz(seed, "partner:ram@1,partner@1,pfs@4", app(), ckpt_data=ckpt_data)


# ----------------------------------------------------------------------
# Warp acceptance pair: same seeds, --warp on/off, identical outcomes.
# Pending failure events veto the steady-state detector, so warp can at
# most engage in the post-recovery failure-free tail — and whether it
# does or not, simulated time, results, and the Table 1 log counters
# must match exact mode bit for bit.
# ----------------------------------------------------------------------

WARP_FUZZ_ITERS = 24


def _warp_pair(seed, spec, schedule_from=None, iters=WARP_FUZZ_ITERS,
               checkpoint_every=2):
    factory = ring_app(iters=iters, msg_bytes=2048, compute_ns=200_000)
    clusters = ClusterMap.block(NRANKS, 4)

    def run(warp):
        return run_failure_schedule(
            factory,
            NRANKS,
            clusters,
            schedule_from or [],
            config=SPBCConfig(
                clusters=clusters, checkpoint_every=checkpoint_every
            ),
            ranks_per_node=RPN,
            storage=spec,
            warp=iters if warp else None,
        )

    exact, warped = run(False), run(True)
    assert warped.makespan_ns == exact.makespan_ns, (seed, spec)
    assert warped.results == exact.results, (seed, spec)
    eh, wh = exact.world.hooks, warped.world.hooks
    assert wh.total_bytes_logged() == eh.total_bytes_logged(), (seed, spec)
    assert wh.log_growth_rates_mb_s(
        warped.makespan_ns
    ) == eh.log_growth_rates_mb_s(exact.makespan_ns), (seed, spec)
    return warped


@pytest.mark.slow
@pytest.mark.parametrize("spec", BACKENDS)
@pytest.mark.parametrize("seed", range(10, 16))
def test_fuzz_warp_acceptance_pair_with_failures(seed, spec):
    """Nightly: randomized failure schedules with --warp on/off must be
    indistinguishable (the detector stays conservative around crashes)."""
    factory = ring_app(iters=WARP_FUZZ_ITERS, msg_bytes=2048,
                       compute_ns=200_000)
    ref = run_native(factory, NRANKS, ranks_per_node=RPN)
    schedule = random_schedule(seed, ref.makespan_ns)
    _warp_pair(seed, spec, schedule_from=schedule)


def test_fuzz_warp_acceptance_pair_failure_free():
    """PR gate: on a failure-free schedule (no checkpoint rounds to
    interrupt the steady window) warp genuinely engages and still
    reproduces exact mode's time and counters."""
    out = _warp_pair(0, "memory", iters=40, checkpoint_every=None)
    assert out.world.warp.warped_iterations > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_fuzz_halo_app_with_auto_interval(seed):
    """Random node failures while the Young/Daly controller is driving
    the cadence: recovery and the cadence recalibration must compose."""
    factory = halo2d_app(iters=6, msg_bytes=2048, compute_ns=150_000)
    ref = reference(("halo", NRANKS), factory)
    schedule = random_schedule(seed, ref.makespan_ns, max_failures=2)
    clusters = ClusterMap.block(NRANKS, 4)
    out = run_failure_schedule(
        factory,
        NRANKS,
        clusters,
        schedule,
        config=SPBCConfig(
            clusters=clusters,
            checkpoint_every="auto",
            mtbf_ns=int(5e6),  # tiny MTBF -> frequent checkpoints
        ),
        ranks_per_node=RPN,
        storage="tiered:ram@1,pfs@2",
    )
    assert out.results == ref.results
    assert_no_time_travel(out, schedule)


# ----------------------------------------------------------------------
# Wrapped schedules: twelve crashes round eight clusters, so four
# clusters fail a second time during or after their own recovery — the
# path SPBC is about.  PR 11 found that some victim orders (seeds 21,
# 29, 39) ended in DeadlockError with trace=False and never with
# trace=True; the cause was a lost send-completion wake-up
# (docs/failure_model.md, "The lost wake-up").
# ----------------------------------------------------------------------

WRAP_NRANKS, WRAP_K, WRAP_CRASHES = 64, 8, 12
_WRAP_REF = {}


def _wrap_app():
    return halo2d_app(iters=24, msg_bytes=8192, compute_ns=400_000)


def _wrapped_run(schedule, trace):
    """The e2e ``failure_recovery`` configuration at 64 ranks;
    ``schedule=None`` is its failure-free run."""
    factory = _wrap_app()
    cm = ClusterMap.block(WRAP_NRANKS, WRAP_K)
    kw = dict(
        config=SPBCConfig(clusters=cm, checkpoint_every=2),
        storage="partner:ram@1,partner@1,pfs@4:async",
        ckpt_data="incr:4:zlib-like", trace=trace,
    )
    if schedule is None:
        return run_spbc(factory, WRAP_NRANKS, cm, **kw)
    return run_failure_schedule(factory, WRAP_NRANKS, cm, schedule, **kw)


def wrapped_schedule(seed):
    """The e2e benchmark's crash lattice (one crash at 3 % of the
    protected failure-free makespan, the rest spread over 15-95 %, kinds
    alternating from node) with the victim order wrapped round the
    clusters instead of hitting each at most once."""
    if not _WRAP_REF:
        _WRAP_REF["results"] = run_native(
            _wrap_app(), WRAP_NRANKS, trace=False
        ).results
        _WRAP_REF["makespan"] = _wrapped_run(None, False).makespan_ns
    cm = ClusterMap.block(WRAP_NRANKS, WRAP_K)
    rng = random.Random(seed)
    order = rng.sample(range(WRAP_K), WRAP_K)
    victims = (order * 2)[:WRAP_CRASHES]
    step = 0.8 / (WRAP_CRASHES - 1)
    fractions = [0.03] + [0.15 + (i + 0.5) * step for i in range(WRAP_CRASHES - 1)]
    return [
        (
            int(frac * _WRAP_REF["makespan"]),
            rng.choice(cm.members(victim)),
            ("node", "process")[i % 2],
        )
        for i, (frac, victim) in enumerate(zip(fractions, victims))
    ]


def run_wrapped(seed, trace):
    schedule = wrapped_schedule(seed)
    out = _wrapped_run(schedule, trace)
    assert out.results == _WRAP_REF["results"], (
        f"seed {seed} trace={trace}: recovery diverged under {schedule}"
    )
    assert_no_time_travel(out, schedule)
    return out


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("seed", [21, 29, 39])
def test_fuzz_wrapped_schedule_known_deadlock_seeds(seed, trace):
    """PR-gate slice: the three victim orders that used to deadlock."""
    run_wrapped(seed, trace)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40))
def test_fuzz_wrapped_schedule_deep(seed):
    """Nightly slice: forty victim orders, traced and untraced — native
    results both ways, and the same run both ways."""
    traced, untraced = run_wrapped(seed, True), run_wrapped(seed, False)
    assert traced.makespan_ns == untraced.makespan_ns
    assert (
        traced.world.engine.events_executed
        == untraced.world.engine.events_executed
    )


# ----------------------------------------------------------------------
# Journal round-trip property: every fuzzed schedule must (1) record,
# (2) strict-replay clean — the re-execution reproduces the recorded
# event stream and observables bit for bit — and (3) resume after a
# mid-run kill to the same final observables as the uninterrupted run.
# ----------------------------------------------------------------------


def _journal_app():
    from repro.journal.recorder import journaled_app

    return journaled_app(
        "ring", iters=8, msg_bytes=2048, compute_ns=200_000
    )


def run_fuzz_journal_roundtrip(seed, spec, tmp_path, shards=None):
    from repro.journal import Journal, replay_strict, resume
    from repro.journal.recorder import JournalWriter

    factory = _journal_app()
    ref = reference(("ring", NRANKS), app())
    schedule = random_schedule(seed, ref.makespan_ns)
    clusters = ClusterMap.block(NRANKS, 4)

    def go(journal):
        return run_failure_schedule(
            factory,
            NRANKS,
            clusters,
            schedule,
            config=SPBCConfig(clusters=clusters, checkpoint_every=2),
            ranks_per_node=RPN,
            storage=spec,
            journal=journal,
            shards=shards,
        )

    # record + strict replay
    path = tmp_path / f"fuzz-{seed}.journal"
    out = go(str(path))
    assert out.results == ref.results
    journal = Journal.load(path)
    assert journal.complete
    res = replay_strict(str(path), shards=shards)
    assert res.makespan_ns == out.makespan_ns
    assert res.results == out.results

    # kill mid-run (torn tail), then resume: same final observables
    kill_at = max(1, journal.last_lsn // 2)
    torn_path = tmp_path / f"fuzz-{seed}-torn.journal"
    go(JournalWriter(str(torn_path), crash_at_lsn=kill_at))
    assert Journal.load(torn_path).torn_tail
    resumed = resume(str(torn_path), shards=shards)
    assert resumed.resimulated
    assert resumed.makespan_ns == out.makespan_ns
    assert resumed.results == out.results
    healed = Journal.load(torn_path)
    assert healed.complete
    assert len(healed.events) == len(journal.events)


@pytest.mark.parametrize("spec", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_journal_roundtrip(seed, spec, tmp_path):
    """PR-gate slice: record / strict-replay / kill-and-resume."""
    run_fuzz_journal_roundtrip(seed, spec, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("spec", BACKENDS + ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", range(10, 20))
def test_fuzz_journal_roundtrip_deep(seed, spec, tmp_path):
    """Nightly slice: ten more seeds per backend, async flush included."""
    run_fuzz_journal_roundtrip(seed, spec, tmp_path)


@pytest.mark.parametrize("spec", ASYNC_BACKENDS[:2])
@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_journal_roundtrip_sharded_async(seed, spec, tmp_path):
    """PR-gate slice: the same record / strict-replay / kill-and-resume
    property on the sharded engine with async-flush storage — the
    mirrored-flow protocol must survive the journal round trip."""
    run_fuzz_journal_roundtrip(seed, spec, tmp_path, shards=2)


@pytest.mark.slow
@pytest.mark.parametrize("spec", BACKENDS + ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", range(10, 20))
def test_fuzz_journal_roundtrip_sharded_deep(seed, spec, tmp_path):
    """Nightly slice: every backend recorded, replayed, and resumed on
    the sharded engine."""
    run_fuzz_journal_roundtrip(seed, spec, tmp_path, shards=4)


# ----------------------------------------------------------------------
# The acceptance pair: partner copy vs no partner copy, same schedule
# ----------------------------------------------------------------------

def _single_node_failure_outcome(spec):
    factory = app()
    ref = reference(("ring", NRANKS), factory)
    clusters = ClusterMap.block(NRANKS, 4)
    # Probe run to find a failure instant with >= 2 committed rounds,
    # strictly after the latest round's commit finished.
    probe = run_failure_schedule(
        factory, NRANKS, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec,
    )
    backend = probe.world.hooks.storage
    rounds = backend.rounds_of(0)
    assert len(rounds) >= 2
    target = rounds[-1]
    ckpt = backend.retrieve(0, target).ckpt
    fail_at = ckpt.taken_at_ns + backend.write_cost_ns(
        ckpt, concurrent_writers=NRANKS
    ) + 200_000
    out = run_failure_schedule(
        factory, NRANKS, clusters, [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    assert_no_time_travel(out, [(fail_at, 0, "node")])
    return target, out.manager.failures[0]


def test_partner_copy_survives_single_node_loss():
    """With the buddy-node mirror, a node failure restarts from the
    latest committed round; the identical schedule without it falls back
    to the last durable (PFS) round."""
    latest, ev = _single_node_failure_outcome("partner:ram@1,partner@1,pfs@3")
    assert ev.kind == "node"
    assert ev.restarted_from_round == latest
    assert ev.restored_tier == "partner"

    latest2, ev2 = _single_node_failure_outcome("tiered:ram@1,pfs@3")
    assert latest2 == latest  # same deterministic probe timeline
    assert ev2.restarted_from_round < latest2
    assert ev2.restored_tier in ("pfs", None)


def test_double_node_failure_kills_partner_copies():
    """Partner copies are invalidated only when both partners' nodes are
    gone: after the buddy node also dies, the restart falls back to the
    last durable *round* — and recovery still converges.  (The copy may
    be read from a partner mirror again: the buddy's restart triggers
    the SCR-style rebuild, which re-replicates the latest restorable —
    here PFS-only — round back into the returned node's RAM.)"""
    factory = app()
    ref = reference(("ring", NRANKS), factory)
    clusters = ClusterMap.block(NRANKS, 4)
    spec = "partner:ram@1,partner@1,pfs@3"
    probe = run_failure_schedule(
        factory, NRANKS, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec,
    )
    backend = probe.world.hooks.storage
    rounds = backend.rounds_of(0)
    target = rounds[-1]
    ckpt = backend.retrieve(0, target).ckpt
    t0 = ckpt.taken_at_ns + backend.write_cost_ns(
        ckpt, concurrent_writers=NRANKS
    ) + 100_000
    # Node 1 hosts rank 0's partner copies (buddy of node 0).  Kill it
    # first, then node 0 shortly after: rank 0's ram AND partner copies
    # of the latest round are both gone.
    out = run_failure_schedule(
        factory, NRANKS, clusters,
        [(t0, 2, "node"), (t0 + 50_000, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec,
    )
    assert out.results == ref.results
    second = [ev for ev in out.manager.failures if ev.rank == 0][-1]
    assert second.restarted_from_round < target
    # The durable (PFS) round is what bounds the rollback; the partner
    # rebuild may have re-mirrored that round to the returned buddy, in
    # which case the read comes from the (faster) rebuilt copy.
    assert second.restored_tier in ("pfs", "partner", None)


# ----------------------------------------------------------------------
# Chain invalidation end to end: a lost delta base forces fallback to
# the last *full* round, and recovery still converges
# ----------------------------------------------------------------------

def _incr_plane(full_period=3, full_on_durable=False):
    # full_on_durable=False deliberately lets deltas land on the PFS, so
    # a node loss can strand a durable delta whose base was volatile.
    return CkptDataPlane(
        full_period=full_period,
        profile=TEST_PROFILE,
        full_on_durable=full_on_durable,
    )


def _commit_time(backend, rank, rnd, nranks):
    ckpt = backend.retrieve(rank, rnd).ckpt
    compress = ckpt.payload.compress_ns if ckpt.payload is not None else 0
    return ckpt.taken_at_ns + compress + backend.write_cost_ns(
        ckpt, concurrent_writers=nranks
    )


def test_lost_delta_base_falls_back_to_last_full_round():
    """Plan ram@1,pfs@2 with fulls every 3rd round and deltas allowed on
    the PFS: rounds 1,4 are full, the rest deltas.  A node failure after
    round 5 wipes the victims' RAM copies; of their surviving PFS copies
    (rounds 2 and 4), the round-2 delta's base died with the node — the
    cluster must fall back to round 4, the last full."""
    factory = ring_app(iters=12, msg_bytes=2048, compute_ns=200_000)
    ref = reference(("ring12", NRANKS), factory)
    clusters = ClusterMap.block(NRANKS, 4)
    spec = "tiered:ram@1,pfs@2"
    probe = run_failure_schedule(
        factory, NRANKS, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec, ckpt_data=_incr_plane(),
    )
    backend = probe.world.hooks.storage
    assert backend.rounds_of(0) == [1, 2, 3, 4, 5, 6]
    # payload kinds on the shared plan: 1,4 full; 2,3,5,6 delta
    kinds = {
        rnd: backend.retrieve(0, rnd).ckpt.payload.kind
        for rnd in backend.rounds_of(0)
    }
    assert kinds == {1: "full", 2: "delta", 3: "delta",
                     4: "full", 5: "delta", 6: "delta"}
    # Fail the node right after every member of cluster 0 committed
    # round 5 (a ram-only delta).
    members = clusters.members(0)
    fail_at = max(
        _commit_time(backend, r, 5, NRANKS) for r in members
    ) + 50_000
    out = run_failure_schedule(
        factory, NRANKS, clusters, [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec, ckpt_data=_incr_plane(),
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    assert ev.kind == "node"
    # Not round 5 (ram died), not the PFS round 2 (delta, base lost):
    # the last full round on the PFS.
    assert ev.restarted_from_round == 4
    assert ev.restored_tier == "pfs"
    assert_no_time_travel(out, [(fail_at, 0, "node")])


def test_full_on_durable_restores_the_latest_pfs_round():
    """The same schedule with the default full-on-durable policy: PFS
    rounds are self-contained fulls, so the cluster restarts from the
    newest PFS round instead of an older full."""
    factory = ring_app(iters=12, msg_bytes=2048, compute_ns=200_000)
    ref = reference(("ring12", NRANKS), factory)
    clusters = ClusterMap.block(NRANKS, 4)
    spec = "tiered:ram@1,pfs@2"
    plane = lambda: _incr_plane(full_period=3, full_on_durable=True)
    probe = run_failure_schedule(
        factory, NRANKS, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec, ckpt_data=plane(),
    )
    backend = probe.world.hooks.storage
    members = clusters.members(0)
    fail_at = max(
        _commit_time(backend, r, 5, NRANKS) for r in members
    ) + 50_000
    out = run_failure_schedule(
        factory, NRANKS, clusters, [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=spec, ckpt_data=plane(),
    )
    assert out.results == ref.results
    ev = out.manager.failures[0]
    # Round 4 was a full *on the PFS*: restorable despite the node loss.
    assert ev.restarted_from_round == 4
    assert ev.restored_tier == "pfs"


# ----------------------------------------------------------------------
# Partner rebuild: tolerance to *sequential* buddy failures.  After the
# buddy node returns, its hosted partner copies are re-replicated as
# background flows — so a later failure of the owners' node restarts
# from the latest round again.  Before the buddy returns there is no
# partner mirror to restart from, and the owners' node failing then
# falls back to the last PFS round.
# ----------------------------------------------------------------------

REBUILD_PLAN = "ram@1,partner@1,pfs@4"
REBUILD_MS = 2_000_000  # restart delay (the node "returns" here)


def _rebuild_app():
    # Slow iterations: the sequential failure must land after the
    # buddy's restart + rebuild but *before* the owners' next commit
    # re-mirrors on its own.
    return ring_app(iters=12, msg_bytes=2048, compute_ns=2_000_000)


def _sequential_buddy_failure(after_rebuild):
    from repro.storage.backend import TieredBackend, parse_plan

    factory = _rebuild_app()
    ref = reference(("ring-slow", NRANKS), factory)
    clusters = ClusterMap.block(NRANKS, 4)

    def backend():
        return TieredBackend(parse_plan(REBUILD_PLAN))

    probe = run_failure_schedule(
        factory, NRANKS, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=backend(),
    )
    b = probe.world.hooks.storage
    rounds = b.rounds_of(0)
    assert rounds == [1, 2, 3, 4, 5, 6]
    target = 5  # latest round committed before t0; NOT a PFS round
    last_pfs = 4
    commit = max(
        b.retrieve(r, target).ckpt.taken_at_ns
        + b.write_cost_ns(b.retrieve(r, target).ckpt, concurrent_writers=NRANKS)
        for r in clusters.members(0)
    )
    t0 = commit + 100_000  # node 1 (the buddy hosting rank 0's mirrors) dies
    if after_rebuild:
        t1 = t0 + REBUILD_MS + 800_000  # after restart + rebuild flows land
    else:
        t1 = t0 + REBUILD_MS // 2  # the buddy has not returned yet
    # ...but before cluster 0's next commit would re-mirror by itself.
    next_commit = min(
        b.retrieve(r, target + 1).ckpt.taken_at_ns
        for r in clusters.members(0)
    )
    assert t1 < next_commit, "recalibrate: rebuild window closed"
    out = run_failure_schedule(
        factory, NRANKS, clusters,
        [(t0, 2, "node"), (t1, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=RPN, storage=backend(),
    )
    assert out.results == ref.results
    assert_no_time_travel(out, [(t0, 2, "node"), (t1, 0, "node")])
    first = [ev for ev in out.manager.failures if ev.cluster == 1][0]
    second = [ev for ev in out.manager.failures if ev.cluster == 0][-1]
    return target, last_pfs, first, second


def test_partner_rebuild_survives_sequential_buddy_failures():
    target, _pfs, first, second = _sequential_buddy_failure(True)
    assert first.partner_rebuilds >= 1  # the returned node was re-seeded
    assert second.restarted_from_round == target
    assert second.restored_tier == "partner"


def test_buddy_failure_before_the_rebuild_loses_the_round():
    target, last_pfs, first, second = _sequential_buddy_failure(False)
    assert second.restarted_from_round == last_pfs < target
    # The owners' node was down when the buddy returned: no mirror was
    # copied out of it, so the round comes back from the PFS.
    assert first.partner_rebuilds == 0
    assert second.restored_tier == "pfs"
