"""Staggered restarts: spreading a multi-cluster rollback's read burst.

When one node failure rolls back several clusters at once, every member
opens its restore pipeline against the shared tier simultaneously and
the PFS read lane melts.  ``restart_stagger_ns`` offsets the i-th
affected cluster's restart by ``i * stagger``, so the *measured* read
flow timeline (``shared_read_flow_windows``) shows fewer concurrent
readers — the restart-side analogue of ``pfs_stagger_ns`` on the write
side.

Every test runs traced and untraced.  The staggered, untraced run is the
smallest known reproducer of the lost wake-up behind ROADMAP item 1's
``DeadlockError`` (docs/failure_model.md, "The lost wake-up"): rank 1's
restarted incarnation blocks in ``sendrecv`` on a send that is still
deferred (``LS`` unknown), and the late ``release_deferred`` used to
park the completion where nobody looked again.
"""

import pytest

from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule, run_native, run_spbc
from repro.util.units import MB, MS

NRANKS = 8
RPN = 4  # node 0 hosts ranks 0-3 = clusters {0, 1} under block(8, 4)
K = 4  # four 2-rank clusters: {0,1},{2,3},{4,5},{6,7}

STATE = 4 * MB
PLAN = "tiered:ram@1,pfs@2:async"


def app(iters=10):
    return ring_app(iters=iters, msg_bytes=2048, compute_ns=2 * MS)


def _config():
    cm = ClusterMap.block(NRANKS, K)
    return cm, SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=STATE)


def _fail_after_round2_drain():
    """A node-failure instant at which every rank's round-2 PFS copy has
    fully drained (measured from a probe run's flow windows)."""
    cm, cfg = _config()
    probe = run_spbc(app(), NRANKS, cm, config=cfg, storage=PLAN,
                     ranks_per_node=RPN)
    ends = [
        end
        for (start, end, rank, rnd) in probe.hooks.storage.shared_flow_windows()
        if rnd == 2
    ]
    assert len(ends) == NRANKS
    return max(ends) + 100_000


def run_with_stagger(stagger_ns, fail_at, trace):
    cm, cfg = _config()
    return run_failure_schedule(
        app(), NRANKS, cm, [(fail_at, 0, "node")],
        config=cfg, storage=PLAN, ranks_per_node=RPN,
        restart_stagger_ns=stagger_ns, trace=trace,
    )


@pytest.fixture(params=[True, False], ids=["traced", "untraced"])
def trace(request):
    return request.param


def peak_concurrent_readers(backend):
    events = []
    for start, end, _rank, _rnd in backend.shared_read_flow_windows():
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    peak = cur = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak


def test_restart_stagger_drops_peak_concurrent_readers(trace):
    fail_at = _fail_after_round2_drain()
    flat = run_with_stagger(0, fail_at, trace)
    spread = run_with_stagger(20 * MS, fail_at, trace)
    # The node loss rolls back both of node 0's clusters.
    assert flat.restarted_ranks == spread.restarted_ranks == {0, 1, 2, 3}
    pk_flat = peak_concurrent_readers(flat.world.hooks.storage)
    pk_spread = peak_concurrent_readers(spread.world.hooks.storage)
    # Unstaggered, both clusters' members read concurrently; a stagger
    # wider than one cluster's pipeline leaves only one cluster reading.
    assert pk_flat == 4
    assert pk_spread == 2
    # Same recovery outcome either way: identical results, restarted
    # from the same drained round.
    assert spread.results == flat.results
    flat_ev = {ev.cluster: ev for ev in flat.manager.failures}
    spread_ev = {ev.cluster: ev for ev in spread.manager.failures}
    assert set(flat_ev) == set(spread_ev) == {0, 1}
    for c in (0, 1):
        assert flat_ev[c].restarted_from_round == 2
        assert spread_ev[c].restarted_from_round == 2


def test_restart_stagger_offsets_scale_with_blast_index(trace):
    """Cluster i's read pipeline opens ~i * stagger after the first;
    measured, not assumed."""
    fail_at = _fail_after_round2_drain()
    stagger = 20 * MS
    spread = run_with_stagger(stagger, fail_at, trace)
    windows = spread.world.hooks.storage.shared_read_flow_windows()
    cm = ClusterMap.block(NRANKS, K)
    first_read = {}
    for start, _end, rank, _rnd in windows:
        c = cm.cluster(rank)
        first_read[c] = min(first_read.get(c, start), start)
    assert set(first_read) == {0, 1}
    gap = first_read[1] - first_read[0]
    assert gap >= stagger
    assert gap < stagger + 5 * MS


def test_restart_stagger_zero_is_the_default_and_free(trace):
    fail_at = _fail_after_round2_drain()
    cm, cfg = _config()
    default = run_failure_schedule(
        app(), NRANKS, cm, [(fail_at, 0, "node")],
        config=cfg, storage=PLAN, ranks_per_node=RPN, trace=trace,
    )
    flat = run_with_stagger(0, fail_at, trace)
    assert default.makespan_ns == flat.makespan_ns
    assert default.results == flat.results


@pytest.mark.parametrize("stagger_ns", [0, 20 * MS])
def test_staggered_restart_is_the_same_run_traced_and_untraced(stagger_ns):
    """The untraced 20 ms case deadlocked at t = 50 476 565 ns while the
    traced one finished: both must finish, at the same instant, with the
    native results."""
    fail_at = _fail_after_round2_drain()
    traced = run_with_stagger(stagger_ns, fail_at, True)
    untraced = run_with_stagger(stagger_ns, fail_at, False)
    assert untraced.makespan_ns == traced.makespan_ns
    native = run_native(app(), NRANKS, ranks_per_node=RPN)
    assert untraced.results == traced.results == native.results
