"""Overlapping restarts: a second crash inside a cluster's restart window.

A node failure rolls back both clusters of node 0.  Four milliseconds
later — inside cluster 1's restart window (the 2 ms restart delay plus
its restore read) — a process crash hits cluster 1 again and supersedes
its pending restart.  Cluster 0 comes back first and re-executes while
cluster 1 is still down, so its first sends to cluster 1 are deferred
until cluster 1's late ``lastMessage`` arrives.

Every test runs traced and untraced.  The untraced run is the smallest
known reproducer of the lost wake-up behind the old ``DeadlockError``
(docs/failure_model.md, "The lost wake-up"): rank 1's restarted
incarnation blocks in ``sendrecv`` on a send that is still deferred
(``LS`` unknown), and the late ``release_deferred`` used to park the
completion where nobody looked again.  Before the single send-completion
path (commit 0910641 and earlier) this schedule drained the event queue
with 8 blocked processes untraced, while the traced run finished.
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
SECOND_CRASH_AFTER_NS = 4 * MS


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


def run_overlapping(trace):
    """Node 0 dies, then rank 2 (cluster 1) crashes again before
    cluster 1 is back."""
    fail_at = _fail_after_round2_drain()
    cm, cfg = _config()
    schedule = [
        (fail_at, 0, "node"),
        (fail_at + SECOND_CRASH_AFTER_NS, 2, "process"),
    ]
    return run_failure_schedule(
        app(), NRANKS, cm, schedule,
        config=cfg, storage=PLAN, ranks_per_node=RPN, trace=trace,
    )


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
def test_second_crash_supersedes_the_pending_restart(trace):
    res = run_overlapping(trace)
    assert res.restarted_ranks == {0, 1, 2, 3}
    node_c0, node_c1, proc_c1 = res.manager.failures
    assert (node_c0.cluster, node_c1.cluster, proc_c1.cluster) == (0, 1, 1)
    # The second crash landed inside cluster 1's restart window: the
    # node failure's restart of cluster 1 never ran.
    assert not node_c0.superseded and node_c1.superseded
    assert not proc_c1.superseded
    # Both clusters read back the drained round 2, cluster 1 later.
    assert node_c0.restarted_from_round == proc_c1.restarted_from_round == 2


def test_overlapping_restart_is_the_same_run_traced_and_untraced():
    """The untraced run deadlocked while the traced one finished: both
    must finish, at the same instant, with the native results."""
    traced = run_overlapping(True)
    untraced = run_overlapping(False)
    assert untraced.makespan_ns == traced.makespan_ns
    native = run_native(app(), NRANKS, ranks_per_node=RPN)
    assert untraced.results == traced.results == native.results
