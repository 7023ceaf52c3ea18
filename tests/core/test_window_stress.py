"""The section-5.2.2 rendezvous-reordering hazard, at unit scale."""

import pytest

from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.harness.runner import run_emulated_recovery, run_native, run_spbc
from repro.apps.synthetic import window_stress_app
from repro.sim.engine import DeadlockError

CLUSTERS = ClusterMap([0, 1, 0, 1])


def phase1(nsmall=4):
    app = window_stress_app(iters=2, nsmall=nsmall)
    res = run_spbc(app, 4, CLUSTERS, ranks_per_node=2)
    return app, res, ReplayPlan.from_run(res.hooks, res.makespan_ns)


def test_failure_free_run_is_fine():
    app = window_stress_app(iters=2, nsmall=4)
    ref = run_native(app, 4, ranks_per_node=2)
    assert ref.makespan_ns > 0


def test_small_window_deadlocks_on_adversarial_order():
    """A replayer completing sends strictly in post order cannot finish:
    the large rendezvous message blocks the small ones its receiver must
    consume first."""
    app, _res, plan = phase1(nsmall=4)
    with pytest.raises(DeadlockError):
        run_emulated_recovery(app, 4, CLUSTERS, plan, window=1, ranks_per_node=2)


def test_window_above_reordering_depth_recovers():
    app, res, plan = phase1(nsmall=4)
    rec = run_emulated_recovery(app, 4, CLUSTERS, plan, window=6, ranks_per_node=2)
    for r in plan.recovering_ranks:
        assert rec.results[r] == res.results[r]


def test_default_window_handles_it():
    app, res, plan = phase1(nsmall=4)
    rec = run_emulated_recovery(app, 4, CLUSTERS, plan, ranks_per_node=2)  # 50
    for r in plan.recovering_ranks:
        assert rec.results[r] == res.results[r]


@pytest.mark.parametrize("window,recovers", [(1, False), (5, False), (9, True), (50, True)])
def test_windows_below_the_reordering_depth_deadlock(window, recovers):
    """Eight small messages behind one rendezvous: a reordering depth of
    nine, which the window must reach for the replay to finish."""
    app = window_stress_app(iters=3, nsmall=8)
    res = run_spbc(app, 4, CLUSTERS, ranks_per_node=2)
    plan = ReplayPlan.from_run(res.hooks, res.makespan_ns)
    if not recovers:
        with pytest.raises(DeadlockError):
            run_emulated_recovery(app, 4, CLUSTERS, plan, window=window, ranks_per_node=2)
        return
    rec = run_emulated_recovery(app, 4, CLUSTERS, plan, window=window, ranks_per_node=2)
    for r in plan.recovering_ranks:
        assert rec.results[r] == res.results[r]
