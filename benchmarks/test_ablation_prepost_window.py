"""Ablation: the replay pre-post window (paper section 5.2.2).

The paper: replaying processes "pre-post a set of send requests before
trying to complete some of them", up to 50 per process, both for
performance and to avoid rendezvous deadlocks when completion order
differs from post order.

Two measurements:

* on a well-behaved stencil (MiniGhost) the window barely matters —
  replay is never the bottleneck;
* on an adversarial log order (a large rendezvous message posted before
  the small messages its receiver consumes first), windows smaller than
  the application's reordering depth *deadlock* — the failure mode the
  pre-posting exists to prevent; 50 is comfortably above the depth of
  every pattern in the paper's applications.
"""

import pytest

from repro.harness.experiments import app_factory, make_logging_run
from repro.apps.calibration import PAPER_NET
from repro.apps.synthetic import window_stress_app
from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.harness.runner import run_emulated_recovery, run_native, run_spbc
from repro.sim.engine import DeadlockError
from repro.util.table import format_table

WINDOWS = (1, 5, 50, 200)


def window_sweep(nranks, ranks_per_node, appname="minighost", k=8):
    n, rpn = nranks, ranks_per_node
    app = app_factory(appname)
    native = run_native(app, n, ranks_per_node=rpn, net_params=PAPER_NET, trace=False)
    run = make_logging_run(appname, n, rpn)
    cm = run.clustering_for(k)
    plan = ReplayPlan.from_run(run.result.hooks, run.duration_ns, clusters=cm)
    out = []
    for w in WINDOWS:
        rec = run_emulated_recovery(
            app, n, cm, plan,
            reference_ns=native.makespan_ns, window=w,
            ranks_per_node=rpn, net_params=PAPER_NET,
        )
        out.append((w, rec.normalized))
    return out


def stress_sweep(nsmall=8):
    """Windows below the app's reordering depth (nsmall + 1) deadlock."""
    n = 4
    app = window_stress_app(iters=3, nsmall=nsmall)
    clusters = ClusterMap([0, 1, 0, 1])  # even ranks = recovering cluster
    res = run_spbc(app, n, clusters, ranks_per_node=2)
    plan = ReplayPlan.from_run(res.hooks, res.makespan_ns)
    out = []
    for w in (1, 5, nsmall + 1, 50):
        try:
            rec = run_emulated_recovery(app, n, clusters, plan, window=w, ranks_per_node=2)
            ok = all(
                rec.results[r] == res.results[r] for r in plan.recovering_ranks
            )
            out.append((w, "ok" if ok else "WRONG"))
        except DeadlockError:
            out.append((w, "deadlock"))
    return out


@pytest.mark.benchmark(group="ablation")
def test_prepost_window_ablation(benchmark, record_rows, scale):
    sweep = benchmark.pedantic(window_sweep, kwargs=scale, rounds=1, iterations=1)
    stress = stress_sweep()
    rendered = format_table(
        ["window", "normalized rework"],
        [[w, v] for w, v in sweep],
        title="Ablation: replay pre-post window (minighost, 8 clusters)",
        float_fmt="{:.4f}",
    ) + "\n\n" + format_table(
        ["window", "adversarial log order"],
        [[w, v] for w, v in stress],
        title="Window vs rendezvous reordering depth 9 (section 5.2.2)",
    )
    record_rows(
        "ablation_window",
        {
            "minighost": [dict(window=w, normalized=v) for w, v in sweep],
            "stress": [dict(window=w, outcome=v) for w, v in stress],
        },
        rendered,
    )
    by = dict(sweep)
    # A serial replayer is never faster than the paper's window of 50...
    assert by[1] >= by[50] - 1e-6
    # ...and beyond ~50 there is nothing left to gain.
    assert abs(by[200] - by[50]) < 0.02
    # The adversarial order: small windows deadlock, ample windows work.
    outcomes = dict(stress)
    assert outcomes[1] == "deadlock"
    assert outcomes[5] == "deadlock"
    assert outcomes[9] == "ok"
    assert outcomes[50] == "ok"
