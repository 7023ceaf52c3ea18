"""Ablation: online failure injection (true partial restart).

The paper's prototype could not inject failures (section 6.4); the
simulator can.  This benchmark measures, for a mid-run crash, the wasted
CPU of SPBC's contained rollback versus pure coordinated checkpointing's
global rollback — the containment argument of sections 1-2 made
quantitative."""

import pytest

from repro.apps.base import get_app
from repro.apps.calibration import PAPER_NET
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_native, run_online_failure
from repro.util.table import format_table

APP_PARAMS = dict(iters=6, compute_ns=2_000_000)
NRANKS_CAP = 32  # online recovery re-executes everything; keep it modest


def online_comparison(nranks, ranks_per_node):
    n = min(nranks, NRANKS_CAP)
    rpn = min(ranks_per_node, n)
    app = get_app("milc").factory(**APP_PARAMS)
    native = run_native(app, n, ranks_per_node=rpn, net_params=PAPER_NET, trace=False)
    rows = []
    for k in (1, 2, 4, 8):
        clusters = ClusterMap.block(n, k)
        cfg = SPBCConfig(clusters=clusters, checkpoint_every=2)
        out = run_online_failure(
            app, n, clusters,
            fail_at_ns=int(native.makespan_ns * 0.6),
            fail_rank=0,
            config=cfg,
            ranks_per_node=rpn,
            net_params=PAPER_NET,
        )
        assert out.results == native.results
        rows.append(
            (
                k,
                len(out.restarted_ranks),
                out.makespan_ns / native.makespan_ns,
            )
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_online_containment_vs_coordinated(benchmark, record_rows, scale):
    rows = benchmark.pedantic(
        online_comparison, kwargs=scale, rounds=1, iterations=1
    )
    rendered = format_table(
        ["clusters", "ranks restarted", "makespan / failure-free"],
        [list(r) for r in rows],
        title="Ablation: online recovery — contained vs global rollback (milc)",
        float_fmt="{:.3f}",
    )
    record_rows(
        "ablation_online",
        [dict(clusters=r[0], restarted=r[1], slowdown=r[2]) for r in rows],
        rendered,
    )
    by = {r[0]: r for r in rows}
    n = min(scale["nranks"], NRANKS_CAP)
    # k=1 is pure coordinated checkpointing: everyone restarts.
    assert by[1][1] == n
    # Hybrid clusters restart only their share.
    assert by[8][1] == n // 8
    # Every configuration still finishes correctly (asserted inside) and
    # the crash costs extra time in all cases.
    assert all(r[2] > 1.0 for r in rows)
