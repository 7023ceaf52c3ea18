"""Ablation: online failure injection (true partial restart).

The paper's prototype could not inject failures (section 6.4); the
simulator can.  This benchmark measures, for a mid-run crash, the
makespan of SPBC's contained rollback versus pure coordinated
checkpointing's global rollback — the containment argument of sections
1-2 made quantitative."""

import pytest


@pytest.mark.benchmark(group="ablation")
def test_online_containment_vs_coordinated(regenerate, scale):
    by = {r.clusters: r for r in regenerate("ablation_online")}
    n = scale["nranks"]
    # k=1 is pure coordinated checkpointing: everyone restarts.
    assert by[1].restarted == n
    # Hybrid clusters restart only their share.
    assert by[8].restarted == n // 8
    # Every configuration still finishes correctly (asserted inside) and
    # the crash costs extra time in all cases.
    assert all(r.slowdown > 1.0 for r in by.values())
