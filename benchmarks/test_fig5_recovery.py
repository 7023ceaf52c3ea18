"""Figure 5: SPBC recovery (rework) time normalized to failure-free
execution, for 2/4/8/16 clusters.

Paper shape (512 ranks): every bar is below 1.0 (recovery is faster than
failure-free execution of the same segment); AMG gains the most (up to
~25%, it communicates the most across clusters); CM1, GTC and MiniFE gain
at most a few percent (< 10% communication time); configurations with
more/smaller clusters recover faster (more messages come from logs).
"""

import pytest

from repro.harness.experiments import PAPER_APPS


@pytest.mark.benchmark(group="fig5")
def test_fig5_recovery_normalized(regenerate):
    rows = regenerate(
        "fig5",
        lambda r: dict(app=r.app, clusters=r.k, normalized=r.normalized,
                       rework_ms=r.rework_ns / 1e6, native_ms=r.native_ns / 1e6,
                       replayed=r.replayed_records),
    )
    by = {(r.app, r.k): r for r in rows}
    ks = sorted({r.k for r in rows})

    # Every configuration recovers at least as fast as failure-free.
    for r in rows:
        assert r.normalized <= 1.02, f"{r.app}@{r.k}: {r.normalized:.3f}"

    # The compute-bound trio gains little (paper: at best ~4%).
    for app in ("cm1", "gtc", "minife"):
        for k in ks:
            assert by[(app, k)].normalized >= 0.85

    # AMG gains the most among the six at the largest sweep point.
    k = ks[-1]
    amg_gain = 1 - by[("amg", k)].normalized
    for app in PAPER_APPS:
        assert amg_gain >= (1 - by[(app, k)].normalized) - 0.02, app

    # More clusters (more inter-cluster traffic replayed from logs) do
    # not slow recovery down for the communication-heavy apps.
    for app in ("amg", "minighost"):
        vals = [by[(app, k)].normalized for k in ks]
        assert vals[-1] <= vals[0] + 0.05
