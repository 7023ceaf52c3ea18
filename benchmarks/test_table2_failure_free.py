"""Table 2: failure-free overhead of SPBC versus native MPI, 16 clusters.

Paper values (512 ranks, 16 clusters):

    AMG     CM1     GTC     MILC    MiniFE  MiniGhost
    0.26%   0.63%   1.14%   0.07%   0.08%   0.36%

Shape targets: overhead is at most ~1-2% for every application, and
smaller cluster counts (fewer logged messages) cost no more than larger
ones (paper section 6.3: "for lower numbers of clusters, we observed
even smaller overhead").
"""

import pytest


@pytest.mark.benchmark(group="table2")
def test_table2_failure_free_overhead(regenerate):
    rows = regenerate(
        "table2",
        lambda r: dict(app=r.app, clusters=r.k, native_ms=r.native_ns / 1e6,
                       spbc_ms=r.spbc_ns / 1e6, overhead_pct=r.overhead_pct),
    )
    for r in rows:
        assert r.overhead_pct >= -0.01, f"{r.app}: SPBC faster than native?"
        assert r.overhead_pct < 2.0, (
            f"{r.app}: overhead {r.overhead_pct:.2f}% exceeds the paper's band"
        )


@pytest.mark.benchmark(group="table2")
def test_overhead_vs_clusters(regenerate):
    """Section 6.3's sweep: overhead at 2/4/8/16 clusters (one app is
    enough for the trend; MiniGhost logs the most)."""
    rows = regenerate(
        "table2_sweep",
        lambda r: dict(app=r.app, clusters=r.k, overhead_pct=r.overhead_pct),
    )
    by_k = {r.k: r.overhead_pct for r in rows}
    assert by_k[2] <= by_k[16] + 0.1  # fewer clusters, no more overhead
    assert all(v < 2.0 for v in by_k.values())
