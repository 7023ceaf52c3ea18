"""Table 1: log growth rate per process (MB/s) vs number of clusters.

Paper values (512 ranks, 64 nodes), for reference:

    clusters   AMG        CM1        GTC        MILC      MiniFE    MiniGhost
               avg  max   avg  max   avg  max   avg  max  avg  max  avg  max
    2          0.1  0.4   0.1  0.8   0.1  0.9   0.1  0.1  0.1  0.1  0.3  1.1
    16         0.5  0.7   0.4  1.5   0.4  0.9   0.2  0.3  0.1  0.3  1.6  2.1
    64         1.2  1.4   1.5  2.2   1.7  1.7   0.4  0.4  0.2  0.3  3.7  4.2
    512        1.7  2.0   2.8  2.9   1.7  1.8   0.6  0.6  0.5  0.6  5.5  6.3

Shape targets asserted below: rates grow with the cluster count,
MiniGhost logs the most, MiniFE/MILC the least, MILC is balanced
(avg == max), and hybrid clustering reduces logging dramatically versus
pure message logging.
"""

import pytest

from repro.harness.experiments import PAPER_APPS


@pytest.mark.benchmark(group="table1")
def test_table1_log_growth(regenerate, scale):
    rows = regenerate("table1")
    nranks = scale["nranks"]
    by = {(r.app, r.k): r for r in rows}
    ks = sorted({r.k for r in rows})

    # Hybrid clustering reduces logging versus pure message logging.
    for app in PAPER_APPS:
        assert by[(app, ks[0])].avg_mb_s < by[(app, nranks)].avg_mb_s

    # Average growth rate is monotone in the cluster count (paper:
    # "the average amount of logged data generally grows with the
    # number of clusters").
    for app in PAPER_APPS:
        avgs = [by[(app, k)].avg_mb_s for k in ks]
        assert all(a <= b + 1e-9 for a, b in zip(avgs, avgs[1:])), app

    # MiniGhost is the most communication-intensive; MiniFE and MILC the
    # lightest loggers (paper section 6.2).
    pure = nranks
    assert by[("minighost", pure)].max_mb_s == max(
        by[(a, pure)].max_mb_s for a in PAPER_APPS
    )
    two_lightest = sorted(PAPER_APPS, key=lambda a: by[(a, pure)].max_mb_s)[:2]
    assert set(two_lightest) == {"minife", "milc"}

    # MILC's 4-D torus is symmetric: avg ~= max at every cluster count.
    for k in ks:
        r = by[("milc", k)]
        if r.avg_mb_s > 0:
            assert r.max_mb_s <= 1.3 * r.avg_mb_s

    # GTC: the max rate is roughly constant over the small cluster
    # counts (the arc-boundary ranks' shift traffic), unlike the avg.
    small = [k for k in ks if k <= max(2, nranks // scale["ranks_per_node"] // 2)]
    gtc_max = [by[("gtc", k)].max_mb_s for k in small]
    if len(gtc_max) >= 2 and gtc_max[0] > 0:
        assert max(gtc_max) / min(gtc_max) < 1.5

    # Logging is imbalanced across processes for most apps (max > avg):
    # the motivation for the section 6.6 discussion.
    assert by[("minighost", ks[1])].max_mb_s > 1.2 * by[("minighost", ks[1])].avg_mb_s
