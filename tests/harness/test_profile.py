"""IPM-style profiler tests, including the section-6.4 claims about the
paper's applications."""

import pytest

from repro.apps.base import get_app
from repro.apps.calibration import PAPER_NET
from repro.core.clusters import ClusterMap
from repro.harness.profile import (
    comm_fraction_stats,
    profile_run,
    traffic_split,
)
from repro.harness.runner import run_native
from repro.apps.synthetic import ring_app


def test_profile_accounts_for_compute_and_total():
    app = ring_app(iters=4, msg_bytes=2048, compute_ns=100_000)
    res = run_native(app, 4, ranks_per_node=2)
    profs = profile_run(res)
    assert len(profs) == 4
    for p in profs:
        assert p.compute_ns == 4 * 100_000
        assert p.total_ns >= p.compute_ns
        assert 0.0 <= p.comm_fraction < 1.0
        assert p.comm_ns == p.total_ns - p.compute_ns  # native: no protocol time


def test_pure_compute_app_has_zero_comm_fraction():
    def app(ctx, state=None):
        yield from ctx.compute(1_000_000)

    res = run_native(app, 2, ranks_per_node=2)
    stats = comm_fraction_stats(res)
    assert stats.maximum == pytest.approx(0.0, abs=1e-9)


def test_comm_heavier_app_has_higher_fraction():
    light = run_native(
        ring_app(iters=4, msg_bytes=512, compute_ns=5_000_000), 4, ranks_per_node=2,
        net_params=PAPER_NET,
    )
    heavy = run_native(
        ring_app(iters=4, msg_bytes=512 * 1024, compute_ns=5_000_000), 4,
        ranks_per_node=2, net_params=PAPER_NET,
    )
    assert comm_fraction_stats(heavy).mean > comm_fraction_stats(light).mean


def test_traffic_split_matches_cluster_map():
    app = ring_app(iters=3, msg_bytes=1000, compute_ns=10_000)
    res = run_native(app, 8, ranks_per_node=4)
    all_one = traffic_split(res, ClusterMap.single(8))
    assert all_one.inter_fraction == 0.0
    singles = traffic_split(res, ClusterMap.singletons(8))
    assert singles.inter_fraction == pytest.approx(1.0)
    halves = traffic_split(res, ClusterMap.block(8, 4))
    # ring: 4 of 8 channels cross the four 2-rank blocks
    assert halves.inter_fraction == pytest.approx(0.5)


def test_paper_comm_fraction_claims():
    """Section 6.4: CM1, GTC and MiniFE spend < 10% of their time
    communicating; AMG far more (the paper reports > 50%; our simulator
    measures ~37% mean with > 55% on the worst ranks at this scale)."""
    scale = {
        "cm1": dict(iters=2),
        "gtc": dict(iters=3),
        "minife": dict(iters=5),
        "amg": dict(cycles=3),
    }
    means = {}
    maxes = {}
    for name, params in scale.items():
        app = get_app(name).factory(**params)
        res = run_native(app, 64, ranks_per_node=8, net_params=PAPER_NET)
        stats = comm_fraction_stats(res)
        means[name] = stats.mean
        maxes[name] = stats.maximum
    assert means["cm1"] < 0.10, means
    assert means["gtc"] < 0.10, means
    assert means["minife"] < 0.12, means
    assert means["amg"] > 0.30, means
    assert maxes["amg"] > 0.50, maxes
    # the separation the paper's Figure 5 discussion rests on
    assert means["amg"] > 3 * max(means["cm1"], means["gtc"], means["minife"])
