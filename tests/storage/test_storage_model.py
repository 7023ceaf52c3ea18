"""Storage tier and multi-level checkpoint cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.backend import TieredBackend
from repro.storage.model import StorageTier, local_ssd_tier, pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan, optimal_interval_ns
from repro.util.units import GB, MB, SEC


def test_write_time_scales_with_size():
    t = local_ssd_tier(gb_s=1.0)
    small = t.write_time_ns(10 * MB)
    big = t.write_time_ns(100 * MB)
    assert big > small
    # exactly latency + size/bandwidth
    expected = t.latency_ns + int(100 * MB / t.bandwidth_bytes_per_s * SEC)
    assert big == expected


def test_shared_tier_divides_bandwidth():
    t = pfs_tier(aggregate_gb_s=10.0)
    alone = t.write_time_ns(1 * GB, concurrent_writers=1)
    crowded = t.write_time_ns(1 * GB, concurrent_writers=512)
    assert crowded > 400 * alone  # contention bites


def test_unshared_tier_ignores_writers():
    t = local_ssd_tier()
    assert t.write_time_ns(MB, 1) == t.write_time_ns(MB, 64)


def test_tier_ordering_is_sane():
    """RAM < SSD < PFS for a single writer's small checkpoint."""
    n = 200 * MB
    assert (
        ram_tier().write_time_ns(n)
        < local_ssd_tier().write_time_ns(n)
        < pfs_tier().write_time_ns(n, concurrent_writers=512)
    )


def test_validation():
    t = ram_tier()
    with pytest.raises(ValueError):
        t.write_time_ns(-1)
    with pytest.raises(ValueError):
        t.write_time_ns(1, 0)


def test_multilevel_plan_costs():
    plan = MultiLevelPlan(
        tiers=[ram_tier(), local_ssd_tier(), pfs_tier()],
        periods=[1, 4, 16],
    )
    backend = TieredBackend(plan)
    n = 100 * MB

    def round_cost_ns(round_no):
        return backend.round_writes(round_no).commit_ns(n)

    # rounds not hitting upper tiers only pay the RAM cost
    assert round_cost_ns(1) == ram_tier().write_time_ns(n)
    # round 16 pays all three
    all_three = round_cost_ns(16)
    assert all_three > round_cost_ns(4) > round_cost_ns(1)
    amort = backend.amortized_write_cost_ns(n)
    assert round_cost_ns(1) < amort < all_three


def test_multilevel_validation():
    with pytest.raises(ValueError):
        MultiLevelPlan(tiers=[ram_tier()], periods=[2])  # first must be 1
    with pytest.raises(ValueError):
        MultiLevelPlan(tiers=[ram_tier(), pfs_tier()], periods=[1])
    with pytest.raises(ValueError):
        MultiLevelPlan(tiers=[ram_tier(), pfs_tier()], periods=[4, 1])
    with pytest.raises(ValueError):
        MultiLevelPlan(tiers=[], periods=[])


def test_optimal_interval_young():
    # sqrt(2 * C * MTBF)
    assert optimal_interval_ns(2 * SEC, 3600 * SEC) == int((2 * 2 * 3600) ** 0.5 * SEC)
    with pytest.raises(ValueError):
        optimal_interval_ns(0, SEC)


@settings(max_examples=40, deadline=None)
@given(
    nbytes=st.integers(min_value=0, max_value=10 * GB),
    writers=st.integers(min_value=1, max_value=4096),
)
def test_property_write_time_monotone(nbytes, writers):
    t = pfs_tier()
    assert t.write_time_ns(nbytes, writers) >= t.latency_ns
    assert t.write_time_ns(nbytes + MB, writers) >= t.write_time_ns(nbytes, writers)
    assert t.write_time_ns(nbytes, writers) >= t.write_time_ns(nbytes, 1)
