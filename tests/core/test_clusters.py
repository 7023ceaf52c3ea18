"""Unit tests for cluster maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusters import ClusterMap
from repro.sim.network import Topology


def test_block_partition():
    cm = ClusterMap.block(8, 2)
    assert cm.nclusters == 2
    assert cm.members(0) == [0, 1, 2, 3]
    assert cm.members(1) == [4, 5, 6, 7]
    assert cm.cluster(5) == 1
    assert not cm.is_intercluster(0, 3) and cm.is_intercluster(3, 4)


def test_block_uneven_rejected():
    with pytest.raises(ValueError):
        ClusterMap.block(10, 3)


def test_block_bounds():
    with pytest.raises(ValueError):
        ClusterMap.block(4, 0)
    with pytest.raises(ValueError):
        ClusterMap.block(4, 5)


def test_singletons_and_single():
    assert ClusterMap.singletons(4).nclusters == 4
    assert ClusterMap.single(4).nclusters == 1
    assert not ClusterMap.single(4).is_intercluster(0, 3)


def test_noncontiguous_ids_rejected():
    with pytest.raises(ValueError):
        ClusterMap([0, 2, 2, 0])  # missing id 1


def test_empty_rejected():
    with pytest.raises(ValueError):
        ClusterMap([])


def test_node_alignment_validation():
    topo = Topology(nranks=8, ranks_per_node=4)
    ClusterMap.block(8, 2).validate_node_aligned(topo)  # ok
    with pytest.raises(ValueError):
        ClusterMap.block(8, 4).validate_node_aligned(topo)  # splits nodes


def test_equality():
    assert ClusterMap.block(8, 2) == ClusterMap.block(8, 2)
    assert ClusterMap.block(8, 2) != ClusterMap.block(8, 4)


@settings(max_examples=50, deadline=None)
@given(
    nranks=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_property_every_rank_in_exactly_one_cluster(nranks, data):
    k = data.draw(st.integers(min_value=1, max_value=nranks))
    assignment = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=nranks, max_size=nranks)
    )
    # normalize to contiguous ids
    ids = sorted(set(assignment))
    remap = {c: i for i, c in enumerate(ids)}
    cm = ClusterMap([remap[c] for c in assignment])
    seen = []
    for c in range(cm.nclusters):
        seen.extend(cm.members(c))
    assert sorted(seen) == list(range(nranks))
    assert sum(cm.sizes()) == nranks
