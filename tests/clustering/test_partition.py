"""Clustering tool tests: balance, node constraint, cut quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.partition import (
    cluster_by_communication,
    cut_bytes,
    greedy_kway,
    refine_kl,
)
from repro.core.clusters import ClusterMap
from repro.sim.network import Topology


def ring_weights(n, w=100.0):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, (i + 1) % n] = w
        m[(i + 1) % n, i] = w
    return m


def block_weights(n, block, strong=100.0, weak=1.0):
    """Strong intra-block affinity, weak everywhere else."""
    m = np.full((n, n), weak)
    np.fill_diagonal(m, 0.0)
    for start in range(0, n, block):
        for i in range(start, start + block):
            for j in range(start, start + block):
                if i != j:
                    m[i, j] = strong
    return m


def test_cut_bytes_ring():
    w = ring_weights(8)
    assert cut_bytes(w, [0] * 8) == 0.0
    assert cut_bytes(w, [0, 0, 0, 0, 1, 1, 1, 1]) == 200.0  # two cut edges
    assert cut_bytes(w, [0, 1] * 4) == 800.0  # everything cut


def test_greedy_balanced():
    w = block_weights(12, 3)
    a = greedy_kway(w, 4)
    counts = [a.count(p) for p in range(4)]
    assert counts == [3, 3, 3, 3]


def test_greedy_recovers_obvious_blocks():
    w = block_weights(12, 4)
    a = greedy_kway(w, 3)
    # all members of a natural block share a part
    for start in range(0, 12, 4):
        assert len({a[i] for i in range(start, start + 4)}) == 1


def test_greedy_validation():
    w = ring_weights(6)
    with pytest.raises(ValueError):
        greedy_kway(w, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        greedy_kway(w, 0)


def test_refine_never_worsens():
    rng = np.random.default_rng(7)
    w = rng.random((12, 12))
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    a0 = [i % 3 for i in range(12)]  # bad interleaved start
    a1 = refine_kl(w, a0)
    assert cut_bytes(w, a1) <= cut_bytes(w, a0) + 1e-9
    # balance preserved (swaps only)
    assert sorted(a1.count(p) for p in range(3)) == [4, 4, 4]


def test_cluster_by_communication_beats_interleaved():
    w = block_weights(16, 4)
    cm = cluster_by_communication(w, 4)
    assert isinstance(cm, ClusterMap)
    interleaved = [i % 4 for i in range(16)]
    assert cut_bytes(w, cm.cluster_of) <= cut_bytes(w, interleaved)


def test_node_constraint_respected():
    topo = Topology(nranks=16, ranks_per_node=4)
    w = ring_weights(16)
    cm = cluster_by_communication(w, 2, topology=topo)
    cm.validate_node_aligned(topo)
    assert cm.nclusters == 2
    assert sorted(cm.sizes()) == [8, 8]


def test_k_equals_nodes_gives_per_node_clusters():
    topo = Topology(nranks=8, ranks_per_node=2)
    w = ring_weights(8)
    cm = cluster_by_communication(w, 4, topology=topo)
    assert cm.nclusters == 4
    for node in range(4):
        ranks = list(topo.ranks_on_node(node))
        assert len({cm.cluster(r) for r in ranks}) == 1


def test_ring_partition_is_contiguous_arcs():
    """On a uniform ring the optimal k-way partition is k contiguous
    arcs, cutting exactly k edges."""
    w = ring_weights(16)
    cm = cluster_by_communication(w, 4)
    assert cut_bytes(w, cm.cluster_of) == pytest.approx(4 * 100.0)


def test_matrix_validation():
    with pytest.raises(ValueError):
        cluster_by_communication(np.zeros((3, 4)), 2)
    with pytest.raises(ValueError):
        cluster_by_communication(np.zeros((4, 4)), 2, topology=Topology(nranks=8))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 12]),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
def test_property_partition_valid_and_balanced(n, seed, data):
    k = data.draw(st.sampled_from([d for d in (1, 2, 3, 4, 6) if n % d == 0]))
    rng = np.random.default_rng(seed)
    w = rng.random((n, n)) * 1000
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    cm = cluster_by_communication(w, k)
    assert cm.nclusters == k
    assert all(s == n // k for s in cm.sizes())
    # determinism: same input -> same output
    cm2 = cluster_by_communication(w, k)
    assert cm == cm2
