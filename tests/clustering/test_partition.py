"""Clustering tool tests: balance, node constraint, cut quality, and
equality with the dense-matrix partitioner the sparse one replaced."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.partition import (
    _adjacency,
    cluster_by_communication,
    cut_bytes,
    greedy_kway,
    refine_kl,
)
from repro.core.clusters import ClusterMap
from repro.harness.experiments import (
    NAS_APPS,
    PAPER_APPS,
    cluster_counts,
    make_logging_run,
)
from repro.sim.network import Topology


def ring_pairs(n, w=100):
    return {(i, (i + 1) % n): w for i in range(n)}


def block_pairs(n, block, strong=100, weak=1):
    """Strong intra-block affinity, weak everywhere else."""
    return {
        (i, j): strong if i // block == j // block else weak
        for i in range(n)
        for j in range(n)
        if i != j
    }


def rank_graph(pairs, n):
    return _adjacency(pairs, Topology(n, 1))


def test_cut_bytes_ring():
    w = ring_pairs(8)
    assert cut_bytes(w, [0] * 8) == 0
    assert cut_bytes(w, [0, 0, 0, 0, 1, 1, 1, 1]) == 200  # two cut edges
    assert cut_bytes(w, [0, 1] * 4) == 800  # everything cut


def test_adjacency_sums_both_directions_and_drops_node_local_traffic():
    pairs = {(0, 1): 5, (1, 0): 2, (0, 2): 7, (3, 1): 1}
    assert rank_graph(pairs, 4) == [{1: 7, 2: 7}, {0: 7, 3: 1}, {0: 7}, {1: 1}]
    # ranks 0, 1 share node 0 and 2, 3 node 1: only 0->2 and 3->1 cross
    assert _adjacency(pairs, Topology(4, 2)) == [{1: 8}, {0: 8}]


def test_greedy_balanced():
    a = greedy_kway(rank_graph(block_pairs(12, 3), 12), 4)
    counts = [a.count(p) for p in range(4)]
    assert counts == [3, 3, 3, 3]


def test_greedy_recovers_obvious_blocks():
    a = greedy_kway(rank_graph(block_pairs(12, 4), 12), 3)
    # all members of a natural block share a part
    for start in range(0, 12, 4):
        assert len({a[i] for i in range(start, start + 4)}) == 1


def test_greedy_validation():
    adj = rank_graph(ring_pairs(6), 6)
    with pytest.raises(ValueError):
        greedy_kway(adj, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        greedy_kway(adj, 0)


def test_refine_never_worsens():
    rng = random.Random(7)
    w = {(i, j): rng.randrange(1000) for i in range(12) for j in range(12) if i != j}
    a0 = [i % 3 for i in range(12)]  # bad interleaved start
    a1 = refine_kl(rank_graph(w, 12), a0)
    assert cut_bytes(w, a1) < cut_bytes(w, a0)
    # balance preserved (swaps only)
    assert sorted(a1.count(p) for p in range(3)) == [4, 4, 4]


def test_cluster_by_communication_beats_interleaved():
    w = block_pairs(16, 4)
    cm = cluster_by_communication(w, 4, Topology(16, 1))
    assert isinstance(cm, ClusterMap)
    interleaved = [i % 4 for i in range(16)]
    assert cut_bytes(w, cm.cluster_of) <= cut_bytes(w, interleaved)


def test_node_constraint_respected():
    topo = Topology(nranks=16, ranks_per_node=4)
    cm = cluster_by_communication(ring_pairs(16), 2, topology=topo)
    cm.validate_node_aligned(topo)
    assert cm.nclusters == 2
    assert sorted(cm.sizes()) == [8, 8]


def test_k_equals_nodes_gives_per_node_clusters():
    topo = Topology(nranks=8, ranks_per_node=2)
    cm = cluster_by_communication(ring_pairs(8), 4, topology=topo)
    assert cm.nclusters == 4
    for node in range(4):
        ranks = list(topo.ranks_on_node(node))
        assert len({cm.cluster(r) for r in ranks}) == 1


def test_ring_partition_is_contiguous_arcs():
    """On a uniform ring the optimal k-way partition is k contiguous
    arcs, cutting exactly k edges."""
    w = ring_pairs(16)
    cm = cluster_by_communication(w, 4, Topology(16, 1))
    assert cut_bytes(w, cm.cluster_of) == 4 * 100


def test_a_matrix_is_read_as_pairs():
    w = block_pairs(16, 4)
    matrix = [[w.get((i, j), 0) for j in range(16)] for i in range(16)]
    topo = Topology(16, 2)
    assert cluster_by_communication(matrix, 4, topo) == cluster_by_communication(
        w, 4, topo
    )
    assert cluster_by_communication(np.array(matrix), 4) == cluster_by_communication(
        w, 4, Topology(16, 1)
    )


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        cluster_by_communication(np.zeros((3, 4)), 2)
    with pytest.raises(ValueError, match="disagrees"):
        cluster_by_communication(np.zeros((4, 4)), 2, topology=Topology(nranks=8))
    with pytest.raises(ValueError, match="topology"):
        cluster_by_communication(ring_pairs(4), 2)
    with pytest.raises(ValueError, match="rank 4"):
        cluster_by_communication({(0, 4): 1}, 2, Topology(4, 1))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 12]),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
def test_property_partition_valid_and_balanced(n, seed, data):
    k = data.draw(st.sampled_from([d for d in (1, 2, 3, 4, 6) if n % d == 0]))
    rng = random.Random(seed)
    w = {(i, j): rng.randrange(1000) for i in range(n) for j in range(n) if i != j}
    cm = cluster_by_communication(w, k, Topology(n, 1))
    assert cm.nclusters == k
    assert all(s == n // k for s in cm.sizes())
    # determinism: same input -> same output
    assert cm == cluster_by_communication(w, k, Topology(n, 1))


# ----------------------------------------------------------------------
# The dense partitioner the sparse one replaced, kept as a reference:
# an n x n float64 matrix, contracted to nodes block by block, greedy
# affinities and KL gains re-summed from whole rows.
# ----------------------------------------------------------------------

def _dense_contract(w, topology):
    node_of = np.array([topology.node_of(r) for r in range(topology.nranks)])
    out = np.zeros((topology.nnodes, topology.nnodes))
    for a in range(topology.nnodes):
        for b in range(topology.nnodes):
            out[a, b] = w[np.ix_(node_of == a, node_of == b)].sum()
    np.fill_diagonal(out, 0.0)
    return out


def _dense_greedy(w, k):
    n = w.shape[0]
    assignment = [-1] * n
    unassigned = set(range(n))
    total_aff = w.sum(axis=1)
    for part in range(k):
        seed = max(unassigned, key=lambda v: (total_aff[v], -v))
        members = [seed]
        assignment[seed] = part
        unassigned.discard(seed)
        while len(members) < n // k:
            aff = {v: sum(w[v, m] for m in members) for v in unassigned}
            pick = max(unassigned, key=lambda v: (aff[v], -v))
            members.append(pick)
            assignment[pick] = part
            unassigned.discard(pick)
    return assignment


def _dense_move_gain(w, a, v, to_part):
    internal = sum(w[v, u] for u in range(len(a)) if u != v and a[u] == a[v])
    external_to = sum(w[v, u] for u in range(len(a)) if u != v and a[u] == to_part)
    return external_to - internal


def _dense_refine(w, a, max_passes=8):
    a = list(a)
    n = len(a)
    for _pass in range(max_passes):
        improved = False
        for v in range(n):
            for u in range(v + 1, n):
                if a[v] == a[u]:
                    continue
                gain = (
                    _dense_move_gain(w, a, v, a[u])
                    + _dense_move_gain(w, a, u, a[v])
                    - 2 * w[v, u]
                )
                if gain > 1e-9:
                    a[v], a[u] = a[u], a[v]
                    improved = True
        if not improved:
            break
    return a


def dense_cluster_by_communication(sym, k, topology=None):
    nranks = sym.shape[0]
    if topology is None:
        node_w, node_of = sym, list(range(nranks))
    else:
        node_w = _dense_contract(sym, topology)
        node_of = [topology.node_of(r) for r in range(nranks)]
    nverts = node_w.shape[0]
    if k == nverts:
        parts = list(range(nverts))
    else:
        parts = _dense_refine(node_w, _dense_greedy(node_w, k))
    remap = {}
    for part in parts:
        remap.setdefault(part, len(remap))
    return ClusterMap([remap[parts[node_of[r]]] for r in range(nranks)])


@settings(max_examples=200, deadline=None)
@given(
    nverts=st.sampled_from([2, 3, 4, 6, 8, 12]),
    rpn=st.sampled_from([1, 2, 3]),
    data=st.data(),
)
def test_property_sparse_partition_is_the_dense_partition(nverts, rpn, data):
    """Sparse pair sums and the dense matrix give the same cluster map,
    ties included: rank-level (one rank per vertex, no topology for the
    dense reference) and node-contracted, for every k dividing the
    vertex count."""
    n = nverts * rpn
    k = data.draw(st.sampled_from([d for d in range(1, nverts + 1) if nverts % d == 0]))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 50)
            ),
            max_size=3 * n,
        )
    )
    pairs = {}
    dense = np.zeros((n, n))
    for src, dst, nbytes in edges:
        if src != dst:
            pairs[src, dst] = pairs.get((src, dst), 0) + nbytes
            dense[src, dst] += nbytes
    topo = Topology(n, rpn)
    expected = dense_cluster_by_communication(
        dense + dense.T, k, topo if rpn > 1 else None
    )
    assert cluster_by_communication(pairs, k, topo) == expected


def test_partition_memory_stays_sparse_at_4096_ranks():
    """A 4096-rank ring-plus-stride graph on 512 nodes partitions within
    a sixteenth of what one dense 4096 x 4096 float64 matrix takes."""
    n = 4096
    pairs = {}
    for r in range(n):
        for stride in (1, 16):
            pairs[r, (r + stride) % n] = 1000 + (r * 7919) % 997
    dense_mib = n * n * 8 / 2**20
    tracemalloc.start()
    try:
        cm = cluster_by_communication(pairs, 4, Topology(n, 8))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(cm.sizes()) == [1024] * 4
    assert peak / 2**20 < dense_mib / 16


@pytest.mark.parametrize("app", PAPER_APPS + NAS_APPS)
def test_paper_pipeline_maps_are_the_dense_pipeline_maps(app):
    """Every Table 1 cluster map of a real app's logging run, and the
    per-rank logged bytes under it, are what the dense pipeline gave:
    node-contracted below the node count, one cluster per node at it,
    rank-level between the node and rank counts (16, 32)."""
    nranks, rpn = 64, 8
    run = make_logging_run(app, nranks, rpn)
    dense = np.zeros((nranks, nranks))
    for (src, dst), nbytes in run.pair_bytes.items():
        dense[src, dst] += nbytes
    for k in sorted(set(cluster_counts(nranks, rpn) + [16, 32])):
        cm = run.clustering_for(k)
        if k == nranks:
            expected = ClusterMap.singletons(nranks)
        elif k > nranks // rpn:
            expected = dense_cluster_by_communication(dense + dense.T, k)
        else:
            expected = dense_cluster_by_communication(
                dense + dense.T, k, Topology(nranks, rpn)
            )
        assert cm == expected, k
        cluster_of = np.array(cm.cluster_of)
        crossing = cluster_of[:, None] != cluster_of[None, :]
        assert run.per_rank_logged_bytes(cm) == [
            int(b) for b in (dense * crossing).sum(axis=1)
        ]
