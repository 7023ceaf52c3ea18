"""Balanced k-way graph partitioning minimizing logged bytes.

The objective of the paper's clustering tool [30]: partition processes
into k clusters so that the total volume of inter-cluster traffic (= the
data SPBC must log) is minimized, under two constraints:

* ranks of one physical node stay together (a node crash kills them all);
* clusters are balanced in rank count (each failure should roll back
  ~n/k processes).

Algorithm: contract the ``{(src, dst): bytes}`` pair sums to an
undirected node graph, grow k balanced parts greedily from
high-affinity seeds, then run Kernighan–Lin-style pairwise refinement
(balanced swaps only, never increasing the cut).  Both phases read the
sparse adjacency, never an n×n matrix.  This is deliberately a simple
deterministic heuristic — the paper's point (and Table 1's) only needs
a *good* partition, and section 6.6 explicitly notes the tool optimizes
total volume, producing imbalanced per-process log loads.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.clusters import ClusterMap
from repro.sim.network import Topology

#: Directed bytes sent src -> dst.
Pairs = Mapping[Tuple[int, int], float]
#: ``adj[a][b]``: bytes between vertices a != b, both directions summed.
Adjacency = List[Dict[int, float]]

#: Refinement stops after this many passes even without a fixed point.
MAX_PASSES = 8


def cut_bytes(pairs: Pairs, assignment: Sequence[int]) -> float:
    """Bytes sent across parts: the volume logged under ``assignment``."""
    return sum(b for (s, d), b in pairs.items() if assignment[s] != assignment[d])


def _node_cut(adj: Adjacency, parts: Sequence[int]) -> float:
    """Twice the weight of the node-graph edges crossing ``parts``."""
    return sum(
        w for a, nbrs in enumerate(adj) for b, w in nbrs.items() if parts[a] != parts[b]
    )


def _adjacency(pairs: Pairs, topology: Topology) -> Adjacency:
    """Contract the pair sums to the undirected node graph."""
    adj: Adjacency = [{} for _ in range(topology.nnodes)]
    for (src, dst), nbytes in pairs.items():
        a, b = topology.node_of(src), topology.node_of(dst)
        if a != b:
            adj[a][b] = adj[a].get(b, 0) + nbytes
            adj[b][a] = adj[b].get(a, 0) + nbytes
    return adj


def greedy_kway(adj: Adjacency, k: int) -> List[int]:
    """Grow k balanced parts greedily by affinity to the current part."""
    n = len(adj)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if n % k:
        raise ValueError(f"{k} parts do not evenly divide {n} vertices")
    assignment = [-1] * n
    unassigned = set(range(n))
    total = {v: sum(nbrs.values()) for v, nbrs in enumerate(adj)}
    for part in range(k):
        aff: Dict[int, float] = {}
        for i in range(n // k):
            # The seed is the heaviest-connected vertex, then each pick
            # the one most tied to the part; ties go to the lower index.
            score = aff if i else total
            pick = max(unassigned, key=lambda v: (score.get(v, 0), -v))
            assignment[pick] = part
            unassigned.discard(pick)
            for u, w in adj[pick].items():
                if u in unassigned:
                    aff[u] = aff.get(u, 0) + w
    return assignment


def refine_kl(adj: Adjacency, assignment: Sequence[int]) -> List[int]:
    """Kernighan–Lin-style refinement: balanced pairwise swaps that
    strictly reduce the cut, scanned in index order until a fixed point
    (or :data:`MAX_PASSES`).  ``conn[v][p]``, v's weight to part p, is
    kept current across swaps, so each candidate's gain is O(1)."""
    a = list(assignment)
    conn: Adjacency = [{} for _ in a]
    for v, nbrs in enumerate(adj):
        for u, w in nbrs.items():
            conn[v][a[u]] = conn[v].get(a[u], 0) + w

    def move(v: int, src: int, dst: int) -> None:
        a[v] = dst
        for u, w in adj[v].items():
            conn[u][src] -= w
            conn[u][dst] = conn[u].get(dst, 0) + w

    for _pass in range(MAX_PASSES):
        improved = False
        for v in range(len(a)):
            cv = conn[v]
            for u in range(v + 1, len(a)):
                pv, pu = a[v], a[u]
                if pv == pu:
                    continue
                cu = conn[u]
                gain = (
                    cv.get(pu, 0) - cv.get(pv, 0)
                    + cu.get(pv, 0) - cu.get(pu, 0)
                    - 2 * adj[v].get(u, 0)
                )
                if gain > 1e-9:
                    move(v, pv, pu)
                    move(u, pu, pv)
                    improved = True
        if not improved:
            break
    return a


def cluster_by_communication(
    weights: Union[Pairs, Sequence[Sequence[float]]],
    k: int,
    topology: Optional[Topology] = None,
) -> ClusterMap:
    """Full pipeline: node contraction, greedy growth, KL refinement;
    returns a rank-level :class:`ClusterMap`.

    ``weights`` are directed bytes src -> dst, as ``{(src, dst): bytes}``
    pair sums or as a square matrix (read once into pairs).  Without a
    ``topology`` every rank is its own vertex, which only a matrix can
    size.
    """
    if not isinstance(weights, Mapping):
        rows = list(weights)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("weights must be a square matrix")
        if topology is not None and topology.nranks != len(rows):
            raise ValueError("topology size disagrees with the weight matrix")
        topology = topology or Topology(len(rows), 1)
        weights = {
            (i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x
        }
    elif topology is None:
        raise ValueError("pair sums need a topology for the rank count")
    adj = _adjacency(weights, topology)
    if k == len(adj):
        node_assignment = list(range(k))
    else:
        grown = greedy_kway(adj, k)
        node_assignment = refine_kl(adj, grown)
        assert _node_cut(adj, node_assignment) <= _node_cut(adj, grown) + 1e-9, (
            "refinement must not worsen the cut"
        )
    # Normalize part ids to 0..k-1 in first-appearance order.
    remap: Dict[int, int] = {}
    for part in node_assignment:
        remap.setdefault(part, len(remap))
    return ClusterMap(
        [remap[node_assignment[topology.node_of(r)]] for r in range(topology.nranks)]
    )
