"""Cluster maps: the process partition SPBC is parameterized by.

A cluster map assigns every world rank to exactly one cluster.  The
paper's configurations always keep all ranks of a physical node in the
same cluster ("providing failure containment inside a node would be
useless since a node failure kills every process on it", section 6.1);
:meth:`ClusterMap.validate_node_aligned` checks that property.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.sim.network import Topology


class ClusterMap:
    """Immutable rank -> cluster assignment."""

    def __init__(self, cluster_of: Sequence[int]) -> None:
        if not cluster_of:
            raise ValueError("empty cluster map")
        self.cluster_of: List[int] = list(cluster_of)
        ids = sorted(set(self.cluster_of))
        if ids != list(range(len(ids))):
            raise ValueError(
                f"cluster ids must be contiguous 0..k-1, got {ids[:10]}..."
            )
        self._members: Dict[int, List[int]] = {}
        for rank, c in enumerate(self.cluster_of):
            self._members.setdefault(c, []).append(rank)

    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self.cluster_of)

    @property
    def nclusters(self) -> int:
        return len(self._members)

    def cluster(self, rank: int) -> int:
        return self.cluster_of[rank]

    def members(self, cluster: int) -> List[int]:
        return list(self._members[cluster])

    def is_intercluster(self, src: int, dst: int) -> bool:
        return self.cluster_of[src] != self.cluster_of[dst]

    def sizes(self) -> List[int]:
        return [len(self._members[c]) for c in range(self.nclusters)]

    # ------------------------------------------------------------------
    def validate_node_aligned(self, topology: Topology) -> None:
        """Raise if any physical node is split across clusters."""
        for node in range(topology.nnodes):
            ranks = topology.ranks_on_node(node)
            clusters = {self.cluster_of[r] for r in ranks}
            if len(clusters) > 1:
                raise ValueError(
                    f"node {node} is split across clusters {sorted(clusters)}"
                )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def block(cls, nranks: int, nclusters: int) -> "ClusterMap":
        """Contiguous equal blocks of ranks (the simplest node-aligned map
        when ranks are block-distributed over nodes)."""
        if not 1 <= nclusters <= nranks:
            raise ValueError(f"need 1 <= nclusters <= nranks, got {nclusters}")
        if nranks % nclusters != 0:
            raise ValueError(
                f"{nclusters} clusters do not evenly divide {nranks} ranks"
            )
        per = nranks // nclusters
        return cls([r // per for r in range(nranks)])

    @classmethod
    def singletons(cls, nranks: int) -> "ClusterMap":
        """One rank per cluster == pure message logging (Table 1's
        512-cluster column)."""
        return cls(list(range(nranks)))

    @classmethod
    def single(cls, nranks: int) -> "ClusterMap":
        """Everything in one cluster == pure coordinated checkpointing."""
        return cls([0] * nranks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClusterMap) and self.cluster_of == other.cluster_of

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClusterMap {self.nclusters} clusters over {self.nranks} ranks>"
