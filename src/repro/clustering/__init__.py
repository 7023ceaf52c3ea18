"""Communication-driven process clustering (the paper's tool from [30]).

Pipeline: profile a few iterations of the application, build the
rank-to-rank communication-volume matrix, contract it to the node level
(ranks of one physical node always cluster together), and partition the
node graph into k balanced clusters minimizing the logged volume (the
weight of edges cut).
"""

from repro.clustering.partition import (
    cluster_by_communication,
    cut_bytes,
    greedy_kway,
    refine_kl,
)

__all__ = [
    "cluster_by_communication",
    "cut_bytes",
    "greedy_kway",
    "refine_kl",
]
