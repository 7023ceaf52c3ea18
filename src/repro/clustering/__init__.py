"""Communication-driven process clustering (the paper's tool from [30]).

Pipeline: profile a few iterations of the application, sum the bytes
each rank sent to each other rank into sparse ``{(src, dst): bytes}``
pairs, contract them to an undirected node graph (ranks of one physical
node always cluster together), and partition it into k balanced
clusters minimizing the logged volume (the weight of edges cut).
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
