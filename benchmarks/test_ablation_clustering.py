"""Ablation: clustering strategy (paper sections 6.2 / 6.6).

Compares the communication-driven partitioner against naive block and
round-robin maps on the logged volume, and quantifies the containment
trade-off the discussion section raises: smaller clusters recover faster
but log more."""

import pytest


@pytest.mark.benchmark(group="ablation")
def test_clustering_strategy_ablation(regenerate):
    by = {r.strategy: r.cut_mib for r in regenerate("ablation_clustering")}
    # The tool's partition logs no more than the naive strategies.
    assert by["comm-driven"] <= by["block"] + 1e-6
    assert by["comm-driven"] <= by["round-robin(nodes)"] + 1e-6
    # Round-robin across nodes destroys locality for a stencil code.
    assert by["round-robin(nodes)"] > by["comm-driven"]


@pytest.mark.benchmark(group="ablation")
def test_containment_tradeoff(regenerate):
    """Smaller clusters = fewer ranks roll back but more bytes logged
    (the hybrid design's core trade-off, paper sections 2.2 and 6.6)."""
    rows = regenerate("ablation_containment")
    rollback = [r.rolled_back for r in rows]
    logged = [r.avg for r in rows]
    assert rollback == sorted(rollback, reverse=True)
    assert logged == sorted(logged)
