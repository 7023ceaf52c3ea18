"""Experiment-driver helpers: scaled cluster sweeps, post-hoc log
accounting from a single logging run."""

import numpy as np
import pytest

from repro.core.clusters import ClusterMap
from repro.harness.experiments import (
    EXPERIMENTS,
    LoggingRun,
    cluster_counts,
    make_logging_run,
    table1_log_growth,
    Fig5Row,
    Table1Row,
)


def test_cluster_counts_scaling():
    # paper scale: 512 ranks on 64 nodes -> {2,4,8,16,64,512}
    assert cluster_counts(512, 8) == [2, 4, 8, 16, 64, 512]
    # default bench scale
    assert cluster_counts(128, 8) == [2, 4, 8, 16, 128]
    # tiny scale keeps only feasible sweep points
    assert cluster_counts(16, 4) == [2, 4, 16]


def test_logging_run_posthoc_accounting():
    run = make_logging_run("ring", nranks=8, ranks_per_node=2, overrides=dict(
        iters=4, msg_bytes=1000, compute_ns=10_000,
    ))
    # ring: every rank sends 4 messages of 1000B to its right neighbor
    cm = ClusterMap.block(8, 4)
    logged = run.per_rank_logged_bytes(cm)
    # ranks 1,3,5,7 sit at block boundaries (their right neighbor is in
    # the next cluster): they log 4 * 1000 bytes; others log nothing
    assert [int(b) for b in logged] == [0, 4000, 0, 4000, 0, 4000, 0, 4000]
    # pure logging: everyone logs everything they send
    singles = run.per_rank_logged_bytes(ClusterMap.singletons(8))
    assert all(int(b) == 4000 for b in singles)


def test_logging_run_clustering_cache_and_node_alignment():
    run = make_logging_run("ring", nranks=8, ranks_per_node=2, overrides=dict(
        iters=2, msg_bytes=500, compute_ns=5_000,
    ))
    cm1 = run.clustering_for(2)
    cm2 = run.clustering_for(2)
    assert cm1 is cm2  # cached
    from repro.sim.network import Topology

    cm1.validate_node_aligned(Topology(8, 2))
    assert run.clustering_for(8).nclusters == 8  # == ranks: singletons


def test_table1_row_and_formatting():
    rows = table1_log_growth(
        apps=["ring"], nranks=8, ranks_per_node=2, counts=[2, 8],
        overrides={"ring": dict(iters=3, msg_bytes=2048, compute_ns=20_000)},
    )
    assert {r.k for r in rows} == {2, 8}
    eps = 1e-9
    for r in rows:
        assert r.max_mb_s >= r.avg_mb_s - eps
        assert r.avg_mb_s >= r.min_mb_s - eps
        assert r.min_mb_s >= 0
    text = EXPERIMENTS["table1"].render(rows)
    assert "ring.avg" in text and "ring.max" in text


def test_fig5_formatting_grid():
    rows = [
        Fig5Row(app="a", k=2, rework_ns=90, native_ns=100, replayed_records=1, replayed_bytes=10),
        Fig5Row(app="a", k=4, rework_ns=80, native_ns=100, replayed_records=2, replayed_bytes=20),
    ]
    text = EXPERIMENTS["fig5"].render(rows)
    assert "0.900" in text and "0.800" in text
    assert "2 clusters" in text and "4 clusters" in text
    assert rows[0].normalized == pytest.approx(0.9)
