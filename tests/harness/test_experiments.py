"""Experiment-driver helpers: scaled cluster sweeps, post-hoc log
accounting from a single logging run."""

import json
import pathlib

import pytest

from repro.apps.calibration import PAPER_NET
from repro.core.clusters import ClusterMap
from repro.harness import experiments
from repro.harness.experiments import (
    EXPERIMENTS,
    PAPER_APPS,
    LoggingRun,
    _sent_pair_bytes,
    app_factory,
    cluster_counts,
    fig6_hydee_vs_spbc,
    make_logging_run,
    online_comparison,
    table1_log_growth,
    Fig5Row,
    Table1Row,
)
from repro.harness.runner import run_spbc


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
    assert logged == [0, 4000, 0, 4000, 0, 4000, 0, 4000]
    # pure logging: everyone logs everything they send
    singles = run.per_rank_logged_bytes(ClusterMap.singletons(8))
    assert singles == [4000] * 8


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


@pytest.mark.parametrize("app", PAPER_APPS)
def test_logging_run_pairs_are_the_traced_send_pairs(app):
    """The sender logs of a pure-logging run sum to exactly what a
    traced twin of the same run sent, without recording a trace."""
    n, rpn = 8, 2
    run = make_logging_run(app, n, rpn)
    assert len(run.result.trace) == 0
    twin = run_spbc(
        app_factory(app), n, ClusterMap.singletons(n),
        ranks_per_node=rpn, net_params=PAPER_NET,
    )
    assert twin.makespan_ns == run.duration_ns
    ref = twin.trace.send_pair_bytes()
    assert sum(ref.values()) > 0
    assert run.pair_bytes == ref


def test_fig6_logging_run_is_traced(monkeypatch):
    """HydEE's dependency vectors come from the trace: Figure 6 alone
    asks the logging run to record one."""
    runs = []

    def spy(*args, **kwargs):
        run = make_logging_run(*args, **kwargs)
        runs.append(run)
        return run

    monkeypatch.setattr(experiments, "make_logging_run", spy)
    rows = fig6_hydee_vs_spbc(apps=("mg",), k=2, nranks=8, ranks_per_node=2)
    assert len(rows) == 1 and len(runs) == 1
    assert len(runs[0].result.trace) > 0


def test_sent_pair_bytes_refuses_a_collected_log():
    run = make_logging_run("ring", nranks=8, ranks_per_node=2, overrides=dict(
        iters=3, msg_bytes=100, compute_ns=1_000,
    ))
    hooks = run.result.hooks
    assert _sent_pair_bytes(hooks, 8) == run.pair_bytes
    log = hooks.state[5].log
    (comm_id, dst), = log.channel_keys()
    assert log.collect(comm_id, dst, 1) == 1
    with pytest.raises(ValueError, match="rank 5"):
        _sent_pair_bytes(hooks, 8)


def test_online_ablation_runs_at_the_scale_it_is_given():
    """Global rollback restarts every rank of the world it is given (the
    driver used to clamp itself to 32 ranks)."""
    rows = online_comparison(nranks=64, ranks_per_node=8)
    assert [(r.clusters, r.restarted) for r in rows] == [
        (1, 64), (2, 32), (4, 16), (8, 8)
    ]


def test_an_ablation_studies_one_app():
    with pytest.raises(ValueError, match="one app"):
        EXPERIMENTS["ablation_window"].run(apps=("milc", "amg"))


RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _committed() -> dict:
    return {p.stem: json.loads(p.read_text()) for p in RESULTS.glob("*.json")}


def test_every_committed_artefact_is_an_experiment_row():
    """``pytest benchmarks/`` writes results only through the table, so a
    JSON no row names was written some other way."""
    assert set(_committed()) == {
        row.artefact or name for name, row in EXPERIMENTS.items()
    }


def _ranks_in_rows(stem: str, rows: list) -> set:
    """The rank counts a committed artefact's rows show, where they show
    any."""
    if stem == "table1":
        return {max(r["clusters"] for r in rows)}  # pure message logging
    if stem == "ablation_containment":
        return {r["clusters"] * r["rolled_back"] for r in rows}
    if stem == "ablation_online":  # block maps: k clusters of n/k ranks
        return {r["clusters"] * r["restarted"] for r in rows}
    return {r["nranks"] for r in rows if "nranks" in r}


def test_committed_header_is_the_rank_count_the_rows_ran_at():
    shown = {
        stem: _ranks_in_rows(stem, data["rows"])
        for stem, data in _committed().items()
    }
    assert {stem for stem, ranks in shown.items() if ranks} >= {
        "table1", "checkpoint_cost", "blastradius", "deltachain", "ioverlap",
        "ablation_containment", "ablation_online",
    }
    for stem, data in _committed().items():
        if shown[stem]:
            assert shown[stem] == {data["nranks"]}, stem
