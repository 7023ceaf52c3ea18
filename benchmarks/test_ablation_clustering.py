"""Ablation: clustering strategy (paper sections 6.2 / 6.6).

Compares the communication-driven partitioner against naive block and
round-robin maps on the logged volume, and quantifies the containment
trade-off the discussion section raises: smaller clusters recover faster
but log more."""

import pytest

from repro.clustering.partition import cut_bytes
from repro.core.clusters import ClusterMap
from repro.harness.experiments import make_logging_run
from repro.sim.network import Topology
from repro.util.table import format_table
from repro.util.units import mb_per_s


def clustering_comparison(nranks, ranks_per_node, appname="minighost", k=8):
    n, rpn = nranks, ranks_per_node
    run = make_logging_run(appname, n, rpn)
    sym = run.bytes_matrix + run.bytes_matrix.T
    topo = Topology(n, rpn)
    strategies = {
        "comm-driven": run.clustering_for(k),
        "block": ClusterMap.block(n, k),
        "round-robin(nodes)": ClusterMap(
            [(r // rpn) % k for r in range(n)]
        ),
    }
    rows = []
    for name, cm in strategies.items():
        logged = run.per_rank_logged_bytes(cm)
        rows.append(
            (
                name,
                cut_bytes(sym, cm.cluster_of) / 2**20,
                mb_per_s(int(logged.mean()), run.duration_ns),
                mb_per_s(int(logged.max()), run.duration_ns),
            )
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_clustering_strategy_ablation(benchmark, record_rows, scale):
    rows = benchmark.pedantic(
        clustering_comparison, kwargs=scale, rounds=1, iterations=1
    )
    rendered = format_table(
        ["strategy", "cut (MiB)", "avg MB/s", "max MB/s"],
        [list(r) for r in rows],
        title="Ablation: clustering strategy (minighost, 8 clusters)",
        float_fmt="{:.2f}",
    )
    record_rows(
        "ablation_clustering",
        [dict(strategy=r[0], cut_mib=r[1], avg=r[2], max=r[3]) for r in rows],
        rendered,
    )
    by = {r[0]: r for r in rows}
    # The tool's partition logs no more than the naive strategies.
    assert by["comm-driven"][1] <= by["block"][1] + 1e-6
    assert by["comm-driven"][1] <= by["round-robin(nodes)"][1] + 1e-6
    # Round-robin across nodes destroys locality for a stencil code.
    assert by["round-robin(nodes)"][1] > by["comm-driven"][1]


@pytest.mark.benchmark(group="ablation")
def test_containment_tradeoff(benchmark, record_rows, scale):
    """Smaller clusters = fewer ranks roll back but more bytes logged
    (the hybrid design's core trade-off, paper sections 2.2 and 6.6)."""

    def sweep():
        n = scale["nranks"]
        run = make_logging_run("milc", n, scale["ranks_per_node"])
        rows = []
        for k in (2, 4, 8, 16):
            if k > n:
                continue
            cm = run.clustering_for(k)
            logged = run.per_rank_logged_bytes(cm)
            rows.append(
                (
                    k,
                    n // k,  # ranks rolled back per failure
                    mb_per_s(int(logged.mean()), run.duration_ns),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = format_table(
        ["clusters", "ranks rolled back", "avg log MB/s"],
        [list(r) for r in rows],
        title="Ablation: failure containment vs logging (milc)",
        float_fmt="{:.2f}",
    )
    record_rows(
        "ablation_containment",
        [dict(clusters=r[0], rolled_back=r[1], avg=r[2]) for r in rows],
        rendered,
    )
    rollback = [r[1] for r in rows]
    logged = [r[2] for r in rows]
    assert rollback == sorted(rollback, reverse=True)
    assert logged == sorted(logged)
