#!/usr/bin/env python3
"""The hybrid protocol's core trade-off, on MiniGhost (paper section 6.6).

Sweeps the cluster count and reports, per configuration:

* how many ranks roll back on a failure (containment),
* the per-process log growth (memory cost, Table 1's metric),
* the recovery speed (Figure 5's metric),
* a multi-level-checkpoint context line: how long the logs + state take
  to persist on node-local storage vs the PFS.

Run:  python examples/clustering_tradeoff.py   (~1 min)
"""

from repro.apps.base import get_app
from repro.apps.calibration import PAPER_NET
from repro.core.emulated import ReplayPlan
from repro.harness.runner import run_emulated_recovery, run_native, run_spbc
from repro.core.clusters import ClusterMap
from repro.clustering.partition import cluster_by_communication
from repro.sim.network import Topology
from repro.storage.model import local_ssd_tier, pfs_tier
from repro.util.table import format_table
from repro.util.units import MB, mb_per_s

NRANKS = 64
RPN = 8
APP_PARAMS = dict(iters=3, nvars=12)


def main():
    app = get_app("minighost").factory(**APP_PARAMS)
    print(f"profiling MiniGhost on {NRANKS} ranks...")
    native = run_native(app, NRANKS, ranks_per_node=RPN, net_params=PAPER_NET, trace=False)
    full = run_spbc(
        app, NRANKS, ClusterMap.singletons(NRANKS),
        ranks_per_node=RPN, net_params=PAPER_NET,
    )
    pairs = full.trace.send_pair_bytes()  # (src, dst) -> bytes sent
    topo = Topology(NRANKS, RPN)

    rows = []
    for k in sorted({2, 4, 8, NRANKS // RPN}):
        cm = cluster_by_communication(pairs, k, topology=topo)
        assign = cm.cluster_of
        logged = [0] * NRANKS
        for (src, dst), nbytes in pairs.items():
            if assign[src] != assign[dst]:
                logged[src] += nbytes
        plan = ReplayPlan.from_run(full.hooks, full.makespan_ns, clusters=cm)
        rec = run_emulated_recovery(
            app, NRANKS, cm, plan,
            reference_ns=native.makespan_ns,
            ranks_per_node=RPN, net_params=PAPER_NET,
        )
        max_logged = max(logged)
        rows.append([
            k,
            NRANKS // k,
            mb_per_s(int(sum(logged) / NRANKS), full.makespan_ns),
            mb_per_s(max_logged, full.makespan_ns),
            rec.normalized,
            local_ssd_tier().write_time_ns(max_logged + 200 * MB) / 1e6,
            pfs_tier().write_time_ns(max_logged + 200 * MB, NRANKS) / 1e6,
        ])

    print(format_table(
        ["clusters", "ranks/failure", "avg log MB/s", "max log MB/s",
         "recovery (norm.)", "ckpt->SSD (ms)", "ckpt->PFS (ms)"],
        rows,
        title=f"\nMiniGhost, {NRANKS} ranks: containment vs logging vs recovery",
        float_fmt="{:.2f}",
    ))
    print(
        "\nReading the table: more clusters -> fewer ranks roll back and\n"
        "recovery gets faster (more messages come from logs), but every\n"
        "process logs more. The paper's section 6.6 discussion, quantified."
    )


if __name__ == "__main__":
    main()
