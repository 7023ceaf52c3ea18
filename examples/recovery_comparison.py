#!/usr/bin/env python3
"""Distributed vs centralized recovery: SPBC against HydEE on NAS LU.

LU's wavefront sweeps produce thousands of small, latency-bound messages
on deep dependency chains — the worst case for HydEE's coordinator,
which must order every replayed message behind everything it causally
depends on.  SPBC replays each channel independently and never
synchronizes (paper section 6.5 / Figure 6).

Run:  python examples/recovery_comparison.py   (~1 min)
"""

from repro.apps.base import get_app
from repro.apps.calibration import PAPER_NET
from repro.baselines.hydee import HydEEPlan, run_hydee_recovery
from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.harness.runner import run_emulated_recovery, run_native, run_spbc
from repro.util.table import format_table

NRANKS = 64
RPN = 8
K = 8
APP_PARAMS = dict(iters=4)


def main():
    app = get_app("lu").factory(**APP_PARAMS)
    clusters = ClusterMap.block(NRANKS, K)

    print(f"NAS LU, {NRANKS} ranks, {K} clusters")
    native = run_native(app, NRANKS, ranks_per_node=RPN, net_params=PAPER_NET, trace=False)
    print(f"failure-free: {native.makespan_ns/1e6:.1f} ms")

    res = run_spbc(app, NRANKS, clusters, ranks_per_node=RPN, net_params=PAPER_NET)
    plan = ReplayPlan.from_run(res.hooks, res.makespan_ns)
    print(f"logged messages to replay into the failed cluster: {plan.total_records}")

    spbc_rec = run_emulated_recovery(
        app, NRANKS, clusters, plan,
        reference_ns=native.makespan_ns, ranks_per_node=RPN, net_params=PAPER_NET,
    )

    hplan = HydEEPlan.from_run(res.hooks, res.trace, res.makespan_ns)
    hydee_rec = run_hydee_recovery(
        app, NRANKS, clusters, hplan,
        reference_ns=native.makespan_ns, ranks_per_node=RPN, net_params=PAPER_NET,
    )

    print(format_table(
        ["protocol", "rework (ms)", "normalized", "coordination msgs"],
        [
            ["SPBC", spbc_rec.rework_ns / 1e6, spbc_rec.normalized, 0],
            ["HydEE", hydee_rec.rework_ns / 1e6, hydee_rec.normalized,
             hydee_rec.grants + hydee_rec.acks],
        ],
        title="\nrecovery of the cluster containing rank 0",
        float_fmt="{:.3f}",
    ))
    ratio = hydee_rec.rework_ns / spbc_rec.rework_ns
    print(f"\nSPBC recovers {ratio:.2f}x faster than HydEE here.")
    print("SPBC < 1.0: recovery is *faster* than failure-free execution "
          "(skipped sends,\npre-replayed messages); HydEE pays a grant "
          "round-trip per replayed message\nthrough one serialized coordinator.")


if __name__ == "__main__":
    main()
