"""Rank lanes of a live run: every application compute phase reaches the
timeline, through the same call the apps make (``ctx.compute``)."""

from collections import Counter

from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.harness.runner import run_spbc
from repro.obs import PID_RANKS, Telemetry

NRANKS = 8
ITERS = 3


def test_every_compute_phase_is_a_rank_span():
    tele = Telemetry()
    run_spbc(
        ring_app(iters=ITERS, msg_bytes=1024, compute_ns=50_000),
        NRANKS, ClusterMap.block(NRANKS, 2), ranks_per_node=4, telemetry=tele,
    )
    spans = [
        e for e in tele.to_chrome()["traceEvents"]
        if e["ph"] == "X" and e["pid"] == PID_RANKS
    ]
    names = Counter(e["name"] for e in spans)
    assert names["compute"] == NRANKS * ITERS
    per_rank = Counter(e["tid"] for e in spans if e["name"] == "compute")
    assert per_rank == dict.fromkeys(range(NRANKS), ITERS)
