"""Scale smoke: memory is linear in rank count.

A 16384-rank exact ring must finish with a few hundred MiB of resident
growth.  With any per-pair (nranks x nranks) container in the simulator
this run needs gigabytes — the flat channel table alone was 2 GiB — so
the bound is the executable form of "no O(n^2) state".  The CI
``perf-smoke`` job runs this file under ``ulimit -v`` as well.
"""

import resource

from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.harness.runner import run_spbc

NRANKS = 16384
MAX_GROWTH_MIB = 400  # ~150 MiB measured


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def test_16384_rank_exact_ring_runs_in_linear_memory():
    before = _maxrss_mib()
    res = run_spbc(
        ring_app(iters=2, msg_bytes=4096, compute_ns=200_000),
        NRANKS, ClusterMap.block(NRANKS, 2048), trace=False,
    )
    growth = _maxrss_mib() - before
    assert len(res.results) == NRANKS
    # Every rank sends to its successor: O(n) channel entries.
    assert sum(1 for _ in res.world.network.chan_state_items()) <= 4 * NRANKS
    assert growth < MAX_GROWTH_MIB, f"ru_maxrss grew {growth:.0f} MiB"
