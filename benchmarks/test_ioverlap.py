"""I/O overlap: async checkpoint flush vs the synchronous burst.

The event-driven I/O scheduler's acceptance shape: on apps with sizable
modeled checkpoints, committing on the local tiers and draining the PFS
copy in the background must *strictly* reduce the per-rank checkpoint
stall (the paper's scalability argument is exactly that the shared-PFS
burst is what blocks the app), and a node failure injected while a
flush is still draining must restart from the last *fully drained*
round — an in-flight copy is never restorable.

Shape targets:

* async stall < sync stall on every app (strictly, and by a wide
  margin: the PFS burst dominates the sync stall at 128 ranks);
* async makespan <= sync makespan (the hidden drain overlaps compute);
* the mid-flush failure cancels the dead node's flows and restarts
  from the newest round whose drain had completed cluster-wide.
"""

import pytest

from repro.harness.experiments import IOVERLAP_APPS


@pytest.mark.benchmark(group="ioverlap")
def test_ioverlap_async_flush_reduces_stall(regenerate):
    rows = regenerate(
        "ioverlap",
        lambda r: dict(app=r.app, mode=r.mode, nranks=r.nranks, rounds=r.rounds,
                       stall_ms_per_rank=r.stall_ms_per_rank,
                       write_ms_per_rank=r.write_ms_per_rank,
                       bg_write_ms_per_rank=r.bg_write_ms_per_rank,
                       peak_pfs_writers=r.peak_pfs_writers,
                       makespan_ms=r.makespan_ns / 1e6,
                       fail_at_ms=r.fail_at_ns / 1e6,
                       inflight_round=r.inflight_round,
                       last_drained_round=r.last_drained_round,
                       restarted_from_round=r.restarted_from_round,
                       cancelled_flushes=r.cancelled_flushes,
                       restored_tier=r.restored_tier,
                       fail_makespan_ms=r.fail_makespan_ns / 1e6),
    )
    by = {(r.app, r.mode): r for r in rows}
    for name in IOVERLAP_APPS:
        sync, asyn = by[(name, "sync")], by[(name, "async")]
        # The headline: the background drain hides the PFS burst.
        assert asyn.stall_ms_per_rank < sync.stall_ms_per_rank, (name,)
        assert asyn.makespan_ns <= sync.makespan_ns, (name,)
        # Same checkpoint cadence in both modes.
        assert asyn.rounds == sync.rounds
        # The hidden work really happened (background drain observed).
        assert asyn.bg_write_ms_per_rank > 0
        # Crash mid-flush: the in-flight round is never restored; the
        # last cluster-wide drained round is.
        assert asyn.inflight_round > 0, (name, "no mid-flush window found")
        assert asyn.cancelled_flushes >= 1
        assert asyn.restarted_from_round == asyn.last_drained_round
        assert asyn.restarted_from_round < asyn.inflight_round
        assert asyn.restored_tier == "pfs"
