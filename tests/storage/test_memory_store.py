"""The free in-memory store under the incremental data plane and crashes.

The paper's configuration ("none of our experiments include
checkpointing" I/O): writes and restart reads cost nothing, and no copy
dies with a node.  A 32-rank ring checkpoints every iteration on
``storage="memory"`` with ``incr:4:zlib-like`` payloads and survives one
process crash and one node crash.  The values below are pinned: the data
plane keeps writing deltas between its periodic fulls (no durable round
forces a full), both restarts land on the latest round, and the log-GC
floor still advances to the end of the run.
"""

from __future__ import annotations

import pytest

from repro.apps.synthetic import ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule

NRANKS = 32
# 14 995 037 ns failure-free: a process crash at 0.3 and a node crash at
# 0.6 of it.
SCHEDULE = ((4_498_511, 5, "process"), (8_997_022, 18, "node"))


def _last_round(rank: int) -> int:
    """The restarted clusters (1 and 4) commit one round more than the
    40 iterations."""
    return 41 if rank // 4 in (1, 4) else 40


@pytest.fixture(scope="module")
def crashed_run():
    cm = ClusterMap.block(NRANKS, 8)
    return run_failure_schedule(
        ring_app(iters=40, msg_bytes=4096, compute_ns=200_000),
        NRANKS,
        cm,
        SCHEDULE,
        config=SPBCConfig(clusters=cm, checkpoint_every=1),
        ranks_per_node=4,
        trace=False,
        storage="memory",
        ckpt_data="incr:4:zlib-like",
        profile=TEST_PROFILE,
    )


def test_the_data_plane_writes_deltas_between_fulls(crashed_run):
    plane = crashed_run.hooks.config.ckpt_data
    assert (plane.full_payloads, plane.delta_payloads) == (332, 960)


def test_each_crash_restarts_from_the_latest_round_for_free(crashed_run):
    events = crashed_run.failures
    assert [(e.kind, e.cluster, e.restarted_from_round) for e in events] == [
        ("process", 1, 12),
        ("node", 4, 18),
    ]
    for e in events:
        assert e.restored_tier == "memory"
        assert e.restore_read_ns == 0
        assert e.invalidated_copies == 0
        assert e.cancelled_flushes == 0
    assert crashed_run.makespan_ns == 19_779_359


def test_writes_are_free_and_every_round_stays_restorable(crashed_run):
    storage = crashed_run.hooks.storage
    assert storage.write_ns_total == 0
    assert storage.writes == 1288
    assert storage.bytes_written == 29_095_402
    for rank in range(NRANKS):
        last = _last_round(rank)
        assert storage.rounds_of(rank) == list(range(1, last + 1))
        assert storage.restorable_rounds(rank) == list(range(1, last + 1))
        assert storage.guaranteed_round(rank) == last


def test_the_log_gc_floor_advances_to_the_end(crashed_run):
    spbc = crashed_run.hooks
    for rank in range(NRANKS):
        assert spbc.state[rank].gc_round_sent == _last_round(rank)
