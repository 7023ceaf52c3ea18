"""Checkpoint bodies below the log-GC floor are released.

Once a rank's log-GC floor reaches round ``g`` no restart can target a
round below the first round of ``g``'s delta chain, so the backend drops
those rounds' restart bodies.  Round numbers, timestamps, sizes and
payloads stay: commit history, chain walks and costs are unchanged, and
restoring a released round is refused by name.
"""

from __future__ import annotations

import pytest

from repro.apps.synthetic import ring_app
from repro.ckptdata.plane import CkptPayload
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.checkpoint import Checkpoint
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_spbc
from repro.journal.recorder import commit_history_of
from repro.storage.backend import TieredBackend
from repro.storage.model import pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan
from repro.util.units import MB

NRANKS = 64
ROUNDS = 40


def _ckpt(round_no: int, base_round=None) -> Checkpoint:
    payload = CkptPayload(
        kind="full" if base_round is None else "delta",
        round_no=round_no,
        full_bytes=MB,
        delta_bytes=MB,
        base_round=base_round,
        stored_bytes=MB,
        compress_ns=0,
    )
    return Checkpoint(
        rank=0, round_no=round_no, taken_at_ns=round_no, app_state={"i": 1},
        chan_seq={}, lr={}, arrived={}, ls={}, pattern_state={},
        unexpected=[], log_snapshot={}, nbytes=MB, payload=payload,
    )


def _body_kept(backend, rank: int, rnd: int) -> bool:
    return not backend.retrieve(rank, rnd).ckpt.released


@pytest.fixture(scope="module", params=["memory", "tiered"])
def ring_run(request):
    """A 64-rank ring that checkpoints every one of its 40 iterations
    (synchronous storage; the tiered run writes deltas, fulls every 4th
    round and the PFS every 4th round)."""
    cm = ClusterMap.block(NRANKS, NRANKS // 8)
    cfg = SPBCConfig(clusters=cm, checkpoint_every=1)
    kw = {}
    if request.param == "tiered":
        kw = dict(
            storage="tiered:ram@1,pfs@4", ckpt_data="incr:4:zlib-like",
            profile=TEST_PROFILE,
        )
    app = ring_app(iters=ROUNDS, msg_bytes=4096, compute_ns=200_000)
    return run_spbc(app, NRANKS, cm, config=cfg, trace=False, **kw)


def test_bodies_kept_only_from_the_floor_chain_base_up(ring_run):
    spbc = ring_run.hooks
    backend = spbc.storage
    for rank in range(NRANKS):
        floor = spbc.state[rank].gc_round_sent
        assert floor >= ROUNDS - 4
        chain = backend.retrieve(rank, floor).chain or (floor,)
        assert backend.rounds_of(rank) == list(range(1, ROUNDS + 1))
        for rnd in backend.rounds_of(rank):
            assert _body_kept(backend, rank, rnd) == (rnd >= chain[0]), rnd
    # Nothing the end-of-run observables read was dropped.
    history = commit_history_of(spbc)
    assert all(len(history[r]) == ROUNDS for r in range(NRANKS))
    assert all(t > 0 for rows in history.values() for _rnd, t in rows)


def test_a_released_round_is_not_restorable(ring_run):
    spbc = ring_run.hooks
    ckpt = spbc.storage.retrieve(5, 1).ckpt
    assert ckpt.released and ckpt.lr is None and ckpt.taken_at_ns > 0
    with pytest.raises(ValueError, match="rank 5: checkpoint round 1 was released"):
        spbc.restore_rank(ring_run.world.runtimes[5], ckpt)
    with pytest.raises(ValueError, match="rank 5: checkpoint round 1"):
        ckpt.require_body()


def test_tiered_release_stops_at_the_chain_base_and_is_incremental():
    b = TieredBackend(
        MultiLevelPlan(tiers=[ram_tier(), pfs_tier()], periods=[1, 3])
    )
    bases = {1: None, 2: 1, 3: 2, 4: None, 5: 4, 6: 5}
    for rnd, base in bases.items():
        b.save(_ckpt(rnd, base))
    b.release_below(0, 6)  # chain of 6 is 4, 5, 6
    assert [_body_kept(b, 0, r) for r in range(1, 7)] == [False] * 3 + [True] * 3
    assert b._released_below[0] == 4
    b.release_below(0, 3)  # a lower floor never moves the watermark back
    assert b._released_below[0] == 4
    assert [_body_kept(b, 0, r) for r in range(1, 7)] == [False] * 3 + [True] * 3
    assert b.restorable_rounds(0) == [1, 2, 3, 4, 5, 6]
    assert b.retrieve(0, 3).chain == (1, 2, 3)

