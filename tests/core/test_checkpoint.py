"""Coordinated checkpointing inside clusters (Algorithm 1 lines 13-15)."""

import pytest

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBC, SPBCConfig
from repro.harness.runner import run_spbc
from repro.apps.synthetic import halo2d_app, ring_app
from repro.storage.backend import make_backend


def run_with_ckpt(app, nranks, k, every, **kw):
    clusters = ClusterMap.block(nranks, k)
    cfg = SPBCConfig(clusters=clusters, checkpoint_every=every)
    return run_spbc(app, nranks, clusters, config=cfg, **kw)


def test_checkpoints_taken_every_n_iterations():
    res = run_with_ckpt(ring_app(iters=6, compute_ns=5_000), 8, 2, every=2, ranks_per_node=4)
    spbc = res.hooks
    for r in range(8):
        rounds = spbc.storage.rounds_of(r)
        assert rounds == [1, 2, 3]  # iterations 2, 4, 6 (calls 2,4,6)


def test_no_checkpoints_when_disabled():
    res = run_with_ckpt(ring_app(iters=4, compute_ns=5_000), 8, 2, every=None, ranks_per_node=4)
    assert res.hooks.storage.writes == 0


def test_checkpoint_rounds_consistent_within_cluster():
    res = run_with_ckpt(
        halo2d_app(iters=6, compute_ns=20_000), 16, 4, every=3, ranks_per_node=4
    )
    spbc = res.hooks
    for c in range(4):
        rounds = {tuple(spbc.storage.rounds_of(r)) for r in spbc.clusters.members(c)}
        assert len(rounds) == 1  # all members agree on the rounds taken


def test_checkpoint_saves_app_state_and_seqnums():
    res = run_with_ckpt(ring_app(iters=4, compute_ns=5_000), 8, 2, every=2, ranks_per_node=4)
    spbc = res.hooks
    ckpt = spbc.storage.load_latest(3)
    assert ckpt.app_state["iter"] == 3  # captured at the start of iteration 4 (call 4)
    wcid = res.world.comm_world.comm_id
    # rank 3 already sent 3 messages to rank 4 before the checkpoint
    assert ckpt.chan_seq[(wcid, 4)] == 3
    assert ckpt.log_snapshot["records_logged"] == 3


def test_checkpoint_cut_has_no_inflight_intra_messages():
    """The drained-cut property: at checkpoint time every intra-cluster
    send has arrived (counters match in the saved snapshot)."""
    res = run_with_ckpt(
        halo2d_app(iters=4, compute_ns=10_000), 16, 2, every=2, ranks_per_node=8
    )
    spbc = res.hooks
    # Reconstruct pairwise counters from the saved checkpoints.
    for c in range(2):
        members = spbc.clusters.members(c)
        # after the run, live counters must also match pairwise
        for a in members:
            for b in members:
                if a == b:
                    continue
                sent = spbc.state[a].intra_sent.get(b, 0)
                arrived = spbc.state[b].intra_arrived.get(a, 0)
                assert sent == arrived, (a, b)


def test_logs_saved_with_checkpoint():
    res = run_with_ckpt(ring_app(iters=4, msg_bytes=256, compute_ns=5_000), 4, 4, every=4, ranks_per_node=1)
    spbc = res.hooks
    ckpt = spbc.storage.load_latest(0)
    snap_bytes = ckpt.log_snapshot["bytes_logged"]
    assert snap_bytes == 3 * 256  # 3 sends before the 4th-iteration boundary


def test_shared_storage_instance():
    storage = make_backend("memory")
    clusters = ClusterMap.block(4, 2)
    cfg = SPBCConfig(clusters=clusters, checkpoint_every=2, storage=storage)
    run_spbc(ring_app(iters=4, compute_ns=1_000), 4, clusters, config=cfg, ranks_per_node=2)
    assert storage.writes == 4 * 2  # 4 ranks x 2 rounds
    assert all(storage.load_latest(r) is not None for r in range(4))
