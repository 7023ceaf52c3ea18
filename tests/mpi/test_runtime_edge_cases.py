"""MPI runtime edge cases: request lifecycle, kill/restart semantics,
deferred sends, raw replay sends."""

import pytest

from repro.mpi.constants import ANY_SOURCE
from repro.mpi.hooks import ProtocolHooks
from repro.mpi.message import Envelope
from repro.mpi.runtime import World
from repro.mpi.context import RankContext
from repro.sim.process import ProcessStatus
from tests.conftest import results_of, run_world


def test_send_to_dead_runtime_raises():
    world = World(2, ranks_per_node=2)
    world.runtimes[0].kill()
    with pytest.raises(Exception, match="dead"):
        world.runtimes[0].isend(1, None, 8)


def test_recv_on_dead_runtime_raises():
    world = World(2, ranks_per_node=2)
    world.runtimes[1].kill()
    with pytest.raises(Exception, match="dead"):
        world.runtimes[1].irecv(0)


def test_kill_clears_matching_state():
    world = World(2, ranks_per_node=2)
    rt = world.runtimes[1]
    rt.irecv(src=0)
    assert rt.matching.posted_count == 1
    rt.kill()
    assert rt.matching.posted_count == 0
    rt.restart()
    assert rt.alive and rt.matching.posted_count == 0
    assert rt.chan_seq == {} and rt._coll_seq == {}


def test_isend_raw_preserves_seqnum_and_ident():
    world = World(2, ranks_per_node=2)
    env = Envelope(
        src=0, dst=1, tag=3, comm_id=world.comm_world.comm_id,
        seqnum=42, nbytes=64, payload="replayed", ident=(7, 9),
    )
    world.runtimes[0].isend_raw(env)
    got = []
    # received on rank 1's matching engine (unexpected)
    world.engine.run(detect_deadlock=False)
    unexpected = world.runtimes[1].matching.unexpected
    assert len(unexpected) == 1
    e = unexpected[0]
    assert e.seqnum == 42 and e.ident == (7, 9) and e.replayed


class DeferAll(ProtocolHooks):
    """Defers every send until told otherwise (a restarted rank whose
    peer's lastMessage has not arrived yet)."""

    def __init__(self):
        self.deferring = True

    def on_send(self, runtime, env):
        return ("defer" if self.deferring else True), 0


def test_release_deferred_flushes_in_order():
    """Deferred sends released after LS arrives keep their order."""
    hooks = DeferAll()
    world = World(2, ranks_per_node=2, hooks=hooks)
    rt = world.runtimes[0]
    wcid = world.comm_world.comm_id
    reqs = [rt.isend(1, f"m{i}", nbytes=16, tag=1) for i in range(3)]
    world.engine.run(detect_deadlock=False)
    assert world.runtimes[1].matching.unexpected_count == 0
    hooks.deferring = False
    rt.release_deferred(wcid, 1)
    world.engine.run(detect_deadlock=False)
    got = [e.payload for e in world.runtimes[1].matching.unexpected]
    assert got == ["m0", "m1", "m2"]
    # Eager sends complete lazily: observe them the way MPI code does.
    assert rt.testall(reqs)[0]


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
def test_release_deferred_wakes_an_owner_already_waiting(trace):
    """A send transmitted after its owner blocked on it completes by an
    event: parking the completion time for the next observation point
    would lose the wake-up, because the owner is already past it."""
    hooks = DeferAll()
    world = World(2, ranks_per_node=2, hooks=hooks, trace=trace)
    rt = world.runtimes[0]
    resumed_at = []

    def owner():
        sreq = rt.isend(1, "late", nbytes=4096, tag=1)
        yield from rt.wait(sreq)
        resumed_at.append(world.engine.now)

    def release():
        hooks.deferring = False
        rt.release_deferred(world.comm_world.comm_id, 1)

    world.launch(0, owner())
    world.engine.schedule(1_000, release)
    world.run()  # DeadlockError here when the wake-up is lost
    # Rank 0's only packet: its NIC went idle at the inject-done instant.
    inject_done_at = world.network._nic_free[0]
    assert inject_done_at > 1_000
    assert resumed_at == [inject_done_at]


def test_status_carries_comm_local_source():
    """MPI_SOURCE is communicator-local, not a world rank."""

    def app(ctx):
        def gen():
            reg = ctx.world.comms
            if not hasattr(ctx.world, "_sub"):
                ctx.world._sub = reg.create([2, 0], name="swapped")
            sub = ctx.world._sub
            if ctx.world_rank == 2:
                yield from ctx.send(1, "x", nbytes=8, tag=1, comm=sub)
                return None
            if ctx.world_rank == 0:
                sctx = ctx.with_comm(sub)
                status = yield from sctx.recv(src=ANY_SOURCE, tag=1)
                return status.source
            yield from ctx.compute(0)

        return gen()

    world = run_world(3, app)
    # world rank 2 is comm rank 0 inside the swapped communicator
    assert results_of(world)[0] == 0


def test_waitany_empty_rejected():
    def app(ctx):
        def gen():
            yield from ctx.waitany([])

        return gen()

    with pytest.raises(AssertionError):
        run_world(1, app)


def test_compute_negative_rejected():
    def app(ctx):
        def gen():
            yield from ctx.compute(-1)

        return gen()

    with pytest.raises(AssertionError):
        run_world(1, app)


def test_cancelled_pending_rvz_completes_request():
    world = World(4, ranks_per_node=2)
    rt = world.runtimes[0]
    req = rt.isend(2, b"big", nbytes=500_000)  # rendezvous, no receiver yet
    assert not req.done
    n = rt.cancel_pending_rvz_to(2, world.comm_world.comm_id)
    assert n == 1
    assert req.done and req.suppressed


def test_scrub_peer_rendezvous_reposts_requests_in_order():
    world = World(2, ranks_per_node=2)
    rt1 = world.runtimes[1]
    # two big sends from 0, matched by two recvs at 1; data still flowing
    world.runtimes[0].isend(1, "a", nbytes=300_000, tag=1)
    world.runtimes[0].isend(1, "b", nbytes=300_000, tag=1)
    world.engine.run(until_ns=60_000, detect_deadlock=False)  # RTS arrive
    r1 = rt1.irecv(src=0, tag=1)
    r2 = rt1.irecv(src=0, tag=1)
    # both matched, awaiting data
    assert rt1._rvz_awaiting_data
    unbound = rt1.scrub_peer_rendezvous(0, world.comm_world.comm_id)
    assert unbound >= 1
    posted = rt1.matching.posted
    seqs = [r.req_seq for r in posted]
    assert seqs == sorted(seqs)  # original posting order preserved
