"""The application-facing API (what "application code" is written against).

A :class:`RankContext` wraps one rank's runtime and exposes an mpi4py-like
surface plus the SPBC additions.  Applications address peers by
*communicator-local* rank (like real MPI); the context translates to world
ranks before calling into the runtime.

Blocking calls are generators: application code drives them with
``yield from`` (the simulator's equivalent of a blocking MPI call).
Nonblocking calls (``isend``/``irecv``/``test``/``iprobe``) are plain
calls, exactly as in MPI.

The three SPBC API primitives (section 5.1) are exposed verbatim:
``declare_pattern`` / ``begin_iteration`` / ``end_iteration``.  They are
purely local (no communication) and are no-ops for matching purposes
unless the SPBC hooks are installed.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.mpi import collectives as coll
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import RecvRequest, Request, SendRequest, Status


class RankContext:
    """One rank's view of the world."""

    __slots__ = ("world", "rt", "comm")

    def __init__(self, world, rank: int, comm: Optional[Communicator] = None) -> None:
        self.world = world
        self.rt = world.runtimes[rank]
        self.comm = comm or world.comm_world

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Rank inside the context's communicator."""
        return self.comm.comm_rank(self.rt.rank)

    @property
    def world_rank(self) -> int:
        return self.rt.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> int:
        return self.rt.engine.now

    def with_comm(self, comm: Communicator) -> "RankContext":
        """A view of the same rank scoped to another communicator."""
        return RankContext(self.world, self.rt.rank, comm)

    def _world_dst(self, comm_rank: int, comm: Optional[Communicator]) -> int:
        return (comm or self.comm).world_rank(comm_rank)

    def _world_src(self, comm_rank: int, comm: Optional[Communicator]) -> int:
        if comm_rank == ANY_SOURCE:
            return ANY_SOURCE
        return (comm or self.comm).world_rank(comm_rank)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dst: int,
        payload: Any = None,
        nbytes: int = 0,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ) -> SendRequest:
        return self.rt.isend(
            self._world_dst(dst, comm), payload, nbytes, tag, comm or self.comm
        )

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> RecvRequest:
        return self.rt.irecv(self._world_src(src, comm), tag, comm or self.comm)

    def send(
        self,
        dst: int,
        payload: Any = None,
        nbytes: int = 0,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        yield from self.rt.send(
            self._world_dst(dst, comm), payload, nbytes, tag, comm or self.comm
        )

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        status = yield from self.rt.recv(
            self._world_src(src, comm), tag, comm or self.comm
        )
        return status

    def sendrecv(
        self,
        dst: int,
        payload: Any = None,
        nbytes: int = 0,
        src: int = ANY_SOURCE,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        """Concurrent send+recv (the halo-exchange workhorse)."""
        rt = self.rt
        t0 = rt.engine.now if rt._tele_on else 0
        sreq = self.isend(dst, payload, nbytes, tag, comm)
        rreq = self.irecv(src, tag, comm)
        # Fused debt-flush + receive wait (see MPIRuntime._recv_block),
        # then the send request is settled directly.
        block = rt._recv_block(rreq)
        if block is not None:
            yield block
        if not sreq.done:
            if sreq.completes_at_ns >= 0:
                rt._settle_or_schedule(sreq)
            if not sreq.done:
                yield sreq.trigger
        if rt._tele_on:
            now = rt.engine.now
            if now > t0:
                rt.telemetry.rank_span("mpi-wait", rt.rank, t0, now)
        return rreq.status

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def wait(self, req: Request) -> Generator:
        status = yield from self.rt.wait(req)
        return status

    def waitall(self, reqs: List[Request]) -> Generator:
        statuses = yield from self.rt.waitall(reqs)
        return statuses

    def waitany(self, reqs: List[Request]) -> Generator:
        pair = yield from self.rt.waitany(reqs)
        return pair

    def test(self, req: Request) -> Tuple[bool, Optional[Status]]:
        return self.rt.test(req)

    def testall(self, reqs: List[Request]) -> Tuple[bool, Optional[List[Status]]]:
        return self.rt.testall(reqs)

    def testany(self, reqs: List[Request]) -> Tuple[bool, int, Optional[Status]]:
        return self.rt.testany(reqs)

    def waitsome(self, reqs: List[Request]) -> Generator:
        pairs = yield from self.rt.waitsome(reqs)
        return pairs

    def iprobe(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Tuple[bool, Optional[Status]]:
        return self.rt.iprobe(self._world_src(src, comm), tag, comm or self.comm)

    def probe(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        status = yield from self.rt.probe(
            self._world_src(src, comm), tag, comm or self.comm
        )
        return status

    # ------------------------------------------------------------------
    # Collectives (on the context communicator unless overridden)
    # ------------------------------------------------------------------
    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        yield from coll.barrier(self.rt, comm or self.comm)

    def bcast(
        self,
        value: Any = None,
        nbytes: int = 0,
        root: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.bcast(self.rt, comm or self.comm, value, nbytes, root)
        return result

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        nbytes: int = 0,
        root: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.reduce(self.rt, comm or self.comm, value, op, nbytes, root)
        return result

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        nbytes: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.allreduce(self.rt, comm or self.comm, value, op, nbytes)
        return result

    def allgather(
        self, value: Any, nbytes: int = 0, comm: Optional[Communicator] = None
    ) -> Generator:
        result = yield from coll.allgather(self.rt, comm or self.comm, value, nbytes)
        return result

    def alltoall(
        self, values: List[Any], nbytes_each: int = 0, comm: Optional[Communicator] = None
    ) -> Generator:
        result = yield from coll.alltoall(self.rt, comm or self.comm, values, nbytes_each)
        return result

    def scan(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        nbytes: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.scan(self.rt, comm or self.comm, value, op, nbytes)
        return result

    def exscan(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        nbytes: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.exscan(self.rt, comm or self.comm, value, op, nbytes)
        return result

    def reduce_scatter_block(
        self,
        values: List[Any],
        op: Callable[[Any, Any], Any],
        nbytes_each: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.reduce_scatter_block(
            self.rt, comm or self.comm, values, op, nbytes_each
        )
        return result

    def gather(
        self,
        value: Any,
        nbytes: int = 0,
        root: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.gather(self.rt, comm or self.comm, value, nbytes, root)
        return result

    def scatter(
        self,
        values: Optional[List[Any]] = None,
        nbytes_each: int = 0,
        root: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        result = yield from coll.scatter(
            self.rt, comm or self.comm, values, nbytes_each, root
        )
        return result

    # ------------------------------------------------------------------
    # Compute model / checkpointing / patterns
    # ------------------------------------------------------------------
    def compute(self, ns: int) -> Generator:
        """Spend ``ns`` of virtual CPU time.

        Returns the runtime's generator rather than wrapping it: one
        generator object per compute phase (hot: once per app
        iteration)."""
        return self.rt.compute(ns)

    def maybe_checkpoint(self, state_fn: Callable[[], dict]) -> Generator:
        """Offer the protocol a checkpoint opportunity (app is quiescent).

        Returns the runtime's generator, as :meth:`compute` does."""
        return self.rt.maybe_checkpoint(state_fn)

    # ------------------------------------------------------------------
    # Steady-state warp cooperation (repro.sim.warp)
    # ------------------------------------------------------------------
    def declare_warpable(self) -> None:
        """Declare this rank's loop warp-capable.

        Contract: the loop body starts with ``maybe_checkpoint`` followed
        by exactly one leading ``compute`` phase, calls :meth:`warp_jump`
        immediately after that compute, and — when granted a jump of K —
        advances its *own* state (loop index, accumulators) by exactly
        what K skipped iterations would have produced.  Warp mode only
        engages when every live rank has declared."""
        self.rt.warp_capable = True

    def warp_jump(self) -> int:
        """Iterations fast-forwarded for this rank since the last call.

        Returns 0 in exact mode (and almost always): nonzero exactly
        once per granted warp, at the first post-grant loop body."""
        rt = self.rt
        k = rt.warp_skip
        if k:
            rt.warp_skip = 0
        return k

    def declare_pattern(self) -> int:
        """SPBC API: DECLARE_PATTERN — returns a fresh pattern id."""
        return self.rt.declare_pattern()

    def begin_iteration(self, pattern_id: int) -> None:
        """SPBC API: BEGIN_ITERATION — activates the pattern, bumps its
        iteration counter."""
        self.rt.begin_iteration(pattern_id)

    def end_iteration(self, pattern_id: int) -> None:
        """SPBC API: END_ITERATION — restores the default pattern."""
        self.rt.end_iteration(pattern_id)
