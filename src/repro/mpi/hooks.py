"""Protocol hook interface.

The MPI runtime calls into a :class:`ProtocolHooks` object at every point
a checkpointing protocol needs to observe or steer the library:

* ``match_allowed`` — the modified MPICH matching function: message and
  request match only if their identifiers agree;
* ``on_send`` — sender-side logging (Algorithm 1 lines 3-9), the
  recovery re-send filter (``seqnum <= LS`` suppression), and the CPU
  cost of that protocol work on the send path (what Table 2 measures);
* ``on_arrival`` — inter-cluster dedup/reorder during recovery
  (Algorithm 1 lines 10-12);
* ``on_deliver`` — LR bookkeeping;
* ``on_control`` — out-of-band protocol traffic (Rollback, lastMessage,
  HydEE coordinator messages);
* ``maybe_checkpoint`` — the cooperative checkpoint entry point.

``NativeHooks`` implements the unmodified-MPICH baseline: every hook is a
no-op, so the runtime behaves like plain MPI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.message import Envelope
    from repro.mpi.request import RecvRequest
    from repro.mpi.runtime import MPIRuntime


class ProtocolHooks:
    """Base class; subclasses override what they need."""

    def attach(self, runtime: "MPIRuntime") -> None:
        """Called once when the runtime for one rank is created."""

    # -- matching ------------------------------------------------------
    def match_allowed(self, req: "RecvRequest", env: "Envelope") -> bool:
        return True

    # -- send path -----------------------------------------------------
    def on_send(self, runtime: "MPIRuntime", env: "Envelope"):
        """Steer the physical transfer of ``env``: ``(decision, overhead
        ns)``, called once per send.

        The decision is ``True`` to send normally, ``False`` to suppress
        it (the destination already holds this message — Algorithm 1
        line 7), or the string ``"defer"`` to queue it until the protocol
        calls ``runtime.release_deferred`` (used right after a restart
        while the peer's ``lastMessage`` response is still in flight).
        The overhead is the CPU time the protocol's work costs the
        sender."""
        return True, 0

    # -- receive path --------------------------------------------------
    def on_arrival(
        self,
        runtime: "MPIRuntime",
        env: "Envelope",
        rvz_send_req_id: "int | None" = None,
    ) -> bool:
        """Return False to drop or hold the arrival (duplicate suppression
        and in-order release during recovery); the hook may buffer the
        ``(env, rvz_send_req_id)`` pair and later feed it back through
        ``runtime.accept_arrival``."""
        return True

    def on_deliver(self, runtime: "MPIRuntime", env: "Envelope") -> None:
        pass

    # -- control plane ---------------------------------------------------
    def on_control(self, runtime: "MPIRuntime", msg: Any) -> None:
        pass

    # -- checkpointing ---------------------------------------------------
    def checkpoint_noop(self, runtime: "MPIRuntime") -> bool:
        """Fast predicate called once per ``maybe_checkpoint``: return
        True when this call would be an immediate no-op, letting the
        runtime skip the generator machinery on the per-iteration hot
        path.  Implementations may use it to advance per-call counters
        (it is guaranteed to run exactly once per application
        ``maybe_checkpoint`` call, before ``maybe_checkpoint`` itself).

        Defaults to False — the safe answer for subclasses that
        override ``maybe_checkpoint`` without knowing about this fast
        path (their checkpoints would otherwise be silently skipped).
        Protocols with a real no-op case override it (SPBC;
        NativeHooks below)."""
        return False

    def maybe_checkpoint(
        self, runtime: "MPIRuntime", state_fn: Callable[[], dict]
    ) -> Generator:
        """Cooperative checkpoint point; default is an immediate no-op.

        Implementations may run a coordination protocol here (blocking
        generator).  ``state_fn`` lazily captures the application state.
        """
        return
        yield  # pragma: no cover - makes this a generator function


class NativeHooks(ProtocolHooks):
    """Unmodified-MPI baseline (the paper's reference performance)."""

    def checkpoint_noop(self, runtime: "MPIRuntime") -> bool:
        return True  # native MPI never checkpoints
