"""Send/receive request objects.

Requests mirror MPI semantics: they are created by the nonblocking calls,
become ``done`` when the library completes them, and are waited on with
``Wait``-family calls.  A reception request is identified across
executions by ``{src, dst, comm, req_seq}`` where ``req_seq`` is the
per-rank posting sequence number (paper section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Optional, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, DEFAULT_IDENT
from repro.sim.engine import Trigger


@dataclass(slots=True)
class Status:
    """Completion information (MPI_Status subset + received payload)."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0
    payload: Any = None


class Request:
    """Base request: a one-shot completion trigger plus a status.

    The trigger is created lazily on first access: requests that complete
    before anyone waits on them (eager sends finishing at NIC-inject
    time, receives matched from the unexpected queue) never allocate one.
    Until completion, ``status`` is a shared immutable-by-convention
    placeholder — completion always installs a fresh Status.
    """

    __slots__ = (
        "done", "status", "_trigger", "req_id", "cancelled", "completes_at_ns",
    )

    _ids = count(1)
    _PENDING_STATUS = Status()

    def __init__(self) -> None:
        self.done = False
        self.cancelled = False
        self.status = Request._PENDING_STATUS
        self.req_id = next(Request._ids)
        self._trigger: Optional[Trigger] = None
        # >= 0: an eager send completing lazily at that virtual time (no
        # engine event; the runtime settles it at observation points —
        # see MPIRuntime._settle/_settle_or_schedule).  -1 otherwise.
        self.completes_at_ns = -1

    @property
    def trigger(self) -> Trigger:
        t = self._trigger
        if t is None:
            t = self._trigger = Trigger()
            if self.done:
                t.fire(self.status)
        return t

    def complete(self, status: Optional[Status] = None) -> None:
        if self.done:
            return
        self.done = True
        if status is not None:
            self.status = status
        if self._trigger is not None:
            self._trigger.fire(self.status)


class SendRequest(Request):
    """Tracks one send until local completion.

    ``post_seq``/``complete_seq`` number the request in its rank's
    posting and completion order.
    """

    __slots__ = ("env", "post_seq", "complete_seq", "rendezvous", "suppressed")

    def __init__(self, env, post_seq: int, rendezvous: bool) -> None:
        # Base init inlined (one request per send on the hot path).
        self.done = False
        self.cancelled = False
        self.status = Request._PENDING_STATUS
        self.req_id = next(Request._ids)
        self._trigger = None
        self.completes_at_ns = -1
        self.env = env
        self.post_seq = post_seq
        self.complete_seq = -1
        self.rendezvous = rendezvous
        self.suppressed = False  # True when skipped by recovery (seq <= LS)


class RecvRequest(Request):
    """A posted reception request."""

    __slots__ = ("src", "tag", "comm_id", "req_seq", "ident", "matched_env")

    def __init__(
        self,
        src: int,
        tag: int,
        comm_id: int,
        req_seq: int,
        ident: Tuple[int, int] = DEFAULT_IDENT,
    ) -> None:
        # Base init inlined (one request per receive on the hot path).
        self.done = False
        self.cancelled = False
        self.status = Request._PENDING_STATUS
        self.req_id = next(Request._ids)
        self._trigger = None
        self.completes_at_ns = -1
        self.src = src  # world rank or ANY_SOURCE
        self.tag = tag
        self.comm_id = comm_id
        self.req_seq = req_seq
        self.ident = ident
        self.matched_env = None

    @property
    def anonymous(self) -> bool:
        return self.src == ANY_SOURCE

    def header_matches(self, env) -> bool:
        """MPI-standard envelope matching (communicator, source, tag)."""
        if env.comm_id != self.comm_id:
            return False
        if self.src != ANY_SOURCE and env.src != self.src:
            return False
        if self.tag != ANY_TAG and env.tag != self.tag:
            return False
        return True
