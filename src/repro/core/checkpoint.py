"""Checkpoint content and stable storage.

A checkpoint of one rank bundles (Algorithm 1 line 15):

* the application state (whatever the app's ``state_fn`` returns — it
  must include everything needed to resume, e.g. the iteration index);
* the MPI library state that survives a rollback: per-channel outgoing
  sequence numbers, delivered LR per incoming channel, arrival-dedup
  counters, the unexpected-message queue, pattern-API counters;
* the sender-side message ``Logs``.

Where checkpoints *live* is :class:`~repro.storage.backend.TieredBackend`:
it executes a multi-level plan with modeled write/read costs and
per-tier survivability.  Its default ``memory`` plan is the free,
indestructible medium the paper's experiments assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ckptdata.plane import CkptPayload


@dataclass(slots=True)
class Checkpoint:
    """Everything rank ``rank`` needs to restart consistently."""

    rank: int
    round_no: int
    taken_at_ns: int
    app_state: dict
    chan_seq: Dict[Tuple[int, int], int]
    lr: Dict[Tuple[int, int], int]
    arrived: Dict[Tuple[int, int], int]
    ls: Dict[Tuple[int, int], int]
    pattern_state: dict
    unexpected: List[Any]  # envelopes buffered in the library at the cut
    log_snapshot: dict
    # Per-communicator collective instance counters: a restarted rank must
    # resume the collective tag sequence where the checkpoint left it, or
    # its re-executed collectives can never match live peers' messages.
    coll_seq: Dict[int, int] = field(default_factory=dict)
    nbytes: int = 0  # modeled logical size (app state + logs)
    # What this round actually writes when the incremental data plane is
    # on: a full or delta payload with compressed size and chain link.
    # None (the default) keeps the seed's opaque-blob model: the backends
    # charge ``nbytes`` and every round stands alone.
    payload: Optional[CkptPayload] = None
    # True once the backend dropped the restart body (``app_state``
    # through ``coll_seq``): see release().
    released: bool = False

    @property
    def stored_bytes(self) -> int:
        """Bytes the storage tiers are charged for this round."""
        return self.payload.stored_bytes if self.payload is not None else self.nbytes

    def release(self) -> None:
        """Drop the restart body of a round no restart can target any
        more (below its rank's log-GC floor chain).  ``round_no``,
        ``taken_at_ns``, ``nbytes`` and ``payload`` stay: commit history,
        delta-chain walks and write/read costs never read the body."""
        self.app_state = None
        self.chan_seq = self.lr = self.arrived = self.ls = None
        self.pattern_state = self.log_snapshot = None
        self.unexpected = None
        self.coll_seq = None
        self.released = True

    def require_body(self) -> None:
        """Raise ``ValueError`` if this checkpoint's body was released
        (a restart below a restorable floor)."""
        if self.released:
            raise ValueError(
                f"rank {self.rank}: checkpoint round {self.round_no} was "
                "released below the log-GC floor and cannot be restored"
            )
