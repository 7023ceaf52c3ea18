"""Emulated recovery — the paper's own measurement methodology (§6.4).

Quoting the paper: *"We first execute the application with the chosen
clustering configuration once to generate the logs ...  Then we restart
the application and simulate the recovery of one cluster (the cluster
including rank 0).  It means that only the processes of this cluster are
really executed.  Other processes simply read the log files at the
beginning of the execution, compute the lists of logged messages to be
replayed and then start replaying them."*

Concretely:

* phase 1 (done by the harness): a failure-free run under SPBC fills the
  sender-side logs; :meth:`ReplayPlan.from_run` harvests them;
* phase 2: a fresh world where the recovering cluster's ranks run the
  real application (re-executing the lost segment — the *rework*), every
  other rank runs :func:`replayer_process`, and the SPBC hooks run in
  ``emulated_recovering`` mode so the recovering ranks' inter-cluster
  sends are skipped (their destinations already received them).

Replay flow control follows section 5.2.2: a replayer pre-posts up to
``window`` (default 50) send requests before waiting for the oldest to
complete, so recovering processes never wait for a small message while
rendezvous transfers cannot deadlock the replayer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.core.logstore import LogRecord
from repro.core.protocol import SPBC
from repro.mpi.context import RankContext
from repro.mpi.message import Envelope

DEFAULT_PREPOST_WINDOW = 50


@dataclass
class ReplayPlan:
    """Everything phase 2 needs, harvested from a phase-1 run."""

    recovering_cluster: int
    recovering_ranks: Set[int]
    # per non-failed sender: its logged records destined to the recovering
    # cluster, in original send order (per-sender total order preserves
    # per-channel sequence order).
    records_by_sender: Dict[int, List[LogRecord]]
    failure_free_ns: int
    total_records: int = 0
    total_bytes: int = 0

    def __post_init__(self) -> None:
        self.total_records = sum(len(v) for v in self.records_by_sender.values())
        self.total_bytes = sum(
            r.nbytes for v in self.records_by_sender.values() for r in v
        )

    @classmethod
    def from_run(
        cls,
        spbc: SPBC,
        failure_free_ns: int,
        cluster_id: Optional[int] = None,
        clusters=None,
    ) -> "ReplayPlan":
        """Harvest the plan from a completed failure-free SPBC run.

        ``cluster_id`` defaults to the cluster containing rank 0 (the
        paper's choice).  ``clusters`` overrides the cluster map the plan
        is derived for: a phase-1 run with singleton clusters logs *every*
        channel, so one logging run can serve any clustering configuration
        (the per-channel log content does not depend on the map) — the
        overriding map selects which records count as inter-cluster.
        """
        cmap = clusters if clusters is not None else spbc.clusters
        cid = cmap.cluster(0) if cluster_id is None else cluster_id
        recovering = set(cmap.members(cid))
        by_sender: Dict[int, List[LogRecord]] = {}
        for rank, st in spbc.state.items():
            if rank in recovering:
                continue
            recs: List[LogRecord] = []
            for (comm_id, dst), channel in st.log.merged_channels().items():
                if dst in recovering:
                    recs.extend(channel)
            if recs:
                recs.sort(key=lambda r: (r.send_time_ns, r.comm_id, r.dst, r.seqnum))
                by_sender[rank] = recs
        return cls(
            recovering_cluster=cid,
            recovering_ranks=recovering,
            records_by_sender=by_sender,
            failure_free_ns=failure_free_ns,
        )


def replayer_process(
    ctx: RankContext,
    records: List[LogRecord],
    window: int = DEFAULT_PREPOST_WINDOW,
) -> Generator:
    """One non-failed rank during emulated recovery.

    Re-sends its logged messages in original send order, keeping at most
    ``window`` send requests outstanding (pre-posted) at a time.
    """
    if window < 1:
        raise ValueError("pre-post window must be >= 1")
    inflight: deque = deque()
    sent = 0
    for rec in records:
        env = Envelope(
            src=ctx.world_rank,
            dst=rec.dst,
            tag=rec.tag,
            comm_id=rec.comm_id,
            seqnum=rec.seqnum,
            nbytes=rec.nbytes,
            payload=rec.payload,
            ident=rec.ident,
        )
        inflight.append(ctx.rt.isend_raw(env))
        sent += 1
        while len(inflight) >= window:
            oldest = inflight.popleft()
            yield from ctx.wait(oldest)
    while inflight:
        yield from ctx.wait(inflight.popleft())
    return sent
