"""IPM-style communication profiling.

The paper explains the Figure 5 recovery speedups with IPM profiles
("three of the applications spend less than 10% of their time on
communication ... AMG spends more than 50%", section 6.4).  This module
computes the same breakdown from a run: per-rank time splits into
application compute and everything else (MPI waits, transfers, protocol
work), plus the inter- vs intra-cluster share of the communicated bytes
— the two quantities that predict an application's recovery behaviour
under SPBC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.clusters import ClusterMap
from repro.harness.runner import RunResult
from repro.util.stats import SummaryStats, summarize


@dataclass(frozen=True)
class RankProfile:
    """Time breakdown of one rank over a run."""

    rank: int
    total_ns: int
    compute_ns: int
    protocol_ns: int  # SPBC send-path work (logging, identifiers)

    @property
    def comm_ns(self) -> int:
        """MPI time: waits + transfers (everything that is not local
        compute or protocol work)."""
        return max(self.total_ns - self.compute_ns - self.protocol_ns, 0)

    @property
    def comm_fraction(self) -> float:
        return self.comm_ns / self.total_ns if self.total_ns else 0.0


def profile_run(result: RunResult) -> List[RankProfile]:
    """Per-rank profiles of a completed run."""
    out = []
    for rank, rt in enumerate(result.world.runtimes):
        finish = result.finish_ns.get(rank)
        if finish is None:
            continue
        out.append(
            RankProfile(
                rank=rank,
                total_ns=finish,
                compute_ns=rt.compute_total_ns,
                protocol_ns=rt.overhead_total_ns,
            )
        )
    return out


def comm_fraction_stats(result: RunResult) -> SummaryStats:
    """Distribution of the communication-time fraction over ranks."""
    return summarize([p.comm_fraction for p in profile_run(result)])


@dataclass(frozen=True)
class TrafficSplit:
    """Byte-level split of a run's traffic across a cluster map."""

    total_bytes: int
    intercluster_bytes: int

    @property
    def inter_fraction(self) -> float:
        return (
            self.intercluster_bytes / self.total_bytes if self.total_bytes else 0.0
        )


def traffic_split(result: RunResult, clusters: ClusterMap) -> TrafficSplit:
    """How much of the communicated volume crosses clusters (i.e. would
    be logged, and replayed during a recovery)."""
    pair_bytes = result.trace.send_pair_bytes()
    inter = sum(
        nbytes
        for (src, dst), nbytes in pair_bytes.items()
        if clusters.is_intercluster(src, dst)
    )
    return TrafficSplit(
        total_bytes=sum(pair_bytes.values()), intercluster_bytes=inter
    )

