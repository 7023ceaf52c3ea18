"""Storage tiers with bandwidth/latency and shared-medium contention.

A tier models where checkpoints (state + logs) can be written:

* the parallel file system — high capacity, survives any failure, but
  its aggregate bandwidth is *shared by every writer* (the PFS
  contention the paper's introduction warns about);
* node-local storage (SSD) — per-node bandwidth, survives process
  crashes but not node loss (hence multi-level schemes);
* RAM (partner-copy style) — fastest, least resilient;
* the paper's free store — no cost, survives everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.util.units import GB, MB, MS, SEC, US


@dataclass(frozen=True)
class StorageTier:
    """One level of the checkpoint storage hierarchy."""

    name: str
    latency_ns: int
    bandwidth_bytes_per_s: float
    shared: bool  # True: bandwidth divided among concurrent writers
    survives_node_failure: bool
    # Restart-read bandwidth.  Real media are asymmetric (a PFS's read
    # side dodges the RAID/commit write penalty); None keeps the read
    # side equal to the write side.
    read_bandwidth_bytes_per_s: Optional[float] = None
    # Event-driven I/O only (repro.storage.iosched): True makes reads
    # and writes share ONE bandwidth lane, so a restart read genuinely
    # steals bandwidth from an in-flight async flush on the same tier
    # (the default keeps the classic separate read/write lane model).
    # Incompatible with an asymmetric read bandwidth — one lane has one
    # capacity.
    unified_lane: bool = False
    # Under TieredBackend(async_flush=True), defer this tier's writes to
    # the background I/O scheduler even though it is not shared.  Set on
    # the node-local SSD: its write sits behind a local controller, so
    # the checkpoint can commit on RAM and let the SSD copy drain
    # overlapping compute (it becomes restorable only when the flow
    # lands, like an async PFS flush).
    background_drain: bool = False

    def __post_init__(self) -> None:
        if (
            self.read_bandwidth_bytes_per_s is not None
            and self.read_bandwidth_bytes_per_s <= 0
        ):
            raise ValueError(f"{self.name}: read bandwidth must be positive")
        if self.unified_lane and self.read_bandwidth_bytes_per_s is not None:
            raise ValueError(
                f"{self.name}: unified_lane shares one lane between reads "
                "and writes, so an asymmetric read bandwidth cannot apply"
            )

    def _xfer_time_ns(self, nbytes: int, bw: float, concurrent: int) -> int:
        if nbytes < 0:
            raise ValueError("negative size")
        if concurrent < 1:
            raise ValueError("need at least one writer/reader")
        if self.shared:
            bw /= concurrent
        return self.latency_ns + int(nbytes / bw * SEC)

    def write_time_ns(self, nbytes: int, concurrent_writers: int = 1) -> int:
        """Time for one writer to persist ``nbytes``."""
        return self._xfer_time_ns(
            nbytes, self.bandwidth_bytes_per_s, concurrent_writers
        )

    def read_time_ns(self, nbytes: int, concurrent_readers: int = 1) -> int:
        """Restart-time read (the paper's 'IO burst when retrieving the
        last checkpoint' applies on the shared tier), priced at the
        tier's read-side bandwidth."""
        return self._xfer_time_ns(
            nbytes,
            self.read_bandwidth_bytes_per_s or self.bandwidth_bytes_per_s,
            concurrent_readers,
        )


def pfs_tier(
    aggregate_gb_s: float = 20.0, read_gb_s: Optional[float] = None
) -> StorageTier:
    """A parallel file system: tens-of-minutes full-system checkpoints
    at scale (paper section 2.1 cites [27]).

    ``read_gb_s`` sets the read-side aggregate bandwidth; real PFS
    installations read measurably faster than they write (no parity /
    commit penalty), and the ``ioverlap`` experiment models that with
    ``read_gb_s=24.0``.  The default (None) keeps the read side equal to
    the write side so existing cost-model pins stay bit-identical."""
    return StorageTier(
        name="pfs",
        latency_ns=5 * MS,
        bandwidth_bytes_per_s=aggregate_gb_s * GB,
        shared=True,
        survives_node_failure=True,
        read_bandwidth_bytes_per_s=(
            read_gb_s * GB if read_gb_s is not None else None
        ),
    )


def local_ssd_tier(gb_s: float = 0.5) -> StorageTier:
    return StorageTier(
        name="local-ssd",
        latency_ns=100 * US,
        bandwidth_bytes_per_s=gb_s * GB,
        shared=False,
        survives_node_failure=False,
        background_drain=True,
    )


def ram_tier(gb_s: float = 5.0) -> StorageTier:
    return StorageTier(
        name="ram",
        latency_ns=2 * US,
        bandwidth_bytes_per_s=gb_s * GB,
        shared=False,
        survives_node_failure=False,
    )


def partner_tier(gb_s: float = 1.25) -> StorageTier:
    """Partner copy: each checkpoint is mirrored into a *buddy node's*
    RAM (SCR's PARTNER scheme, FTI level 2).  Bandwidth is the inter-node
    fabric, not local memory.  ``survives_node_failure`` is False because
    the copy still lives in somebody's RAM; what makes it useful is
    *placement* — a topology-aware backend invalidates it only when the
    buddy's node is lost, so it survives the common single-node failure
    (see ``make_backend("partner")`` in :mod:`repro.storage.backend`)."""
    return StorageTier(
        name="partner",
        latency_ns=8 * US,
        bandwidth_bytes_per_s=gb_s * GB,
        shared=False,
        survives_node_failure=False,
    )


def memory_tier() -> StorageTier:
    """The paper's experimental store ("none of our experiments include
    checkpointing" I/O): zero latency and infinite bandwidth, so every
    write and read costs exactly 0 ns, and no failure loses a copy."""
    return StorageTier(
        name="memory",
        latency_ns=0,
        bandwidth_bytes_per_s=math.inf,
        shared=False,
        survives_node_failure=True,
    )
