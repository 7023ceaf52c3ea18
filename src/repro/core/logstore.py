"""Sender-based message logs (Algorithm 1 line 6, Johnson/Zwaenepoel [21]).

Every inter-cluster message is recorded in its sender's memory: payload,
metadata — including the per-channel sequence number and the SPBC
``(pattern_id, iteration_id)`` identifier — so it can be re-sent verbatim
during recovery.  The store also keeps the accounting the paper's Table 1
reports: logged bytes over time per process (growth rate in MB/s).

The log has two areas per channel:

* ``channels`` — *resident* records, held in the sender's memory since
  the last checkpoint commit;
* a *stable* area — records already covered by a committed checkpoint
  (the snapshot saved with (State, Logs) at line 15).  ``truncate()``
  moves the resident records there, freeing the sender's memory without
  losing replayability: peers replaying for a rolled-back cluster read
  the union (``include_stable=True``), since the failed side's restored
  LR may predate the sender's own checkpoint.

``bytes_logged``/``records_logged`` stay cumulative (Table 1 reports
growth over the whole run); ``resident_bytes``/``resident_records``
track live memory and drop back at every truncation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.util.empty import EMPTY_DICT
from repro.util.units import mb_per_s


@dataclass(slots=True)
class LogRecord:
    """One logged message, exactly as it must be replayed.

    ``count`` is 1 for every real record.  Warp fast-forward (see
    :mod:`repro.sim.warp`) coalesces a whole fast-forwarded span of a
    channel into a single synthetic record (``payload=None``) whose
    ``count``/``nbytes`` carry the span's record and byte totals, so the
    store's accounting — residency, GC credit, Table 1 growth — stays
    exact without materializing the skipped messages."""

    comm_id: int
    dst: int
    seqnum: int
    tag: int
    nbytes: int
    ident: Tuple[int, int]
    payload: Any
    send_time_ns: int
    count: int = 1


ChannelKey = Tuple[int, int]  # (comm_id, dst)


def _suffix_after(chan: List[LogRecord], seqnum: int) -> List[LogRecord]:
    """Records with seqnum strictly greater than ``seqnum``; ``chan`` is
    seq-sorted, so this is a bisect, not a scan (replay is no longer
    once-per-run when multi-failure scenarios re-trigger it)."""
    return chan[bisect_right(chan, seqnum, key=lambda r: r.seqnum):]


class LogStore:
    """Per-rank append-only log, organized by outgoing channel.

    One exists per rank, so it is slotted, and the two areas only
    checkpoint commits and receiver GC fill (``_stable``,
    ``_collected``) start out as the shared read-only
    :data:`~repro.util.empty.EMPTY_DICT` until their first writer."""

    __slots__ = (
        "rank",
        "channels",
        "_stable",
        "bytes_logged",
        "records_logged",
        "resident_bytes",
        "resident_records",
        "_collected",
        "collected_records",
        "collected_bytes",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.channels: Dict[ChannelKey, List[LogRecord]] = {}  # resident
        self._stable: Dict[ChannelKey, List[LogRecord]] = EMPTY_DICT
        self.bytes_logged = 0  # cumulative (Table 1)
        self.records_logged = 0
        self.resident_bytes = 0  # live memory held by the log
        self.resident_records = 0
        # Receiver-certified GC floors: seq <= floor on a channel will
        # never be requested again (the receiver saved its delivery in a
        # checkpoint it can never roll back past).  Forever-true facts:
        # they survive this sender's own rollbacks.
        self._collected: Dict[ChannelKey, int] = EMPTY_DICT
        self.collected_records = 0  # cumulative, freed by receiver GC
        self.collected_bytes = 0

    def append(self, rec: LogRecord) -> None:
        key = (rec.comm_id, rec.dst)
        # One probe of the channel tail serves the check, the message
        # and the append; only an empty resident area asks last_seq.
        chan = self.channels.get(key)
        last = chan[-1].seqnum if chan else self.last_seq(rec.comm_id, rec.dst)
        if rec.seqnum <= last:
            raise ValueError(
                f"log seqnums must increase per channel: {rec.seqnum} after "
                f"{last} on {key}"
            )
        if chan is None:
            chan = self.channels[key] = []
        chan.append(rec)
        self.bytes_logged += rec.nbytes
        self.records_logged += rec.count
        self.resident_bytes += rec.nbytes
        self.resident_records += rec.count

    def last_seq(self, comm_id: int, dst: int) -> int:
        """Highest logged seqnum on a channel (0 if nothing logged),
        across both the resident and the stable area.  A channel whose
        records were all garbage-collected reports its GC floor, so
        re-sends of collected messages are never re-logged."""
        key = (comm_id, dst)
        chan = self.channels.get(key)
        if chan:
            return chan[-1].seqnum  # resident extends the stable prefix
        stable = self._stable.get(key)
        if stable:
            return stable[-1].seqnum
        return self._collected.get(key, 0)

    def replay_after(
        self, comm_id: int, dst: int, seqnum: int, include_stable: bool = False
    ) -> List[LogRecord]:
        """Records on (comm_id, dst) with seqnum strictly greater than
        ``seqnum``, in sequence order (Algorithm 1 lines 23-24).

        Recovery passes ``include_stable=True``: a rolled-back peer's LR
        can predate this sender's last checkpoint, so replay must also
        cover records truncated out of resident memory."""
        key = (comm_id, dst)
        out: List[LogRecord] = []
        if include_stable:
            out.extend(_suffix_after(self._stable.get(key, []), seqnum))
        out.extend(_suffix_after(self.channels.get(key, []), seqnum))
        return out

    def channel_keys(self) -> Set[ChannelKey]:
        """Every channel with logged traffic — resident, stable, or
        fully garbage-collected (the channel existed; recovery handshakes
        must still cover it)."""
        return set(self.channels) | set(self._stable) | set(self._collected)

    def all_records(self) -> Iterator[LogRecord]:
        for area in (self._stable, self.channels):
            for recs in area.values():
                yield from recs

    def merged_channels(self) -> Dict[ChannelKey, List[LogRecord]]:
        """Per-channel stable + resident records, in sequence order."""
        out: Dict[ChannelKey, List[LogRecord]] = {}
        for area in (self._stable, self.channels):
            for key, recs in area.items():
                out.setdefault(key, []).extend(recs)
        return out

    # ------------------------------------------------------------------
    def growth_rate_mb_s(self, duration_ns: int) -> float:
        """Average log growth over a run — the quantity of Table 1."""
        return mb_per_s(self.bytes_logged, duration_ns)

    # ------------------------------------------------------------------
    # Checkpoint support: logs are saved with the process state (line 15)
    # and the memory may be freed afterwards.  Rolled-back processes come
    # back with exactly the snapshot content.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "channels": {k: list(v) for k, v in self.merged_channels().items()},
            "bytes_logged": self.bytes_logged,
            "records_logged": self.records_logged,
        }

    def restore(self, snap: dict) -> None:
        # Everything in the snapshot was covered by the checkpoint that
        # carried it, so it restores into the stable area.
        self._stable = {k: list(v) for k, v in snap["channels"].items()}
        self.channels = {}
        self.bytes_logged = snap["bytes_logged"]
        self.records_logged = snap["records_logged"]
        self.resident_bytes = 0
        self.resident_records = 0
        # Receiver GC floors outlive our own rollback (the receiver's
        # guarantee is about *its* restart floor, not ours): re-collect
        # records the snapshot carries from before the floors.  Pruning
        # restored *copies* of already-collected records is not new GC,
        # so the cumulative collected counters are left untouched.
        floors = self._collected
        self._collected = EMPTY_DICT
        saved = (self.collected_records, self.collected_bytes)
        for (cid, dst), floor in floors.items():
            self.collect(cid, dst, floor)
        self.collected_records, self.collected_bytes = saved

    def inherit_floors(self, prev: "LogStore") -> None:
        """Carry receiver-certified GC floors over from a dead
        incarnation's log.  The floors are facts about the *receivers*'
        restart guarantees, so they outlive this sender's own crash;
        a subsequent :meth:`restore` re-collects any records the
        checkpoint snapshot carries from below them."""
        for (cid, dst), floor in prev._collected.items():
            if floor > self._collected.get((cid, dst), 0):
                if self._collected is EMPTY_DICT:
                    self._collected = {}
                self._collected[(cid, dst)] = floor

    def collect(self, comm_id: int, dst: int, upto_seq: int) -> int:
        """Receiver-driven garbage collection (Johnson/Zwaenepoel-style):
        delete records with ``seqnum <= upto_seq`` from *both* log areas.

        Legal only when the receiver certified it can never again request
        them — it delivered them and saved that delivery (the LR) in a
        checkpoint it is guaranteed never to roll back past (see
        ``TieredBackend.guaranteed_round``).  Unlike :meth:`truncate`,
        which moves records into the checkpointed stable area, this frees
        them everywhere: the resident memory *and* every future snapshot
        shrink.  Returns the number of records deleted."""
        key = (comm_id, dst)
        if upto_seq <= self._collected.get(key, 0):
            return 0
        if self._collected is EMPTY_DICT:
            self._collected = {}
        self._collected[key] = upto_seq
        deleted = 0
        for area, resident in ((self._stable, False), (self.channels, True)):
            chan = area.get(key)
            if not chan:
                continue
            cut = bisect_right(chan, upto_seq, key=lambda r: r.seqnum)
            if cut == 0:
                continue
            for rec in chan[:cut]:
                self.collected_bytes += rec.nbytes
                deleted += rec.count
                if resident:
                    self.resident_bytes -= rec.nbytes
                    self.resident_records -= rec.count
            del chan[:cut]
            if not chan:
                del area[key]
        self.collected_records += deleted
        return deleted

    def truncate(self) -> None:
        """Free the resident log memory (legal right after a checkpoint
        commits to a surviving tier: the saved snapshot now covers
        everything up to the checkpoint).  Records stay replayable via
        ``include_stable=True``."""
        if self.channels and self._stable is EMPTY_DICT:
            self._stable = {}
        for key, recs in self.channels.items():
            self._stable.setdefault(key, []).extend(recs)
        self.channels = {}
        self.resident_bytes = 0
        self.resident_records = 0
        # bytes_logged/records_logged are cumulative on purpose: Table 1
        # reports growth over the whole run, not log residency.
