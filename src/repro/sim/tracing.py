"""Communication-event tracing.

Records the paper's event vocabulary (section 3.2): ``send(m)``,
``deliver(m)``, ``post(req)``, ``match(req, m)``.
Traces feed three consumers:

* the channel/send-determinism checkers (compare send sequences across
  executions — section 3.4),
* the happened-before / always-happens-before tooling (section 3.5),
* the communication-statistics collector used by the clustering tool.

Storage is columnar: every field of an event is an integer, so a trace
is one flat ``array('q')`` of fixed-width rows — no per-event Python
object survives the record call, nothing is GC-tracked, and a traced
run allocates what an untraced one does plus 96 bytes per event.  Row
layout (``ROW_WIDTH`` = 12 signed 64-bit words, in this order):

====  ==============  ==================================================
col   name            meaning
====  ==============  ==================================================
0     kind            index into ``KINDS`` (send, deliver, post, match)
1     rank            the rank the event happened on
2     time_ns         virtual time
3-5   src, dst, comm  the channel; ``src`` is ``ANY_SOURCE`` (-1) on the
                      ``post`` of a wildcard receive
6     seqnum          per-channel sequence number (-1 on ``post``)
7     tag             ``ANY_TAG`` (-2) on a wildcard ``post``
8     nbytes          application payload size
9     req_seq         per-rank reception-request number (-1 on ``send``)
10    pattern_id      the two halves of the pattern-API identifier
11    iteration_id    (section 5.1); (0, 0) outside any pattern
====  ==============  ==================================================

The runtime appends rows directly
(``trace.rows.frombytes(pack_row(...))`` — one C call packs the twelve
words and rejects a non-integer before the array is touched, so a row
is never half-written); ``Trace.record`` flattens a :class:`CommEvent`
into the same row for everyone else.  ``Trace.events`` materialises
``CommEvent`` tuples on read; the aggregate views never build them.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Sequence
from typing import Dict, Iterator, List, NamedTuple, Tuple

KINDS = ("send", "deliver", "post", "match")
KIND_SEND, KIND_DELIVER, KIND_POST, KIND_MATCH = range(4)

ROW_WIDTH = 12
(
    COL_KIND, COL_RANK, COL_TIME, COL_SRC, COL_DST, COL_COMM, COL_SEQNUM,
    COL_TAG, COL_NBYTES, COL_REQ_SEQ, COL_PATTERN, COL_ITERATION,
) = range(ROW_WIDTH)
#: Twelve native int64 words -> the bytes of one row (array('q') layout).
pack_row = struct.Struct(f"{ROW_WIDTH}q").pack


class CommEvent(NamedTuple):
    """One traced communication event.

    ``kind`` is one of ``send``, ``deliver``, ``post``, ``match``.
    ``channel`` is (src, dst, comm_id); ``seqnum`` is the per-channel MPI
    sequence number (section 3.3's message identity), ``req_seq`` the
    per-rank reception-request sequence number where applicable.
    """

    kind: str
    rank: int
    time_ns: int
    channel: Tuple[int, int, int]
    seqnum: int
    tag: int = 0
    nbytes: int = 0
    req_seq: int = -1
    ident: Tuple[int, int] = (0, 0)  # (pattern_id, iteration_id)

    @property
    def message_key(self) -> Tuple[int, int, int, int]:
        """Unique message identity across executions: channel + seqnum."""
        return (*self.channel, self.seqnum)


def _event(row: List[int]) -> CommEvent:
    kind, rank, time_ns, src, dst, comm, seqnum, tag, nbytes, req_seq, pat, it = row
    return CommEvent(
        KINDS[kind], rank, time_ns, (src, dst, comm), seqnum, tag, nbytes,
        req_seq, (pat, it),
    )


class _EventView(Sequence):
    """Read-only, live sequence of :class:`CommEvent` over a row array."""

    __slots__ = ("_rows",)

    #: Events decoded per ``array`` slice while iterating.
    _CHUNK = 4096

    def __init__(self, rows: array) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // ROW_WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace event index out of range")
        base = index * ROW_WIDTH
        return _event(self._rows[base:base + ROW_WIDTH].tolist())

    def __iter__(self) -> Iterator[CommEvent]:
        rows = self._rows
        step = self._CHUNK * ROW_WIDTH
        for base in range(0, len(rows), step):
            flat = rows[base:base + step].tolist()
            for i in range(0, len(flat), ROW_WIDTH):
                yield _event(flat[i:i + ROW_WIDTH])


class Trace:
    """Append-only event log for one execution."""

    __slots__ = ("enabled", "rows", "events", "warp_pair_bytes")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows = array("q")
        self.events = _EventView(self.rows)
        # Aggregate (src, dst) -> app bytes credited by warp fast-forward:
        # warped iterations record no per-message events, but the byte
        # totals they represent still feed comm_bytes_matrix so the
        # clustering/Table-1 pipeline sees the full communication volume.
        self.warp_pair_bytes: Dict[Tuple[int, int], int] = {}

    def record(self, event: CommEvent) -> None:
        if self.enabled:
            self.rows.frombytes(pack_row(
                KINDS.index(event.kind), event.rank, event.time_ns,
                *event.channel, event.seqnum, event.tag, event.nbytes,
                event.req_seq, *event.ident,
            ))

    def __len__(self) -> int:
        return len(self.rows) // ROW_WIDTH

    # ------------------------------------------------------------------
    # Column views
    # ------------------------------------------------------------------
    def table(self, kind: int, start: int = 0, stop: int | None = None):
        """The rows of one ``KIND_*`` among events ``[start:stop)`` as an
        (n, ROW_WIDTH) int64 matrix, indexed by the ``COL_*`` constants.

        A copy, on purpose: a live ``np.frombuffer`` export pins the
        array (the next append raises ``BufferError``), so the zero-copy
        view must not outlive this call — boolean selection copies, and
        the view dies with the frame."""
        import numpy as np  # lazy: untraced runs never need it

        view = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, ROW_WIDTH)
        view = view[start:stop]
        return view[view[:, COL_KIND] == kind]

    def send_pair_bytes(
        self, start: int = 0, stop: int | None = None
    ) -> Dict[Tuple[int, int], int]:
        """(src, dst) -> bytes sent, over the events ``[start:stop)``."""
        import numpy as np

        sends = self.table(KIND_SEND, start, stop)
        if not len(sends):
            return {}
        # Ranks are non-negative and far below 2**31: one sortable key.
        pairs, inverse = np.unique(
            (sends[:, COL_SRC] << 32) | sends[:, COL_DST], return_inverse=True
        )
        totals = np.zeros(len(pairs), dtype=np.int64)
        np.add.at(totals, inverse, sends[:, COL_NBYTES])
        return dict(
            zip(
                zip((pairs >> 32).tolist(), (pairs & 0xFFFFFFFF).tolist()),
                totals.tolist(),
            )
        )

    # ------------------------------------------------------------------
    # Views used by the determinism checkers
    # ------------------------------------------------------------------
    def sends(self) -> Iterator[CommEvent]:
        return map(_event, self.table(KIND_SEND).tolist())

    def delivers(self) -> Iterator[CommEvent]:
        return map(_event, self.table(KIND_DELIVER).tolist())

    def per_channel_send_sequences(
        self,
    ) -> Dict[Tuple[int, int, int], List[Tuple[int, int, int]]]:
        """channel -> ordered [(seqnum, tag, nbytes)] of send events.

        This is S|c restricted to sends — the object channel-determinism
        (Definition 2) quantifies over.
        """
        cols = [COL_SRC, COL_DST, COL_COMM, COL_SEQNUM, COL_TAG, COL_NBYTES]
        out: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
        for src, dst, comm, seqnum, tag, nbytes in self.table(KIND_SEND)[:, cols].tolist():
            out.setdefault((src, dst, comm), []).append((seqnum, tag, nbytes))
        return out

    def per_process_send_sequences(self) -> Dict[int, List[Tuple]]:
        """rank -> ordered [(dst, comm, seqnum, tag, nbytes)] of sends.

        This is S|p restricted to sends — send-determinism (Definition 1)
        quantifies over it.  The *order across channels* matters here,
        which is exactly what AMG's reply pattern breaks.
        """
        cols = [COL_RANK, COL_DST, COL_COMM, COL_SEQNUM, COL_TAG, COL_NBYTES]
        out: Dict[int, List[Tuple]] = {}
        for rank, *rest in self.table(KIND_SEND)[:, cols].tolist():
            out.setdefault(rank, []).append(tuple(rest))
        return out

    def comm_bytes_matrix(self, nranks: int):
        """Dense (nranks x nranks) numpy matrix of bytes sent src->dst."""
        import numpy as np

        mat = np.zeros((nranks, nranks), dtype=np.int64)
        for pair_bytes in (self.send_pair_bytes(), self.warp_pair_bytes):
            for (src, dst), nbytes in pair_bytes.items():
                mat[src, dst] += nbytes
        return mat
