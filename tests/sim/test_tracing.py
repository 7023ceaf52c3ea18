"""Unit tests for the communication trace (the determinism checkers' and
clustering tool's data source)."""

import gc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.tracing import KIND_SEND, KINDS, ROW_WIDTH, CommEvent, Trace


def ev(kind="send", rank=0, t=0, chan=(0, 1, 0), seq=1, tag=0, nbytes=10):
    return CommEvent(
        kind=kind, rank=rank, time_ns=t, channel=chan, seqnum=seq, tag=tag,
        nbytes=nbytes,
    )


def test_disabled_trace_records_nothing():
    t = Trace(enabled=False)
    t.record(ev())
    assert len(t) == 0


def test_event_views_filter_by_kind():
    t = Trace()
    t.record(ev(kind="send"))
    t.record(ev(kind="deliver"))
    t.record(ev(kind="post"))
    t.record(ev(kind="match"))
    assert len(list(t.sends())) == 1
    assert len(list(t.delivers())) == 1


def test_message_key_identity():
    e = ev(chan=(2, 3, 1), seq=9)
    assert e.message_key == (2, 3, 1, 9)


def test_per_channel_send_sequences_ordered():
    t = Trace()
    t.record(ev(chan=(0, 1, 0), seq=1, tag=5, nbytes=100))
    t.record(ev(chan=(0, 2, 0), seq=1, tag=6, nbytes=200))
    t.record(ev(chan=(0, 1, 0), seq=2, tag=5, nbytes=150))
    seqs = t.per_channel_send_sequences()
    assert seqs[(0, 1, 0)] == [(1, 5, 100), (2, 5, 150)]
    assert seqs[(0, 2, 0)] == [(1, 6, 200)]


def test_per_process_send_sequences_cross_channel_order():
    t = Trace()
    t.record(ev(rank=0, chan=(0, 1, 0), seq=1))
    t.record(ev(rank=0, chan=(0, 2, 0), seq=1))
    t.record(ev(rank=1, chan=(1, 0, 0), seq=1))
    per_proc = t.per_process_send_sequences()
    assert [d for d, *_ in per_proc[0]] == [1, 2]  # order across channels kept
    assert len(per_proc[1]) == 1


def test_comm_bytes_matrix():
    t = Trace()
    t.record(ev(chan=(0, 1, 0), nbytes=100))
    t.record(ev(chan=(0, 1, 0), seq=2, nbytes=50))
    t.record(ev(chan=(1, 0, 0), nbytes=25))
    m = t.comm_bytes_matrix(3)
    assert m.shape == (3, 3)
    assert m[0, 1] == 150 and m[1, 0] == 25
    assert m[2].sum() == 0
    assert m.dtype == np.int64


# ----------------------------------------------------------------------
# Flat-row storage: CommEvent in == CommEvent out, whatever the values
# ----------------------------------------------------------------------

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL = st.integers(min_value=-2, max_value=40)  # the -1/-2 sentinels included

events = st.builds(
    CommEvent,
    kind=st.sampled_from(KINDS),
    rank=SMALL,
    time_ns=INT64,
    channel=st.tuples(SMALL, SMALL, SMALL),
    seqnum=st.one_of(st.just(-1), INT64),
    tag=st.one_of(st.just(-2), INT64),
    nbytes=INT64,
    req_seq=st.one_of(st.just(-1), INT64),
    ident=st.tuples(INT64, INT64),
)


@given(st.lists(events, max_size=30))
def test_record_round_trips_through_the_row_array(recorded):
    t = Trace()
    for e in recorded:
        t.record(e)
    assert len(t) == len(t.events) == len(recorded)
    assert list(t.events) == recorded
    assert [t.events[i] for i in range(len(recorded))] == recorded
    assert [t.events[-i - 1] for i in range(len(recorded))] == recorded[::-1]
    assert t.events[1:-1] == recorded[1:-1]
    assert t.events[::-2] == recorded[::-2]
    assert list(t.sends()) == [e for e in recorded if e.kind == "send"]
    assert list(t.delivers()) == [e for e in recorded if e.kind == "deliver"]


def test_events_view_is_a_read_only_live_sequence():
    t = Trace()
    view = t.events
    assert len(view) == 0 and list(view) == [] and view[:] == []
    t.record(ev(seq=1))
    t.record(ev(kind="post", chan=(-1, 1, 0), seq=-1, tag=-2))
    assert len(view) == 2  # live: no need to ask the trace again
    assert view[1].channel == (-1, 1, 0) and view[1].tag == -2
    assert view[-1] == view[1] and ev(seq=1) in view
    for bad in (2, -3):
        with pytest.raises(IndexError):
            view[bad]
    assert not hasattr(view, "append")
    with pytest.raises(TypeError):
        view[0] = ev()


def test_iteration_crosses_decode_chunks():
    t = Trace()
    n = t.events._CHUNK * 2 + 3
    for i in range(n):
        t.record(ev(seq=i))
    assert [e.seqnum for e in t.events] == list(range(n))


def test_a_non_integer_field_is_rejected_before_the_row_is_written():
    t = Trace()
    t.record(ev(seq=1))
    with pytest.raises(Exception):
        t.record(ev(seq=2, nbytes=1.5))
    assert list(t.events) == [ev(seq=1)]  # no half-written row


small_events = st.builds(
    CommEvent,
    kind=st.sampled_from(KINDS),
    rank=st.integers(0, 5),
    time_ns=st.integers(0, 10**9),
    channel=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
    seqnum=st.integers(1, 50),
    tag=st.integers(0, 9),
    nbytes=st.integers(0, 10**6),
    req_seq=st.just(-1),
    ident=st.just((0, 0)),
)


@given(
    st.lists(small_events, max_size=40),
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(1, 10**9),
        max_size=5,
    ),
)
def test_aggregate_views_equal_the_per_event_definitions(recorded, warped):
    t = Trace()
    for e in recorded:
        t.record(e)
    t.warp_pair_bytes.update(warped)
    sends = [e for e in recorded if e.kind == "send"]

    mat = np.zeros((6, 6), dtype=np.int64)
    per_channel, per_process = {}, {}
    for e in sends:
        src, dst, comm = e.channel
        mat[src, dst] += e.nbytes
        per_channel.setdefault(e.channel, []).append((e.seqnum, e.tag, e.nbytes))
        per_process.setdefault(e.rank, []).append(
            (dst, comm, e.seqnum, e.tag, e.nbytes)
        )
    pair_bytes = {
        (s, d): int(mat[s, d]) for s in range(6) for d in range(6)
        if any(e.channel[:2] == (s, d) for e in sends)
    }
    assert t.send_pair_bytes() == pair_bytes
    for (src, dst), nbytes in warped.items():
        mat[src, dst] += nbytes
    assert (t.comm_bytes_matrix(6) == mat).all()
    assert t.per_channel_send_sequences() == per_channel
    assert t.per_process_send_sequences() == per_process
    # A window of the trace (what warp compares between snapshots).
    lo, hi = len(recorded) // 3, 2 * len(recorded) // 3
    window = Trace()
    for e in recorded[lo:hi]:
        window.record(e)
    assert t.send_pair_bytes(lo, hi) == window.send_pair_bytes()


def test_recording_continues_after_a_column_view_was_handed_out():
    """A live ``np.frombuffer`` export pins an ``array`` (appending
    raises BufferError): what the trace hands out must be a copy."""
    t = Trace()
    t.record(ev(seq=1, nbytes=7))
    table = t.table(KIND_SEND)
    pairs = t.send_pair_bytes()
    mat = t.comm_bytes_matrix(2)
    t.record(ev(seq=2, nbytes=5))  # BufferError if any of them pins rows
    assert len(t) == 2
    assert table.shape == (1, ROW_WIDTH) and pairs == {(0, 1): 7}
    assert mat[0, 1] == 7 and t.comm_bytes_matrix(2)[0, 1] == 12


def test_traced_run_keeps_no_more_gc_tracked_objects_than_untraced():
    """The trace is one ``array``: a traced 64-rank ring ends with the
    GC-tracked population of the untraced one plus a constant, not plus
    an object (or three) per event — which is what made the collector
    run four times as often on traced paper runs."""
    from repro.apps.synthetic import ring_app
    from repro.harness.runner import run_native

    def tracked_after(trace):
        gc.collect()
        before = len(gc.get_objects())
        res = run_native(ring_app(iters=20, compute_ns=1000), 64, trace=trace)
        gc.collect()
        return len(gc.get_objects()) - before, len(res.trace)

    tracked_after(True)  # warm caches (imports, interned ints, ...)
    untraced, none = tracked_after(False)
    traced, nevents = tracked_after(True)
    assert none == 0 and nevents > 5_000
    assert traced - untraced < 64, (traced, untraced, nevents)
