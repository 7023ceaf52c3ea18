"""Unit tests for the sender-side message log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logstore import LogRecord, LogStore
from repro.util.units import MB, SEC


def rec(dst=1, seq=1, nbytes=100, comm=0, t=0, tag=0, ident=(0, 0)):
    return LogRecord(
        comm_id=comm,
        dst=dst,
        seqnum=seq,
        tag=tag,
        nbytes=nbytes,
        ident=ident,
        payload=None,
        send_time_ns=t,
    )


def test_append_and_accounting():
    log = LogStore(0)
    log.append(rec(seq=1, nbytes=100))
    log.append(rec(seq=2, nbytes=50))
    assert log.bytes_logged == 150
    assert log.records_logged == 2
    assert log.last_seq(0, 1) == 2
    assert log.last_seq(0, 9) == 0


def test_nonmonotonic_seq_rejected():
    log = LogStore(0)
    log.append(rec(seq=2))
    with pytest.raises(ValueError):
        log.append(rec(seq=2))
    with pytest.raises(ValueError):
        log.append(rec(seq=1))


def test_replay_after_filters_and_orders():
    log = LogStore(0)
    for s in range(1, 6):
        log.append(rec(seq=s))
    out = log.replay_after(0, 1, 3)
    assert [r.seqnum for r in out] == [4, 5]
    assert log.replay_after(0, 1, 10) == []
    assert [r.seqnum for r in log.replay_after(0, 1, 0)] == [1, 2, 3, 4, 5]


def test_growth_rate():
    log = LogStore(0)
    log.append(rec(seq=1, nbytes=2 * MB))
    assert log.growth_rate_mb_s(2 * SEC) == pytest.approx(1.0)
    assert log.growth_rate_mb_s(0) == 0.0


def test_snapshot_restore_roundtrip():
    log = LogStore(0)
    log.append(rec(seq=1))
    snap = log.snapshot()
    log.append(rec(seq=2))
    log.restore(snap)
    assert log.last_seq(0, 1) == 1
    assert log.records_logged == 1


def test_truncate_frees_but_keeps_counters():
    log = LogStore(0)
    log.append(rec(seq=1, nbytes=77))
    log.truncate()
    assert log.replay_after(0, 1, 0) == []
    assert log.bytes_logged == 77  # cumulative accounting (Table 1)


def test_truncate_moves_records_to_the_stable_area():
    log = LogStore(0)
    log.append(rec(seq=1, nbytes=10))
    log.append(rec(seq=2, nbytes=20))
    assert log.resident_bytes == 30 and log.resident_records == 2
    log.truncate()
    assert log.resident_bytes == 0 and log.resident_records == 0
    # replay for recovery still reaches the truncated records
    stable = log.replay_after(0, 1, 0, include_stable=True)
    assert [r.seqnum for r in stable] == [1, 2]
    # the resident area keeps extending the same channel
    log.append(rec(seq=3, nbytes=5))
    assert log.last_seq(0, 1) == 3
    assert log.resident_records == 1
    both = log.replay_after(0, 1, 1, include_stable=True)
    assert [r.seqnum for r in both] == [2, 3]
    assert [r.seqnum for r in log.replay_after(0, 1, 1)] == [3]


def test_seq_validation_spans_truncation():
    log = LogStore(0)
    log.append(rec(seq=5))
    log.truncate()
    with pytest.raises(ValueError):
        log.append(rec(seq=5))  # must still increase past the stable area


def test_channel_keys_and_merged_channels_span_both_areas():
    log = LogStore(0)
    log.append(rec(dst=1, seq=1))
    log.truncate()
    log.append(rec(dst=2, seq=1))
    assert log.channel_keys() == {(0, 1), (0, 2)}
    merged = log.merged_channels()
    assert {k: [r.seqnum for r in v] for k, v in merged.items()} == {
        (0, 1): [1],
        (0, 2): [1],
    }
    assert sorted((r.dst, r.seqnum) for r in log.all_records()) == [(1, 1), (2, 1)]


def test_restore_lands_in_the_stable_area():
    log = LogStore(0)
    log.append(rec(seq=1, nbytes=40))
    snap = log.snapshot()
    other = LogStore(0)
    other.restore(snap)
    assert other.resident_bytes == 0  # snapshot content is on stable storage
    assert other.bytes_logged == 40
    assert other.replay_after(0, 1, 0) == []
    assert [r.seqnum for r in other.replay_after(0, 1, 0, include_stable=True)] == [1]


def test_snapshot_covers_stable_and_resident():
    log = LogStore(0)
    log.append(rec(seq=1))
    log.truncate()
    log.append(rec(seq=2))
    snap = log.snapshot()
    assert [r.seqnum for r in snap["channels"][(0, 1)]] == [1, 2]
    assert snap["records_logged"] == 2


@settings(max_examples=50, deadline=None)
@given(
    seqs=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60, unique=True),
    cut=st.integers(min_value=0, max_value=10_000),
)
def test_property_replay_after_is_sorted_suffix(seqs, cut):
    log = LogStore(0)
    for s in sorted(seqs):
        log.append(rec(seq=s, nbytes=s))
    out = log.replay_after(0, 1, cut)
    assert [r.seqnum for r in out] == sorted(s for s in seqs if s > cut)
    assert log.bytes_logged == sum(seqs)
