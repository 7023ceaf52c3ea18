"""Recording side: writers, sinks, header building, fault injection."""

import json

import pytest

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import RunSpec
from repro.journal.format import Journal, JournalError
from repro.journal.recorder import (
    JournalWriter,
    ListSink,
    build_header,
    end_record,
    failure_fields,
    jsonable,
    journaled_app,
    prepare_writer,
    rewrite_complete,
)


def test_jsonable_passes_primitives_and_degrades_objects():
    assert jsonable({"a": (1, 2.5), "b": None, 3: "x"}) == {
        "a": [1, 2.5], "b": None, "3": "x",
    }

    class Opaque:
        def __repr__(self):
            return "<opaque>"

    assert jsonable(Opaque()) == "<opaque>"
    assert jsonable([Opaque()]) == ["<opaque>"]


def test_list_sink_normalizes_events():
    sink = ListSink()
    sink.emit("commit", t=10, rank=1, round=2, nbytes=(4096,))
    assert sink.events == [
        {"k": "commit", "t": 10, "rank": 1, "round": 2, "nbytes": [4096]}
    ]


def _spec(**over):
    clusters = ClusterMap.block(4, 2)
    kw = dict(
        app_factory=journaled_app("ring", iters=2),
        nranks=4,
        clusters=clusters,
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        schedule=[(100, 1, "process")],
        storage="memory",
    )
    kw.update(over)
    return RunSpec(**kw)


def test_writer_lifecycle_guards(tmp_path):
    w = JournalWriter(str(tmp_path / "j.journal"))
    with pytest.raises(JournalError, match="before the header"):
        w.emit("finish", t=1, rank=0)
    with pytest.raises(JournalError, match="no header"):
        w.to_journal()
    w.write_header(build_header(_spec()))
    with pytest.raises(JournalError, match="twice"):
        w.write_header(build_header(_spec()))
    w.emit("finish", t=1, rank=0)
    w.finish({"makespan_ns": 1})
    with pytest.raises(JournalError, match="after finish"):
        w.emit("finish", t=2, rank=1)
    with pytest.raises(JournalError, match="finished twice"):
        w.finish({"makespan_ns": 1})


def test_writer_stamps_dense_lsns_and_streams(tmp_path):
    p = tmp_path / "j.journal"
    w = JournalWriter(str(p))
    w.write_header(build_header(_spec()))
    for i in range(3):
        w.emit("finish", t=i + 1, rank=i)
    w.finish({"makespan_ns": 3})
    j = Journal.load(p)
    assert [ev["lsn"] for ev in j.events] == [1, 2, 3]
    assert j.complete
    # in-memory view == on-disk view
    mem = w.to_journal()
    assert mem.events == j.events
    assert mem.result == j.result


def test_writer_crash_injection_tears_the_file_not_the_memory(tmp_path):
    p = tmp_path / "j.journal"
    w = JournalWriter(str(p), crash_at_lsn=2)
    w.write_header(build_header(_spec()))
    for i in range(5):
        w.emit("finish", t=i + 1, rank=i)
    w.finish({"makespan_ns": 5})
    disk = Journal.load(p)
    assert disk.torn_tail and not disk.complete
    assert disk.last_lsn == 2  # events past the kill never hit the disk
    mem = w.to_journal()
    assert mem.last_lsn == 5 and mem.complete


def test_rewrite_complete_refuses_incomplete_and_roundtrips(tmp_path):
    p = tmp_path / "j.journal"
    w = JournalWriter(None)
    w.write_header(build_header(_spec()))
    w.emit("finish", t=1, rank=0)
    with pytest.raises(JournalError, match="incomplete"):
        rewrite_complete(str(p), w.to_journal())
    w.finish({"makespan_ns": 1})
    rewrite_complete(str(p), w.to_journal())
    j = Journal.load(p)
    assert j.complete and j.events == w.to_journal().events


def test_journaled_app_annotates_identity():
    factory = journaled_app("ring", iters=3)
    assert factory._journal_app == {"name": "ring", "params": {"iters": 3}}
    with pytest.raises(KeyError):
        journaled_app("no-such-app")


def test_build_header_serializes_the_run(tmp_path):
    h = build_header(_spec())
    # must be losslessly JSON-serializable with stable content
    assert json.loads(json.dumps(h)) == h
    assert h["app"] == {"name": "ring", "params": {"iters": 2}}
    assert h["clusters"] == [0, 0, 1, 1]
    assert h["schedule"] == [[100, 1, "process"]]
    assert h["storage"] == "memory"
    assert h["config"]["checkpoint_every"] == 2


def test_build_header_rejects_live_storage_objects():
    from repro.storage.backend import make_backend

    with pytest.raises(JournalError, match="spec-string"):
        build_header(_spec(storage=make_backend("memory")))


def test_build_header_rejects_emulated_recovery():
    clusters = ClusterMap.block(4, 2)
    cfg = SPBCConfig(clusters=clusters, emulated_recovering={1})
    with pytest.raises(JournalError, match="not journalable"):
        build_header(_spec(config=cfg))


def test_prepare_writer_accepts_path_or_writer_only(tmp_path):
    with pytest.raises(TypeError, match="journal="):
        prepare_writer(42, build_header(_spec()))
    w = prepare_writer(str(tmp_path / "j.journal"), build_header(_spec()))
    assert w.header["fingerprint"]
    w2 = prepare_writer(JournalWriter(None), build_header(_spec()))
    assert w2.path is None and w2.header is not None


def test_failure_fields_avoids_the_kind_collision():
    class Ev:
        rank, cluster, kind, node = 3, 0, "node", 1
        killed_ranks = (3, 4)
        purged_packets, invalidated_copies, cancelled_flushes = 7, 2, 1

    f = failure_fields(Ev())
    # "kind" would collide with the emit(kind=...) parameter; the event
    # payload carries it as failure_kind.
    assert "kind" not in f
    assert f["failure_kind"] == "node"
    assert f["killed_ranks"] == [3, 4]


def test_end_record_sorts_rank_keyed_views():
    rec = end_record(
        makespan_ns=100,
        finish_ns={1: 90, 0: 100},
        results={1: "b", 0: "a"},
        log={1: (10, 2), 0: (20, 4)},
        restarts={1: 1},
        commit_history={0: [(1, 5)], 1: []},
    )
    assert rec["finish_ns"] == [[0, 100], [1, 90]]
    assert rec["results"] == [[0, "a"], [1, "b"]]
    assert rec["log"] == [[0, 20, 4], [1, 10, 2]]
    assert rec["restarts"] == [[1, 1]]
    assert rec["commits"] == [[0, [[1, 5]]], [1, []]]
