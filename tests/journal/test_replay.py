"""Strict replay, cross-engine equivalence, and crash-resume."""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import ring_app
from repro.ckptdata.regions import MemoryRegion, WriteLocalityProfile
from repro.core.clusters import ClusterMap
from repro.core.protocol import LogCostModel, SPBCConfig
from repro.harness.runner import RunSpec, run_spbc
from repro.journal import (
    DivergenceError,
    Journal,
    JournalError,
    replay_strict,
    resume,
    spec_from_header,
)
from repro.journal.format import canonical_json, fingerprint, strip_lsn
from repro.journal.recorder import JournalWriter, build_header, journaled_app
from repro.sim.network import NetworkParams
from repro.sim.warp import WarpConfig
from repro.util.units import SEC


def _tamper(path, predicate, mutate):
    """Rewrite the first matching record in place."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i, ln in enumerate(lines):
        rec = json.loads(ln)
        if predicate(rec):
            mutate(rec)
            lines[i] = json.dumps(rec)
            break
    else:
        raise AssertionError("no record matched")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_replay_strict_sequential(recorded):
    path, out = recorded
    res = replay_strict(path)
    assert res.resimulated
    assert res.makespan_ns == out.makespan_ns
    assert res.results == out.results


def test_replay_strict_cross_engine(recorded):
    """The engine is a replay choice: a sequential recording must verify
    bit-identically under the sharded engine."""
    res = replay_strict(recorded[0], shards=4)
    assert res.makespan_ns == recorded[1].makespan_ns


def test_sharded_recording_matches_sequential(recorded, record_run, tmp_path):
    """A sharded run records the same canonical event stream and final
    observables as the sequential run of the same config."""
    p = tmp_path / "sharded.journal"
    out = record_run(str(p), shards=4)
    assert out.makespan_ns == recorded[1].makespan_ns
    seq, sh = Journal.load(recorded[0]), Journal.load(p)
    a = [strip_lsn(e) for e in seq.canonical_events()]
    b = [strip_lsn(e) for e in sh.canonical_events()]
    assert a == b
    assert canonical_json(seq.result) == canonical_json(sh.result)
    # and the sharded recording replays clean on the sequential engine
    replay_strict(str(p), shards=None)


def test_replay_strict_requires_complete_journal(journal_copy):
    with open(journal_copy) as fh:
        lines = fh.read().splitlines()
    with open(journal_copy, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")  # drop the end record
    with pytest.raises(JournalError, match="incomplete"):
        replay_strict(journal_copy)


def test_replay_strict_flags_divergent_event_by_lsn(journal_copy):
    _tamper(
        journal_copy,
        lambda r: r.get("k") == "commit",
        lambda r: r.update(nbytes=r["nbytes"] + 1),
    )
    with pytest.raises(DivergenceError) as exc:
        replay_strict(journal_copy)
    assert exc.value.lsn is not None
    assert exc.value.recorded["nbytes"] == exc.value.replayed["nbytes"] + 1


def test_replay_strict_flags_divergent_observables(journal_copy):
    _tamper(
        journal_copy,
        lambda r: r.get("type") == "end",
        lambda r: r.update(makespan_ns=r["makespan_ns"] + 1),
    )
    with pytest.raises(DivergenceError, match="final observables"):
        replay_strict(journal_copy)


def test_resume_complete_journal_skips_simulation(recorded):
    res = resume(recorded[0])
    assert not res.resimulated
    assert res.makespan_ns == recorded[1].makespan_ns
    assert res.results == recorded[1].results
    assert res.log and res.commit_history


def test_resume_torn_journal_reexecutes_and_rewrites(record_run, tmp_path):
    p = tmp_path / "torn.journal"
    writer = JournalWriter(str(p), crash_at_lsn=20)
    out = record_run(None, journal=writer)  # full run; file torn at LSN 20
    torn = Journal.load(p)
    assert torn.torn_tail and torn.last_lsn == 20

    res = resume(str(p))
    assert res.resimulated
    assert res.makespan_ns == out.makespan_ns
    assert res.results == out.results
    assert res.finish_ns == {
        r: p_.finish_time for r, p_ in out.world.processes.items()
    }

    healed = Journal.load(p)
    assert healed.complete and not healed.torn_tail
    replay_strict(str(p))  # the healed journal verifies end to end


def test_resume_refuses_a_prefix_the_rerun_cannot_reproduce(
    record_run, tmp_path
):
    p = tmp_path / "torn.journal"
    record_run(None, journal=JournalWriter(str(p), crash_at_lsn=20))
    _tamper(
        p,
        lambda r: r.get("k") == "commit",
        lambda r: r.update(nbytes=r["nbytes"] + 1),
    )
    with pytest.raises(DivergenceError, match="refusing to resume"):
        resume(str(p))


def test_unannotated_app_needs_explicit_factory(tmp_path):
    """A bare closure records app: null; replay requires app_factory=."""
    p = tmp_path / "anon.journal"
    clusters = ClusterMap.block(8, 4)
    cfg = SPBCConfig(clusters=clusters, checkpoint_every=2,
                     state_nbytes=4096)
    factory = ring_app(iters=6, msg_bytes=1024, compute_ns=100_000)
    run_spbc(factory, 8, clusters, storage="memory", config=cfg,
             journal=str(p))
    assert Journal.load(p).header["app"] is None
    with pytest.raises(JournalError, match="app_factory"):
        replay_strict(str(p))
    res = replay_strict(str(p), app_factory=factory)
    assert res.resimulated


def test_failure_free_run_spbc_journal(tmp_path):
    p = tmp_path / "ff.journal"
    clusters = ClusterMap.block(8, 4)
    cfg = SPBCConfig(clusters=clusters, checkpoint_every=2,
                     state_nbytes=4096)
    out = run_spbc(journaled_app("halo2d", iters=6), 8, clusters,
                   storage="memory", config=cfg, journal=str(p))
    j = Journal.load(p)
    assert not j.failures() and not j.restarts()
    assert j.finish_ns() == out.finish_ns
    res = replay_strict(str(p))
    assert res.makespan_ns == out.makespan_ns
    replay_strict(str(p), shards=2)


def test_recorded_views_match_runner_observables(recorded, journal):
    path, out = recorded
    assert journal.finish_ns() == {
        r: p.finish_time for r, p in out.world.processes.items()
    }
    assert {ev["rank"] for ev in journal.failures()} == {2, 9}
    # two failures at distinct instants -> both clusters restarted
    assert len(journal.restarts()) == len(journal.failures())
    hooks = out.world.hooks
    storage = hooks.storage
    for rank, hist in journal.commit_history().items():
        assert [rnd for rnd, _ in hist] == storage.rounds_of(rank)
    end_log = {r: (b, n) for r, b, n in journal.result["log"]}
    assert end_log == {
        r: (st.log.bytes_logged, st.log.records_logged)
        for r, st in hooks.state.items()
    }


@pytest.mark.slow
def test_replay_strict_128_ranks_both_engines(tmp_path):
    """The acceptance bar: a recorded 128-rank failure-schedule run
    replays bit-identically, sequentially and sharded, from either
    recording mode."""
    from repro.harness.runner import run_failure_schedule
    from repro.util.units import MS

    clusters = ClusterMap.block(128, 8)
    sched = [(3 * MS, 5, "process"), (9 * MS, 70, "node")]

    def go(path, shards):
        return run_failure_schedule(
            journaled_app("ring", iters=12), 128, clusters, sched,
            ranks_per_node=8, storage="tiered:ram@1,pfs@4",
            config=SPBCConfig(clusters=clusters, checkpoint_every=3,
                              state_nbytes=4096),
            shards=shards, journal=str(path),
        )

    p_seq = tmp_path / "seq.journal"
    p_sh = tmp_path / "sh.journal"
    a = go(p_seq, None)
    b = go(p_sh, 4)
    assert a.makespan_ns == b.makespan_ns
    ja, jb = Journal.load(p_seq), Journal.load(p_sh)
    assert [strip_lsn(e) for e in ja.canonical_events()] == [
        strip_lsn(e) for e in jb.canonical_events()
    ]
    assert canonical_json(ja.result) == canonical_json(jb.result)
    for path in (p_seq, p_sh):
        assert replay_strict(str(path)).makespan_ns == a.makespan_ns
        assert replay_strict(str(path), shards=4).makespan_ns == a.makespan_ns


# ----------------------------------------------------------------------
# The header is the serialised RunSpec
# ----------------------------------------------------------------------

def _journal_with(header):
    """What a reader gets back: the header after the writer stamped it
    and a trip through its canonical JSON line."""
    writer = JournalWriter(None)
    writer.write_header(header)
    return Journal(path=None, header=json.loads(canonical_json(writer.header)))


@st.composite
def run_specs(draw):
    """RunSpecs over every JSON-able field (registered apps, spec
    strings — what a journal can describe)."""
    nranks = draw(st.sampled_from([8, 16]))
    clusters = draw(st.sampled_from([
        ClusterMap.block(nranks, 2),
        ClusterMap.block(nranks, 4),
        ClusterMap.singletons(nranks),
    ]))
    app = draw(st.sampled_from(["ring", "halo2d", "minife", "milc"]))
    entry = st.tuples(
        st.integers(0, 10**10),
        st.integers(0, nranks - 1),
        st.sampled_from(["process", "node"]),
    )
    config = SPBCConfig(
        clusters=clusters,
        ident_matching=draw(st.booleans()),
        cost=LogCostModel(log_ns_per_byte=draw(st.floats(0, 8))),
        checkpoint_every=draw(st.sampled_from([None, 1, 3, "auto"])),
        mtbf_ns=draw(st.sampled_from([10**9, 60 * 10**9])),
        state_nbytes=draw(st.integers(0, 1 << 20)),
        rollback_scope=draw(st.sampled_from(["known", "all"])),
    )
    profile = WriteLocalityProfile(regions=tuple(
        MemoryRegion(f"r{i}", nbytes, frac)
        for i, (nbytes, frac) in enumerate(draw(st.lists(
            st.tuples(st.integers(0, 1 << 16), st.floats(0, 1)),
            min_size=1, max_size=3,
        )))
    ))
    # A repeated entry is a legal schedule (a second hit while down).
    schedule = draw(st.lists(entry, max_size=4))
    return RunSpec(
        journaled_app(app, iters=draw(st.integers(1, 40))),
        nranks,
        clusters,
        config,
        schedule=schedule + schedule[:1],
        restart_delay_ns=draw(st.integers(0, 10**7)),
        ranks_per_node=draw(st.sampled_from([2, 4, 8])),
        seed=draw(st.integers(0, 2**31)),
        net_params=draw(st.sampled_from([
            None,
            NetworkParams(alpha_inter_ns=5_000, jitter_max_ns=100),
            NetworkParams(beta_inter_ns_per_byte=0.3),
        ])),
        trace=draw(st.booleans()),
        storage=draw(st.sampled_from([
            None, "memory", "tiered:ram@1,pfs@4",
            "partner:ram@1,partner@1,pfs@2:async",
        ])),
        ckpt_data=draw(st.sampled_from([None, "full", "incr:4:zlib-like"])),
        profile=draw(st.sampled_from([None, profile])),
        warp=draw(st.sampled_from([
            None, 40, WarpConfig(total_iters=40, confirm=3, max_chunk=8),
        ])),
    )


@settings(max_examples=60, deadline=None)
@given(spec=run_specs())
def test_header_round_trips_the_run_spec(spec):
    header = build_header(spec)
    back = spec_from_header(_journal_with(header))
    for f in dataclasses.fields(RunSpec):
        was, now = getattr(spec, f.name), getattr(back, f.name)
        if f.name == "app_factory":  # a fresh closure of the same app
            was, now = was._journal_app, now._journal_app
        assert was == now, f.name
    assert build_header(back) == header


GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "golden.journal"
)


def test_golden_header_is_reproduced_without_its_retired_fields():
    """The version-1 layout is unchanged except that the retired fields
    are no longer written: the committed first line, minus the three
    retired fields at their only values, is what its own RunSpec
    serialises to (the fingerprint follows the fields)."""
    golden = Journal.load(GOLDEN).header
    spec = spec_from_header(Journal.load(GOLDEN))
    expected = json.loads(canonical_json(golden))
    assert expected.pop("restart_stagger_ns") == 0
    assert expected["config"].pop("mtbf_prior_ns") == 60 * SEC
    assert expected["config"].pop("pfs_stagger_ns") == 0
    expected["fingerprint"] = fingerprint(expected)
    writer = JournalWriter(None)
    writer.write_header(build_header(spec))
    assert canonical_json(writer.header) == canonical_json(expected)


def _rewrite_header(path, mutate):
    """Edit a journal's header in place, fingerprint recomputed (an
    older writer's header, not a tampered one)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    mutate(header)
    header["fingerprint"] = fingerprint(header)
    lines[0] = canonical_json(header)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _with_retired(
    restart_stagger_ns=0, mtbf_prior_ns=60 * SEC, pfs_stagger_ns=0
):
    """A header mutation adding the retired fields, as older writers
    recorded them."""

    def mutate(header):
        header["restart_stagger_ns"] = restart_stagger_ns
        header["config"].update(
            mtbf_prior_ns=mtbf_prior_ns, pfs_stagger_ns=pfs_stagger_ns
        )
    return mutate


def test_new_headers_carry_no_retired_field(journal):
    assert "restart_stagger_ns" not in journal.header
    assert not {"mtbf_prior_ns", "pfs_stagger_ns"} & set(journal.header["config"])


def test_header_with_retired_fields_at_their_defaults_replays(
    recorded, journal_copy
):
    _rewrite_header(journal_copy, _with_retired())
    assert "restart_stagger_ns" in Journal.load(journal_copy).header
    res = replay_strict(journal_copy)
    assert res.makespan_ns == recorded[1].makespan_ns


@pytest.mark.parametrize("field, mutate", [
    ("config.pfs_stagger_ns", _with_retired(pfs_stagger_ns=5)),
    ("config.mtbf_prior_ns", _with_retired(mtbf_prior_ns=SEC)),
    ("restart_stagger_ns", _with_retired(restart_stagger_ns=7)),
    ("config.mtbf_ns", lambda h: h["config"].update(mtbf_ns="observed")),
])
def test_header_with_a_retired_setting_is_refused(journal_copy, field, mutate):
    """A journal recorded with a retired option at another value
    describes a run this code cannot reproduce: refused up front, and
    the message names the field."""
    _rewrite_header(journal_copy, mutate)
    with pytest.raises(JournalError, match=f"header {field}="):
        replay_strict(journal_copy)
