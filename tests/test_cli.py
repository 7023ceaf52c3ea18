"""CLI entry point (`python -m repro ...`)."""

import os

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RANKS", raising=False)
    monkeypatch.delenv("REPRO_BENCH_RPN", raising=False)


def test_apps_listing(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("amg", "minighost", "bt", "ring"):
        assert name in out
    assert "ANY_SOURCE" in out


def test_table1_small_scale(capsys):
    assert main(["table1", "--ranks", "8", "--rpn", "2", "--apps", "milc"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "milc.max" in out


def test_scale_flags_reach_the_driver_not_the_environment(capsys):
    """--ranks/--rpn are arguments to the drivers; REPRO_BENCH_* stays
    the scale setting of ``pytest benchmarks/`` and main() never writes
    it (it used to, and later-collected benchmarks inherited the scale)."""
    before = dict(os.environ)
    assert main(["table1", "--ranks", "8", "--rpn", "4", "--apps", "minife"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    # The sweep ends at nodes (8 / 4) and ranks: an 8-rank table.
    assert [int(row.split()[0]) for row in rows] == [2, 8]
    assert dict(os.environ) == before


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_ckptcost_small_scale(capsys):
    assert main(["ckptcost", "--ranks", "8", "--rpn", "2"]) == 0
    out = capsys.readouterr().out
    assert "Checkpoint cost" in out
    for plan in ("memory", "local", "multilevel", "pfs-only"):
        assert plan in out


def test_ckptcost_explicit_storage_spec(capsys):
    assert main(
        ["ckptcost", "--ranks", "8", "--rpn", "2",
         "--storage", "tiered:ram@1,pfs@2"]
    ) == 0
    out = capsys.readouterr().out
    assert "tiered:ram@1,pfs@2" in out


def test_blastradius_small_scale(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2", "--mtbf", "0.02"]
    ) == 0
    out = capsys.readouterr().out
    assert "Blast radius" in out
    assert "no-partner" in out
    # a bare-partner row, not just the "partner" inside "no-partner"
    assert any(
        "partner" in line and "no-partner" not in line
        for line in out.splitlines()
    )
    assert "Auto checkpoint interval" in out


def test_blastradius_explicit_storage(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--storage", "partner:ram@1,partner@1,pfs@3", "--mtbf", "0.02"]
    ) == 0
    out = capsys.readouterr().out
    assert "partner:ram@1,partner@1,pfs@3" in out


def test_blastradius_rejects_malformed_storage(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--storage", "tiered:floppy@1"]
    ) == 2
    err = capsys.readouterr().err
    assert "'floppy'" in err and "ram" in err


def test_blastradius_rejects_bad_checkpoint_every(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--checkpoint-every", "sometimes"]
    ) == 2
    assert "'sometimes'" in capsys.readouterr().err
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--checkpoint-every", "0"]
    ) == 2
    assert ">= 1" in capsys.readouterr().err


def test_blastradius_rejects_nonpositive_mtbf(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2", "--mtbf", "-1"]
    ) == 2
    assert "MTBF" in capsys.readouterr().err


def test_blastradius_memory_storage_skips_auto_interval(capsys):
    """The free store has no write cost: the blast table (the requested
    artifact) still prints and the command succeeds; the Young/Daly
    ride-along is skipped with an actionable note."""
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2", "--storage", "memory"]
    ) == 0
    out = capsys.readouterr().out
    assert "Blast radius" in out
    assert "skipped" in out and "cost-modeled" in out
    assert "Auto checkpoint interval" not in out


def test_deltachain_small_scale(capsys):
    assert main(
        ["deltachain", "--ranks", "8", "--rpn", "2", "--apps", "minife"]
    ) == 0
    out = capsys.readouterr().out
    assert "Delta chains" in out
    assert "incr" in out and "full" in out


def test_deltachain_explicit_ckpt_data_and_storage(capsys):
    assert main(
        ["deltachain", "--ranks", "8", "--rpn", "2", "--apps", "milc",
         "--ckpt-data", "incr:2:lz4-like", "--storage", "tiered:ram@1,pfs@2"]
    ) == 0
    out = capsys.readouterr().out
    assert "incr:2:lz4-like" in out


def test_deltachain_rejects_malformed_ckpt_data(capsys):
    assert main(
        ["deltachain", "--ranks", "8", "--rpn", "2",
         "--ckpt-data", "incr:4:zstd"]
    ) == 2
    err = capsys.readouterr().err
    assert "--ckpt-data" in err and "zstd" in err


def test_deltachain_rejects_malformed_storage(capsys):
    assert main(
        ["deltachain", "--ranks", "8", "--rpn", "2",
         "--storage", "tiered:floppy@1"]
    ) == 2
    assert "floppy" in capsys.readouterr().err


def test_ckptcost_rejects_malformed_storage(capsys):
    assert main(
        ["ckptcost", "--ranks", "8", "--rpn", "2", "--storage", "warp@1"]
    ) == 2
    err = capsys.readouterr().err
    assert "'warp@1'" in err


def test_blastradius_auto_cadence_accepted(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--checkpoint-every", "auto", "--mtbf", "0.02"]
    ) == 0
    out = capsys.readouterr().out
    assert "Blast radius" in out and "Auto checkpoint interval" in out


def test_blastradius_auto_with_memory_storage_rejected(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--checkpoint-every", "auto", "--storage", "memory"]
    ) == 2
    assert "cost-modeled" in capsys.readouterr().err


def test_ioverlap_small_scale(capsys):
    assert main(
        ["ioverlap", "--ranks", "8", "--rpn", "2", "--apps", "minife"]
    ) == 0
    out = capsys.readouterr().out
    assert "I/O overlap" in out
    assert "sync" in out and "async" in out


def test_ioverlap_explicit_storage(capsys):
    assert main(
        ["ioverlap", "--ranks", "8", "--rpn", "2", "--apps", "milc",
         "--storage", "tiered:ram@1,pfs@2"]
    ) == 0
    assert "I/O overlap" in capsys.readouterr().out


def test_ioverlap_rejects_async_spec(capsys):
    assert main(
        ["ioverlap", "--ranks", "8", "--rpn", "2",
         "--storage", "tiered:ram@1,pfs@2:async"]
    ) == 2
    err = capsys.readouterr().err
    assert "base" in err and "async" in err


def test_ioverlap_rejects_malformed_storage(capsys):
    assert main(
        ["ioverlap", "--ranks", "8", "--rpn", "2",
         "--storage", "tiered:floppy@1"]
    ) == 2
    assert "floppy" in capsys.readouterr().err


# ----------------------------------------------------------------------
# journal / replay subcommands
# ----------------------------------------------------------------------

def _record_args(path):
    return [
        "journal", str(path), "--record", "--ranks", "8", "--rpn", "2",
        "--clusters", "4", "--iters", "8",
        "--schedule", "3:2:process",
    ]


def test_journal_record_inspect_replay_resume(tmp_path, capsys):
    path = tmp_path / "run.journal"
    assert main(_record_args(path)) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and '"complete": true' in out

    assert main(["journal", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"app": "ring"' in out and '"projections"' in out

    assert main(["replay", str(path)]) == 0
    assert "replay-strict: OK" in capsys.readouterr().out

    assert main(["replay", str(path), "--shards", "2"]) == 0
    assert "replay-strict: OK" in capsys.readouterr().out

    assert main(["replay", str(path), "--resume"]) == 0
    assert "already complete" in capsys.readouterr().out


def test_replay_reports_divergence(tmp_path, capsys):
    import json

    path = tmp_path / "run.journal"
    assert main(_record_args(path)) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        rec = json.loads(ln)
        if rec.get("k") == "commit":
            rec["nbytes"] += 1
            lines[i] = json.dumps(rec)
            break
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 1
    assert "REPLAY DIVERGED at LSN" in capsys.readouterr().err


def test_journal_requires_path(capsys):
    assert main(["journal"]) == 2
    assert "requires a journal PATH" in capsys.readouterr().err
    assert main(["replay"]) == 2
    assert "requires a journal PATH" in capsys.readouterr().err


def test_journal_rejects_bad_inputs(tmp_path, capsys):
    assert main(["journal", str(tmp_path / "nope.journal")]) == 2
    assert "cannot load" in capsys.readouterr().err
    assert main(
        ["journal", str(tmp_path / "x.journal"), "--record",
         "--schedule", "3:2:meteor"]
    ) == 2
    assert "meteor" in capsys.readouterr().err


def test_journal_path_rejected_for_other_experiments(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "stray.journal"])
    assert "no journal path" in capsys.readouterr().err


# ----------------------------------------------------------------------
# trace subcommand and telemetry flags
# ----------------------------------------------------------------------

def _load_valid_trace(path):
    import json

    from repro.obs.schema import validate_chrome_trace

    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    return doc


def test_trace_projects_a_journal_without_resimulating(tmp_path, capsys):
    path = tmp_path / "run.journal"
    assert main(_record_args(path)) == 0
    capsys.readouterr()
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "journal projection" in out and "wrote" in out
    doc = _load_valid_trace(tmp_path / "run.journal.trace.json")
    assert any(
        e.get("ph") == "X" and e.get("name") == "checkpoint"
        for e in doc["traceEvents"]
    )


def test_trace_run_replays_with_full_instrumentation(tmp_path, capsys):
    path = tmp_path / "run.journal"
    assert main(_record_args(path)) == 0
    capsys.readouterr()
    trace_out = tmp_path / "full.trace.json"
    assert main(
        ["trace", str(path), "--run", "--trace-out", str(trace_out),
         "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "strict replay" in out
    assert "Counters" in out and "spbc.commits" in out
    doc = _load_valid_trace(trace_out)
    # Live replay has engine-internal lanes the projection cannot have.
    assert any(
        e.get("ph") == "C" and e.get("name") == "queue depth"
        for e in doc["traceEvents"]
    )


def test_journal_record_with_telemetry_flags(tmp_path, capsys):
    path = tmp_path / "run.journal"
    trace_out = tmp_path / "rec.trace.json"
    assert main(
        _record_args(path) + ["--trace-out", str(trace_out), "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "Counters" in out
    _load_valid_trace(trace_out)
    # The journal itself still replays strictly (recording was
    # observation-only even with telemetry on).
    assert main(["replay", str(path)]) == 0
    assert "replay-strict: OK" in capsys.readouterr().out


def test_replay_with_metrics_prints_tables(tmp_path, capsys):
    path = tmp_path / "run.journal"
    assert main(_record_args(path)) == 0
    capsys.readouterr()
    assert main(["replay", str(path), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "replay-strict: OK" in out and "Counters" in out
