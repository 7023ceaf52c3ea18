"""CLI entry point (`python -m repro ...`)."""

import os
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.harness.experiments import EXPERIMENTS


def _rejected(argv, capsys) -> str:
    """``main(argv)`` must stop at argument parsing with exit status 2;
    returns what it printed on stderr."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    return capsys.readouterr().err


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
    """--ranks/--rpn are arguments to the drivers, and main() never
    writes the environment (it used to, and later-collected benchmarks
    inherited the scale)."""
    before = dict(os.environ)
    assert main(["table1", "--ranks", "8", "--rpn", "4", "--apps", "minife"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    # The sweep ends at nodes (8 / 4) and ranks: an 8-rank table.
    assert [int(row.split()[0]) for row in rows] == [2, 8]
    assert dict(os.environ) == before


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_cli_passes_the_row_only_the_scale(name, monkeypatch, capsys):
    """``benchmarks/test_*.py`` runs ``EXPERIMENTS[name].run(**scale)``;
    the command adds nothing beyond the scale either, so without flags
    it prints the committed table."""
    calls = []

    def driver(**kwargs):
        calls.append(kwargs)
        return []

    row = replace(EXPERIMENTS[name], driver=driver)
    monkeypatch.setitem(EXPERIMENTS, name, row)
    assert main([name, "--ranks", "8", "--rpn", "2"]) == 0
    assert capsys.readouterr().out == row.render([]) + "\n"
    assert calls == [dict(row.args, nranks=8, ranks_per_node=2)]


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["tableX"])


#: Each driver flag's argparse dest, its option and a well-formed value.
DRIVER_FLAGS = {
    "storage": ("--storage", "memory"),
    "ckpt_data": ("--ckpt-data", "full"),
    "checkpoint_every": ("--checkpoint-every", "2"),
    "mtbf_ns": ("--mtbf", "1"),
}


@pytest.mark.parametrize("name,dest", [
    (name, dest)
    for name, row in EXPERIMENTS.items()
    for dest in DRIVER_FLAGS if dest not in row.flags
])
def test_flag_the_experiment_does_not_accept_is_rejected(name, dest, capsys):
    flag, value = DRIVER_FLAGS[dest]
    err = _rejected([name, "--ranks", "8", "--rpn", "2", flag, value], capsys)
    assert f"{flag} is not accepted by {name}" in err


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
    # One command, one artefact: the cadence report is auto_interval's.
    assert "Auto checkpoint interval" not in out


def test_blastradius_explicit_storage(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--storage", "partner:ram@1,partner@1,pfs@3", "--mtbf", "0.02"]
    ) == 0
    out = capsys.readouterr().out
    assert "partner:ram@1,partner@1,pfs@3" in out


@pytest.mark.parametrize("bad,token", [
    ("tiered:floppy@1", "'floppy'"),  # unknown tier
    ("warp@1", "'warp@1'"),  # unknown backend
])
@pytest.mark.parametrize(
    "name", [n for n, e in EXPERIMENTS.items() if "storage" in e.flags]
)
def test_malformed_storage_rejected(name, bad, token, capsys):
    err = _rejected([name, "--ranks", "8", "--rpn", "2", "--storage", bad], capsys)
    assert "--storage" in err and token in err


def test_blastradius_rejects_bad_checkpoint_every(capsys):
    for bad in ("sometimes", "0"):
        err = _rejected(
            ["blastradius", "--ranks", "8", "--rpn", "2",
             "--checkpoint-every", bad], capsys,
        )
        assert "--checkpoint-every" in err and repr(bad) in err
        assert ">= 1" in err


@pytest.mark.parametrize("bad", ["-1", "0", "soon", "inf"])
def test_nonpositive_mtbf_rejected(bad, capsys):
    err = _rejected(
        ["blastradius", "--ranks", "8", "--rpn", "2", "--mtbf", bad], capsys
    )
    assert "--mtbf" in err and repr(bad) in err
    assert "MTBF must be positive" in err


def test_blastradius_memory_storage_prints_its_one_table(capsys):
    """The free store is a valid blastradius plan; the command prints
    the blast table and nothing else."""
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2", "--storage", "memory"]
    ) == 0
    out = capsys.readouterr().out
    assert "Blast radius" in out
    assert "Auto checkpoint interval" not in out


def test_auto_interval_small_scale(capsys):
    assert main(
        ["auto_interval", "--ranks", "8", "--rpn", "2", "--mtbf", "0.02"]
    ) == 0
    out = capsys.readouterr().out
    assert "Auto checkpoint interval" in out and "T_opt" in out


def test_auto_interval_with_memory_storage_rejected(capsys):
    """The free store has no write cost for the Young/Daly controller to
    optimize against."""
    assert main(
        ["auto_interval", "--ranks", "8", "--rpn", "2", "--storage", "memory"]
    ) == 2
    assert "cost-modeled" in capsys.readouterr().err


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
    err = _rejected(
        ["deltachain", "--ranks", "8", "--rpn", "2",
         "--ckpt-data", "incr:4:zstd"], capsys,
    )
    assert "--ckpt-data" in err and "zstd" in err


def test_blastradius_auto_cadence_accepted(capsys):
    assert main(
        ["blastradius", "--ranks", "8", "--rpn", "2",
         "--checkpoint-every", "auto", "--mtbf", "0.02"]
    ) == 0
    assert "Blast radius" in capsys.readouterr().out


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
