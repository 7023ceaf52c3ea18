"""The simperf gate table, without timing anything: each gate's verdict
on synthetic measurements, the host-scaled shard rule, the CLI's exit
code, the flags that are gone.  The live measurements are
``benchmarks/test_simperf.py``."""

import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

from repro.__main__ import main
from repro.harness import simperf as sp
from repro.harness.simperf import Pair

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Per gate: a (numerator, denominator) that passes and one that trips.
SYNTHETIC = {
    "telemetry-off": ((0.0301, 0.0300), (0.0310, 0.0300)),
    "eventq-hold": ((900e3, 400e3), (560e3, 400e3)),
    "warp": ((11.8, 0.79), (7.0, 0.79)),
    "storm-scaling": ((7.0, 5.0), (10.5, 5.0)),
    "trace-cost": ((2.4, 2.0), (2.8, 2.0)),
    "shard4-sync": ((24.0, 7.0), (24.0, 13.0)),
    "shard4-async": ((24.0, 7.0), (24.0, 13.0)),
}


def _all_gates(monkeypatch):
    monkeypatch.setattr(sp, "host_cpus", lambda: 4)
    return sp.GATES + sp.shard_gates(4)


def test_every_gate_has_a_synthetic_pair(monkeypatch):
    assert {g.name for g in _all_gates(monkeypatch)} == set(SYNTHETIC)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_verdict_passes_and_trips(name, monkeypatch):
    gate = {g.name: g for g in _all_gates(monkeypatch)}[name]
    for (a, b), expected in zip(SYNTHETIC[name], (True, False)):
        ok, line = sp.verdict(gate, Pair(a, b, a / b))
        assert ok is expected, line
        for part in (gate.name, gate.a, f"{a:.4g}", gate.b, f"{b:.4g}",
                     f"{a / b:.3f}", f"{gate.op} {gate.limit:g}"):
            assert part in line, (part, line)
        assert (gate.trip in line) is not expected


def test_limits_are_todays():
    assert {g.name: (g.op, g.limit) for g in sp.GATES} == {
        "telemetry-off": ("<=", 1.02),
        "eventq-hold": (">=", 1.5),
        "warp": (">=", 10),
        "storm-scaling": ("<=", 1.6),
        "trace-cost": ("<=", 1.35),
    }


def test_incomparable_sides_trip_whatever_the_ratio():
    warp = next(g for g in sp.GATES if g.name == "warp")
    ok, line = sp.verdict(warp, Pair(11.8, 0.79, 14.9, "no iteration was warped"))
    assert not ok and "no iteration was warped" in line


@pytest.mark.parametrize("cpus,nshards,required", [
    (1, 4, None), (1, 8, None),
    (2, 4, 2.0), (2, 8, 2.0),
    (4, 4, 3.0), (4, 8, 2.0),
    (8, 4, 3.0), (8, 8, 3.0),
])
def test_shard_rule_is_host_scaled(cpus, nshards, required, monkeypatch):
    """3x with a core per shard, 2x on a smaller multi-core host, not
    gated on one core — ``check_shard_speedup``'s table, unchanged."""
    assert sp.shard_limit(cpus, nshards) == required
    monkeypatch.setattr(sp, "host_cpus", lambda: cpus)
    for gate in sp.shard_gates(nshards):
        just_under = Pair(1.99, 1.0, 1.99)
        assert sp.verdict(gate, just_under)[0] is (required is None)
        assert sp.verdict(gate, Pair(2.5, 1.0, 2.5))[0] is (required != 3.0)
        assert sp.verdict(gate, Pair(3.0, 1.0, 3.0))[0]


def _stub(monkeypatch, failing=()):
    """Swap every measurement for a synthetic pair; returns the names of
    the gates that got measured, in order."""
    measured = []

    def fake(name):
        measured.append(name)
        a, b = SYNTHETIC[name][name in failing]
        return Pair(a, b, a / b)

    def stubbed(gates):
        return tuple(replace(g, attempts=(partial(fake, g.name),)) for g in gates)

    real_shard_gates = sp.shard_gates
    monkeypatch.setattr(sp, "host_cpus", lambda: 4)
    monkeypatch.setattr(sp, "GATES", stubbed(sp.GATES))
    monkeypatch.setattr(sp, "shard_gates", lambda n: stubbed(real_shard_gates(n)))
    return measured


def test_cli_exit_code_follows_the_gates(monkeypatch, capsys):
    measured = _stub(monkeypatch)
    assert main(["simperf"]) == 0
    assert measured == [g.name for g in sp.GATES]
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == len(sp.GATES) and not err

    for name in measured:
        _stub(monkeypatch, failing={name})
        assert main(["simperf"]) == 1
        out, err = capsys.readouterr()
        tripped = [ln for ln in err.splitlines() if ln.startswith("PERF REGRESSION: ")]
        assert len(tripped) == 1 and name in tripped[0]
        assert len(out.splitlines()) == len(sp.GATES) - 1


def test_cli_shards_adds_exactly_the_two_shard_gates(monkeypatch, capsys):
    measured = _stub(monkeypatch)
    assert main(["simperf", "--shards", "4"]) == 0
    assert measured[len(sp.GATES):] == ["shard4-sync", "shard4-async"]
    _stub(monkeypatch, failing={"shard4-async"})
    assert main(["simperf", "--shards", "4"]) == 1
    assert "shard4-async" in capsys.readouterr().err


def test_a_failing_attempt_is_retried_once_wider(capsys):
    calls = []

    def attempt(ratio):
        calls.append(ratio)
        return Pair(ratio, 1.0, ratio)

    gate = replace(sp.GATES[0], attempts=(partial(attempt, 1.05), partial(attempt, 1.0)))
    assert sp.run_gates([gate]) == 0 and calls == [1.05, 1.0]
    gate = replace(gate, attempts=(partial(attempt, 1.05), partial(attempt, 1.04)))
    assert sp.run_gates([gate]) == 1
    assert "= 1.040" in capsys.readouterr().err  # the last attempt is the verdict
    assert [a.args for a in sp.GATES[0].attempts] == [(25,), (75,)]


@pytest.mark.parametrize(
    "flag", ["--quick", "--warp", "--samples=3", "--json=x.json", "--baseline=x.json"]
)
def test_removed_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simperf", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_telemetry_gate_trips_live_when_the_off_side_is_on(monkeypatch, capsys):
    """Every gate can still fail — shown live on the cheapest one: with
    an enabled ``Telemetry`` standing in for the wired-but-off ``None``,
    the paired ratio reads 1.05-1.12 against the limit of 1.02."""
    from repro.obs import Telemetry

    real = sp.run_spbc

    def wired_on(*args, **kw):
        if "telemetry" in kw:
            kw["telemetry"] = Telemetry()
        return real(*args, **kw)

    monkeypatch.setattr(sp, "run_spbc", wired_on)
    assert sp.run_gates([sp.GATES[0]]) == 1  # both attempts: 25 pairs, then 75
    out, err = capsys.readouterr()
    assert "measuring again" in out and "PERF REGRESSION: telemetry-off" in err


def test_profile_hotpath_eventq_still_runs():
    """The tool borrows the hold-model helper by its public name."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_hotpath.py"), "eventq",
         "--top", "3"],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "260000" in proc.stdout and "hold_once" in proc.stdout
