#!/usr/bin/env python3
"""The repository's benchmark: five workloads, host-time end-to-end
metrics, and a separate traced pass with per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--reps N]
                                  [--traced] [--out DIR] [--record]

runs each workload in its own fresh child process, one at a time,
prints every metric by name with its unit, and checks that every
repetition's *simulated* observables are correct.  Every timing is
host time; see README.md for the definitions.

The benchmark driver's form is

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import metrics  # noqa: E402 - sibling module, needs no repro
from tracing import (  # noqa: E402
    LAYERS,
    Spans,
    bucket_profile,
    chrome_trace,
    self_time_of,
)

EXPECTED_JSON = HERE / "expected.json"
TRAJECTORY = HERE / "trajectory.jsonl"
WORKDIR = HERE / ".work"  # scratch files of the journal drive (git-ignored)
RESULT_MARK = "@@e2e-result@@ "

#: Fewest timed repetitions a run reports a median of.
MIN_REPS = 3
#: Set-up is measured in up to this many fresh processes per run (the
#: timing child plus set-up-only children); ``setup_s`` is their median.
#: A short set-up is relatively noisy and cheap to repeat; a long one is
#: neither, so the extra children stop once they would cost more than
#: the budget.
SETUP_SAMPLES = 3
SETUP_EXTRA_BUDGET_S = 3.0
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# Child side: one workload, one pass, in a fresh process
# ----------------------------------------------------------------------

def _cpu_s() -> tuple:
    """(own, reaped children's) user+system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any child it reaped."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _repetition(
    prepared, workloads, spans: Spans, index: int, call=None, counts: bool = False
) -> dict:
    """Time one repetition and read its observables (and, for the
    traced pass, its counts) before dropping the result (a retained
    2048-rank world slows the next repetition ~20 %).  A repetition
    that raises is a failed repetition, not a crash."""
    call = call or prepared.run
    rep: Dict[str, Any] = {"problems": []}
    gc.collect()
    own0, kids0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with spans.span(f"rep.{index}"):
            result = call()
    except Exception:
        rep["problems"].append("raised:\n" + traceback.format_exc())
        return rep
    rep["wall_s"] = time.perf_counter() - t0
    own1, kids1 = _cpu_s()
    rep["children_cpu_s"] = kids1 - kids0
    rep["cpu_s"] = own1 - own0 + rep["children_cpu_s"]
    rep["digest"] = workloads.digest(prepared.observe(result))
    rep["problems"] += prepared.check(result)
    if counts:
        rep["counts"] = prepared.counts(result)
    del result
    gc.collect()
    return rep


def _judge(reps: List[dict], pinned: Optional[str]) -> None:
    """Digest verdict per repetition: the pinned digest where one
    applies, otherwise agreement with the run's first repetition."""
    want = pinned or next((r["digest"] for r in reps if "digest" in r), None)
    label = "pinned digest" if pinned else "first repetition's digest"
    for rep in reps:
        if "digest" in rep and rep["digest"] != want:
            rep["problems"].append(f"observables digest differs from the {label}")


def child_main(spec: dict) -> dict:
    name, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    smoke = spec["smoke"]
    spans = Spans(name)
    with spans.span("setup.import"):
        import workloads
    if mode == "layers":
        import layers

        WORKDIR.mkdir(exist_ok=True)
        return {"drives": layers.run_drives(0.05 if smoke else 1.0, WORKDIR)}

    workload = workloads.WORKLOADS[name]
    nranks = workloads.SMALL_RANKS if smoke else workload.nranks
    with spans.span("setup.inputs"):
        prepared = workload.build(nranks, seed)
    with spans.span("setup.reference"):
        prepared.reference()
    if not smoke:
        with spans.span("warmup"):
            small = workload.build(workloads.SMALL_RANKS, seed)
            small.reference()
            small.run()
            del small
    out: Dict[str, Any] = {"setup_s": time.time() - spec["t_spawn"]}
    if mode == "setup":
        return out

    pinned = None
    if not smoke and EXPECTED_JSON.exists():
        entry = json.loads(EXPECTED_JSON.read_text()).get(name)
        if entry and (not prepared.seeded or entry["seed"] == seed):
            pinned = entry["digest"]

    reps: List[dict] = []
    if mode == "timed":
        t_start = time.perf_counter()
        while True:
            reps.append(_repetition(prepared, workloads, spans, len(reps)))
            if spec["reps"]:
                if len(reps) >= spec["reps"]:
                    break
            elif (
                len(reps) >= MIN_REPS
                and time.perf_counter() - t_start >= spec["seconds"]
            ):
                break
    elif mode == "pin":
        reps.append(_repetition(
            prepared, workloads, spans, 0, call=prepared.run_sequential
        ))
        pinned = None
    else:  # traced: one plain repetition as the base, then the profiled one
        import cProfile

        reps.append(_repetition(prepared, workloads, spans, 0))
        harvest = workloads.Harvest()
        profile = cProfile.Profile()
        with prepared.instrument(spans, harvest):
            traced = _repetition(
                prepared, workloads, spans, 1,
                call=lambda: profile.runcall(prepared.run), counts=True,
            )
        reps.append(traced)
        out["profile"] = bucket_profile(profile)
        out["counts"] = traced.pop("counts", None) or harvest.totals
        out["coord_wait_s"] = (
            self_time_of(profile, ("posix.read", "poll"))
            if prepared.run_sequential else 0.0
        )
        if prepared.run_sequential is not None:
            seq = _repetition(
                prepared, workloads, spans, 2, call=prepared.run_sequential
            )
            seq["sequential"] = True
            reps.append(seq)
    _judge(reps, pinned)
    out.update(reps=reps, peak_rss_mib=_peak_rss_mib(), spans=spans.records)
    return out


# ----------------------------------------------------------------------
# Parent side: orchestrate children, assemble and print results
# ----------------------------------------------------------------------

def spawn(spec: dict) -> dict:
    """Run one child to completion; its whole process group is gone
    when this returns."""
    spec = dict(spec, t_spawn=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        if proc.poll() != 0:  # timed out or crashed: shard workers may linger
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_MARK):
            return json.loads(line[len(RESULT_MARK):])
    raise RuntimeError(
        f"{spec['workload']} {spec['mode']} child gave no result "
        f"(exit code {proc.returncode})"
    )


def _metric(value: float, unit: str, **extra) -> dict:
    return dict(value=value, unit=unit, **extra)


def run_timed(base: dict) -> dict:
    """The end-to-end numbers of one workload: tracing off."""
    timed = spawn(dict(base, mode="timed"))
    setups = [timed["setup_s"]]
    while (
        not base["smoke"]
        and len(setups) < SETUP_SAMPLES
        and sum(setups[1:]) + setups[0] <= SETUP_EXTRA_BUDGET_S
    ):
        setups.append(spawn(dict(base, mode="setup"))["setup_s"])
    good = [r for r in timed["reps"] if "wall_s" in r]
    walls = [r["wall_s"] for r in good]
    cpus = [r["cpu_s"] for r in good]
    end_to_end = {
        "setup_s": _metric(statistics.median(setups), "s", samples=setups),
        "peak_rss_mib": _metric(timed["peak_rss_mib"], "MiB"),
    }
    if walls:
        end_to_end["wall_s"] = _metric(
            statistics.median(walls), "s", samples=walls,
            min=min(walls), max=max(walls),
        )
        end_to_end["cpu_s"] = _metric(statistics.median(cpus), "s", samples=cpus)
    return {"end_to_end": end_to_end, "reps": timed["reps"], "spans": timed["spans"]}


def run_traced(base: dict, drives: Dict[str, float]) -> dict:
    """The per-layer numbers of one workload: a separate traced pass
    plus the layer drives, never mixed into the end-to-end numbers."""
    traced = spawn(dict(base, mode="traced"))
    plain, profiled = traced["reps"][0], traced["reps"][1]
    sequential = next((r for r in traced["reps"] if r.get("sequential")), None)
    values: Dict[str, float] = {}
    ok = "wall_s" in plain and "wall_s" in profiled
    if ok:
        prof = traced["profile"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = prof["self_s"][layer]
            values[f"{layer}.calls"] = prof["calls"][layer]
        values.update(traced["counts"])
        events = traced["counts"]["sim.engine.events"]
        values["trace.overhead_ratio"] = profiled["wall_s"] / plain["wall_s"]
        values["sim.engine.host_ns_per_event"] = plain["wall_s"] / events * 1e9
        values["sim.engine.scale_cost_ratio"] = (
            values["sim.engine.host_ns_per_event"]
            / drives["sim.engine.host_ns_per_event_256"]
        )
        values["sim.shard.worker_cpu_s"] = plain["children_cpu_s"]
        values["sim.shard.coord_wait_s"] = traced["coord_wait_s"]
        values["sim.shard.speedup_vs_seq"] = (
            sequential["wall_s"] / plain["wall_s"]
            if sequential and "wall_s" in sequential else 0.0
        )
        values.update(drives)
    per_layer = {
        name: _metric(values[name], unit)
        for name, unit, _better in metrics.per_layer()
        if name in values
    }
    return {
        "per_layer": per_layer,
        "profile_total_s": traced["profile"]["total_s"] if ok else None,
        "traced_reps": traced["reps"],
        "traced_spans": traced["spans"],
    }


def run_workload(
    name: str, args, reps: Optional[int], drives: Optional[Dict[str, float]]
) -> dict:
    base = dict(
        workload=name, seed=args.seed, smoke=args.smoke,
        reps=reps, seconds=args.seconds,
    )
    load = os.getloadavg()[0]
    record: Dict[str, Any] = {
        "loadavg_before": load,
        "noisy": load > (os.cpu_count() or 1),
    }
    if args.timed:
        record.update(run_timed(base))
    if args.traced:
        record.update(run_traced(base, drives))
    reps = record.get("reps", []) + record.get("traced_reps", [])
    record["attempted"] = len(reps)
    record["failed"] = sum(1 for r in reps if r["problems"])
    record["failed_share"] = record["failed"] / max(1, record["attempted"])
    return record


def print_workload(name: str, record: dict) -> None:
    print(f"== {name} ==" + ("  [noisy host: load > nproc]" if record["noisy"] else ""))
    for metric, m in record.get("end_to_end", {}).items():
        line = f"  {metric:<40} {m['value']:>14.4f} {m['unit']}"
        if metric == "wall_s":
            line += (
                f"   (median of {len(m['samples'])}; min {m['min']:.4f}, "
                f"max {m['max']:.4f}; too few samples for a tail percentile)"
            )
        print(line)
    print(
        f"  {'failed_share':<40} {record['failed_share']:>14.4f} ratio"
        f"   ({record['failed']} failed of {record['attempted']} repetitions)"
    )
    for metric, m in record.get("per_layer", {}).items():
        print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    for rep in record.get("reps", []) + record.get("traced_reps", []):
        for problem in rep["problems"]:
            print(f"  FAILED repetition: {problem}", file=sys.stderr)


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def manifest() -> dict:
    """The content of BENCHMARK.json, rendered from metrics.py."""
    import workloads

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 10,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in metrics.per_layer()
        ],
    }


def pin(args) -> None:
    """Re-pin expected.json from one repetition per workload (the
    sequential twin for the sharded workload)."""
    import workloads

    expected = {}
    for name in workloads.WORKLOADS:
        rep = spawn(dict(
            workload=name, seed=args.seed, smoke=False, mode="pin"
        ))["reps"][0]
        if rep["problems"]:
            raise SystemExit(
                f"{name}: cannot pin a failed repetition: {rep['problems']}"
            )
        expected[name] = {"seed": args.seed, "digest": rep["digest"]}
        print(f"pinned {name}: {rep['digest']}")
    EXPECTED_JSON.write_text(json.dumps(expected, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=None,
                    help="timed repetitions (default: the workload's own count)")
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"repeat for this long instead (at least {MIN_REPS} reps)")
    ap.add_argument("--traced", action="store_true",
                    help="add the traced pass (per-layer metrics) to the timed one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver form: 0 = timed pass only, 1 = traced pass only")
    ap.add_argument("--smoke", action="store_true",
                    help="64-rank versions of every workload (schema checks)")
    ap.add_argument("--out", type=Path, help="directory for result.json and traces")
    ap.add_argument("--record", action="store_true",
                    help="append this run to trajectory.jsonl")
    ap.add_argument("--pin", action="store_true", help="rewrite expected.json")
    ap.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        result = child_main(json.loads(args.child))
        print(RESULT_MARK + json.dumps(result), flush=True)
        return 0
    if args.manifest:
        print(json.dumps(manifest(), indent=1))
        return 0
    if args.pin:
        pin(args)
        return 0

    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(
            f"unknown workload(s) {unknown}; pick from {list(workloads.WORKLOADS)}"
        )
    args.timed = args.trace != 1
    args.traced = args.traced or args.trace == 1

    result = {"provenance": provenance(), "seed": args.seed, "workloads": {}}
    spans: Dict[str, List[List[dict]]] = {}  # per workload, one list per child
    # The layer drives need no workload: one pass serves every traced one.
    drives = (
        spawn(dict(workload=names[0], seed=args.seed, smoke=args.smoke, mode="layers"))
        ["drives"] if args.traced else None
    )
    for name in names:
        reps = args.reps or (1 if args.smoke else None)
        if reps is None and args.seconds is None:
            reps = workloads.WORKLOADS[name].reps
        record = run_workload(name, args, reps, drives)
        spans[name] = [record.pop("spans", []), record.pop("traced_spans", [])]
        result["workloads"][name] = record
        print_workload(name, record)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, per_child in spans.items():
            (args.out / f"trace.{name}.json").write_text(
                json.dumps(chrome_trace(per_child))
            )
        (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.record:
        with TRAJECTORY.open("a") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")

    failed = sum(r["failed"] for r in result["workloads"].values())
    if len(names) == 1:
        record = result["workloads"][names[0]]
        wanted = (
            [n for n, _u, _b in metrics.per_layer()]
            if args.trace == 1
            else [n for n, _u, _b, _bound in metrics.END_TO_END]
        )
        source = record.get("per_layer" if args.trace == 1 else "end_to_end", {})
        print(json.dumps({
            "correct": failed == 0 and all(n in source for n in wanted),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                n: {"value": source[n]["value"], "unit": source[n]["unit"]}
                for n in wanted if n in source
            },
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
