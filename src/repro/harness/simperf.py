"""simperf — wall-clock performance benchmark of the simulator itself.

Every other experiment in this repository measures *simulated* quantities
(log growth, overhead, recovery time).  ``simperf`` measures the
*simulator*: how many engine events per wall-clock second it executes on
a standard scenario matrix, and how long the Tier-1-shaped workloads
take end to end.  Its committed results (``benchmarks/results/
simperf.json``) are the perf baseline the CI perf-smoke job gates
against, and its before/after columns document the hot-path overhaul.

Scenario matrix
---------------
``{16, 128, 512, 1024} ranks × {sync, async, incr}`` on the ring
kernel with paper-like parameters (4 KB messages, 200 µs compute,
8 ranks/node, one cluster per node, 40 iterations with coordinated
checkpoints every 8 — five rounds per run, a cadence in the realistic
Young/Daly range — against a ram+pfs plan):

* ``sync``  — blocking multi-level checkpoints (closed-form PFS burst);
* ``async`` — background PFS flush on the event-driven I/O scheduler;
* ``incr``  — incremental delta-chain payloads with zlib-like
  compression on top of the sync plan.

Plus the warp pair: the failure-free 1024-rank long ring run in exact
mode vs ``--warp`` (steady-state fast-forward, ``repro.sim.warp``).

Plus the shard pairs: the 4096-rank scenario single-process vs
``shards=8`` (conservative PDES across worker processes,
``repro.sim.shard``), in both the sync flush mode and — with the
``shard8-async`` row — the async-flush mode, where every background
PFS flow is mirrored across the shards (the coordination cost of the
mirrored-flow protocol is exactly what that row watches).  The sharded
rows' wall-clock only improves when the host actually has cores to run
the workers on, so each result records ``host_cpus`` and
:func:`check_shard_speedup` gates the speedup only on capable hosts
(single-core containers record the pairs as an overhead reference and
report instead of failing).

``samples=N`` (CLI ``--samples N``) reruns the whole matrix N times
and reports per-scenario medians — the committed-baseline recording
protocol in one invocation (:func:`median_of_samples`).

Plus the event-queue microbenchmark (:func:`queue_microbench`): the
classic hold model run head-to-head on both queue backends
(``repro.sim.eventq``), whose deep-queue wheel-vs-heap events/s ratio
is the crossover evidence for the calendar-queue default and a CI gate
(:func:`check_queue_microbench`).

Hardware normalization
----------------------
Raw wall-clock is machine-dependent, so each run also times a fixed
pure-Python calibration loop (tuple/dict/heap churn — the same kind of
work the simulator does, but *not* the simulator).  The gated metric is
``wall / calibration_wall``: a dimensionless cost that cancels host
speed but still moves when the simulator's per-event cost regresses.
"""

from __future__ import annotations

import gc
import heapq
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps.synthetic import ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_spbc
from repro.util.table import format_table

#: The standard matrix (ISSUE 5): ranks × checkpoint modes.
SIMPERF_RANKS = (16, 128, 512, 1024)
SIMPERF_MODES = ("sync", "async", "incr")

#: Ring-kernel parameters shared by every matrix cell.
MSG_BYTES = 4096
COMPUTE_NS = 200_000
ITERS = 40
CHECKPOINT_EVERY = 8
STATE_NBYTES = 1 << 20

#: The warp pair: failure-free long run at the largest scale.
WARP_RANKS = 1024
WARP_ITERS = 600

#: The shard pair (ISSUE 6): the sync scenario at cluster-machine
#: scale, single-process exact vs conservative PDES shards.
SHARD_RANKS = 4096
SHARD_NSHARDS = 8
#: Required sharded-vs-exact wall-clock speedup when the host has at
#: least SHARD_NSHARDS cores (scaled down to 2x on smaller multi-core
#: hosts, skipped on single-core ones — process parallelism cannot
#: beat one core).
SHARD_SPEEDUP_TARGET = 3.0

#: Quick subset run by the CI perf-smoke job (same scenario ids as the
#: committed full matrix, so normalized costs are directly comparable).
QUICK_SCENARIOS = (
    "16:sync", "128:sync", "128:async", "128:incr",
    f"{WARP_RANKS}:warp",
)

#: Perf-smoke regression threshold on the normalized cost.
REGRESSION_THRESHOLD = 0.30

#: Queue microbenchmark (the event-queue swap's evidence): the classic
#: hold model — steady queue depth, every pop reschedules itself an
#: exponential increment ahead — at these depths.  The smallest depth
#: brackets the Tier-1 workloads (hundreds of pending events), the
#: middle one the 4096-rank shard scenarios (~5k), and the deepest is
#: where the heap's O(log n) sift + cache misses separate decisively
#: from the wheel's O(1) buckets.
QUEUE_BENCH_DEPTHS = (1_000, 16_000, 260_000)
QUEUE_BENCH_OPS = 200_000
QUEUE_BENCH_MEAN_GAP_NS = 1_000
#: The gate: at the deepest configured depth the wheel must beat the
#: heap by this events/s factor (measured ~2.9-3.3x on dev hosts; the
#: two backends run adjacently in one process, so the ratio cancels
#: host speed).  A drop below means the calendar queue's hot path or
#: its calibration triggers regressed.
QUEUE_CROSSOVER_RATIO = 1.5


@dataclass
class SimPerfRow:
    scenario: str  # "<ranks>:<mode>"
    nranks: int
    mode: str
    iters: int
    wall_s: float
    events: int
    events_per_sec: float
    makespan_ns: int
    #: Simulated nanoseconds advanced per wall-clock second.
    sim_ns_per_wall_s: float
    #: wall / calibration-wall: the machine-normalized, gated metric.
    norm_cost: float = 0.0
    warps: int = 0
    warped_iterations: int = 0
    #: Deepest the engine's event heap got (from a metrics-only telemetry
    #: run of the same cell — never from the timed repetitions).  0 for
    #: the warp/shard pairs, which skip the metrics pass.
    peak_queue_depth: int = 0


def calibrate(target_items: int = 200_000) -> float:
    """Fixed pure-Python workload timing the *host*, not the simulator.

    Tuple construction, dict churn, and heap traffic — the same
    primitive mix the engine's hot path uses — so the scenario/calib
    ratio is stable across CPU generations and load levels."""
    gc.collect()
    t0 = time.perf_counter()
    heap: list = []
    d: dict = {}
    push = heapq.heappush
    pop = heapq.heappop
    for i in range(target_items):
        push(heap, (i ^ 0x2A5, i, None, int, ()))
        d[(i & 1023, i & 63)] = i
        if i & 3 == 3:
            pop(heap)
    while heap:
        pop(heap)
    t1 = time.perf_counter()
    return t1 - t0


def _scenario_config(nranks: int, mode: str) -> dict:
    cm = ClusterMap.block(nranks, max(2, nranks // 8))
    cfg = SPBCConfig(
        clusters=cm,
        checkpoint_every=CHECKPOINT_EVERY,
        state_nbytes=STATE_NBYTES,
    )
    kw: dict = {"config": cfg}
    spec = "tiered:ram@1,pfs@4"
    if mode == "async":
        spec += ":async"
    kw["storage"] = spec
    if mode == "incr":
        kw["ckpt_data"] = "incr:4:zlib-like"
        kw["profile"] = TEST_PROFILE
    return {"cm": cm, "kw": kw}


def run_scenario(
    nranks: int, mode: str, iters: int = ITERS, warp: bool = False,
    warp_iters: int = WARP_ITERS,
) -> SimPerfRow:
    """Run one matrix cell and measure it."""
    if mode == "shard-exact" or mode.startswith("shard"):
        # The shard pair: single-process ("shard-exact") or split over
        # N worker shards ("shardN"), on the sync scenario — or with an
        # "-async" suffix ("shard8-async"), the async-flush scenario
        # with its background PFS flows mirrored across the shards.
        base = mode
        flush_mode = "sync"
        if base.endswith("-async"):
            base = base[: -len("-async")]
            flush_mode = "async"
        nshards = None if base == "shard-exact" else int(base[len("shard"):])
        sc = _scenario_config(nranks, flush_mode)
        factory = ring_app(
            iters=iters, msg_bytes=MSG_BYTES, compute_ns=COMPUTE_NS
        )
        gc.collect()
        t0 = time.perf_counter()
        res = run_spbc(
            factory, nranks, sc["cm"], trace=False, shards=nshards,
            **sc["kw"],
        )
        wall = time.perf_counter() - t0
        iters_run = iters
    elif mode == "warp":
        # Failure-free long ring; warp flag decides exact vs fast-forward.
        cm = ClusterMap.block(nranks, max(2, nranks // 8))
        factory = ring_app(
            iters=warp_iters, msg_bytes=MSG_BYTES, compute_ns=COMPUTE_NS
        )
        gc.collect()
        t0 = time.perf_counter()
        res = run_spbc(
            factory, nranks, cm, trace=False,
            warp=warp_iters if warp else None,
        )
        wall = time.perf_counter() - t0
        iters_run = warp_iters
    else:
        sc = _scenario_config(nranks, mode)
        factory = ring_app(
            iters=iters, msg_bytes=MSG_BYTES, compute_ns=COMPUTE_NS
        )
        gc.collect()
        t0 = time.perf_counter()
        res = run_spbc(factory, nranks, sc["cm"], trace=False, **sc["kw"])
        wall = time.perf_counter() - t0
        iters_run = iters
    if hasattr(res, "world"):
        events = res.world.engine.events_executed
        wctl = res.world.warp
    else:
        # ShardedRunResult: events summed over the worker shards.
        events = res.events_executed
        wctl = None
    return SimPerfRow(
        scenario=f"{nranks}:{mode}",
        nranks=nranks,
        mode=mode,
        iters=iters_run,
        wall_s=wall,
        events=events,
        events_per_sec=events / wall if wall > 0 else 0.0,
        makespan_ns=res.makespan_ns,
        sim_ns_per_wall_s=res.makespan_ns / wall if wall > 0 else 0.0,
        warps=wctl.warps if wctl is not None else 0,
        warped_iterations=wctl.warped_iterations if wctl is not None else 0,
    )


def scenario_metrics(nranks: int, mode: str, iters: int = ITERS) -> Dict:
    """One extra, untimed run of a standard matrix cell with metrics-only
    telemetry; returns the metrics overview (``peak_queue_depth``).

    Kept separate from the timed repetitions so the committed wall-clock
    numbers always measure the telemetry-off fast path."""
    from repro.obs import Telemetry, snapshot_overview

    tele = Telemetry(timeline=False)
    sc = _scenario_config(nranks, mode)
    factory = ring_app(
        iters=iters, msg_bytes=MSG_BYTES, compute_ns=COMPUTE_NS
    )
    run_spbc(
        factory, nranks, sc["cm"], trace=False, telemetry=tele, **sc["kw"]
    )
    return snapshot_overview(tele.metrics_snapshot())


#: Interleaved pairs measured by :func:`telemetry_overhead` and the
#: one-sided gate :func:`check_telemetry_overhead` applies (<2%).
TELEMETRY_OVERHEAD_PAIRS = 25
TELEMETRY_OVERHEAD_LIMIT = 0.02


def telemetry_overhead(
    nranks: int = 16,
    mode: str = "sync",
    iters: int = ITERS,
    pairs: int = TELEMETRY_OVERHEAD_PAIRS,
) -> Dict:
    """Measure the telemetry-off fast path against the default path.

    Runs ``pairs`` back-to-back pairs of the scenario: exactly as the
    committed baseline measures it (no ``telemetry`` argument) vs with
    telemetry explicitly wired but disabled (``telemetry=None`` resolved
    to the null object).  Both sides hit the same guarded call sites, so
    the measured ratio is the empirical "wired-but-off costs nothing"
    check that backs the structural zero-invocation guarantee
    (tests/obs/test_telemetry_off.py).

    The estimator is the *median of the per-pair wall-clock ratios*:
    the two runs of a pair are adjacent in time (same instantaneous host
    load, order alternating pair to pair), so bursty load cancels inside
    each ratio and the median rejects the pairs a burst split.  Raw
    minima or calibration-normalized costs of sub-second runs both swing
    far more than the 2% gate on a loaded host; this estimator holds it
    to well under 1% in ~1.5 s of measurement."""
    def once(**extra) -> float:
        # Fresh config per run: storage resolution binds to the config.
        sc = _scenario_config(nranks, mode)
        factory = ring_app(
            iters=iters, msg_bytes=MSG_BYTES, compute_ns=COMPUTE_NS
        )
        gc.collect()
        t0 = time.perf_counter()
        run_spbc(factory, nranks, sc["cm"], trace=False, **sc["kw"], **extra)
        return time.perf_counter() - t0

    once()  # warm-up, discarded: first run pays import/allocator costs
    ratios: List[float] = []
    base: List[float] = []
    wired: List[float] = []
    for i in range(pairs):
        if i % 2 == 0:
            b = once()
            w = once(telemetry=None)
        else:
            w = once(telemetry=None)
            b = once()
        base.append(b)
        wired.append(w)
        ratios.append(w / b)
    ratios.sort()
    median = ratios[len(ratios) // 2]
    return {
        "scenario": f"{nranks}:{mode}",
        "pairs": pairs,
        "baseline_wall_s": sorted(base)[len(base) // 2],
        "wired_off_wall_s": sorted(wired)[len(wired) // 2],
        "overhead": median - 1.0,
    }


def check_telemetry_overhead(
    pair: Dict, limit: float = TELEMETRY_OVERHEAD_LIMIT
) -> List[str]:
    """Gate the telemetry-off overhead pair (<2% by default)."""
    if pair["overhead"] > limit:
        return [
            f"{pair['scenario']}: telemetry-off median wall clock "
            f"{pair['wired_off_wall_s'] * 1e3:.1f} ms is "
            f"{pair['overhead'] * 100:.1f}% over the baseline "
            f"{pair['baseline_wall_s'] * 1e3:.1f} ms "
            f"(limit {limit * 100:.0f}%)"
        ]
    return []


def format_telemetry_overhead(pair: Dict) -> str:
    return (
        f"telemetry-off overhead ({pair['scenario']}, "
        f"{pair['pairs']} interleaved pairs): baseline "
        f"{pair['baseline_wall_s'] * 1e3:.1f} ms, wired-but-off "
        f"{pair['wired_off_wall_s'] * 1e3:.1f} ms, median pair ratio "
        f"{pair['overhead'] * 100:+.1f}%"
    )


def _hold_once(queue, depth: int, nops: int, seed: int) -> float:
    """One hold-model run: fill to ``depth``, then ``nops`` pop+push
    pairs, each pop rescheduling itself ``+Exp(mean gap)`` ahead.  The
    rng is reseeded per run so every backend replays the identical
    event stream.  Returns the wall seconds for the timed pairs."""
    import random

    rng = random.Random(seed)
    expo = rng.expovariate
    rate = 1.0 / QUEUE_BENCH_MEAN_GAP_NS
    push = queue.push
    pop = queue.pop
    seq = 0
    for _ in range(depth):
        seq += 1
        push((int(expo(rate)) + 1, seq, None, None, ()))
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(nops):
        item = pop()
        seq += 1
        push((item[0] + int(expo(rate)) + 1, seq, None, None, ()))
    return time.perf_counter() - t0


def queue_microbench(
    depths: Sequence[int] = QUEUE_BENCH_DEPTHS,
    nops: int = QUEUE_BENCH_OPS,
    rounds: int = 2,
    seed: int = 42,
) -> Dict:
    """Head-to-head event-queue benchmark: the hold model on each
    backend, adjacent in one process so the per-depth events/s ratio
    cancels host speed.  This is the crossover evidence for the
    calendar-queue tentpole: the heap pays O(log n) sifts that grow
    with depth, the wheel's bucket ops stay flat — and
    :func:`check_queue_microbench` gates that the separation at the
    deepest depth stays above :data:`QUEUE_CROSSOVER_RATIO`."""
    from repro.sim.eventq import BACKENDS

    rows: List[Dict] = []
    for depth in depths:
        walls = {name: [] for name in BACKENDS}
        for r in range(rounds):
            # Alternate order round to round so drift favors neither.
            order = list(BACKENDS) if r % 2 == 0 else list(BACKENDS)[::-1]
            for name in order:
                walls[name].append(
                    _hold_once(BACKENDS[name](), depth, nops, seed)
                )
        best = {name: min(w) for name, w in walls.items()}
        row = {"depth": depth, "ops": nops}
        for name, wall in best.items():
            row[name] = {
                "wall_s": wall,
                "ns_per_op": wall / nops * 1e9,
                "events_per_sec": nops / wall if wall > 0 else 0.0,
            }
        row["wheel_speedup"] = (
            best["heap"] / best["wheel"] if best.get("wheel") else 0.0
        )
        rows.append(row)
    return {"mean_gap_ns": QUEUE_BENCH_MEAN_GAP_NS, "rows": rows}


def check_queue_microbench(
    result: Dict, min_ratio: float = QUEUE_CROSSOVER_RATIO
) -> List[str]:
    """Gate the deepest hold-model depth's wheel-vs-heap events/s."""
    deepest = max(result["rows"], key=lambda r: r["depth"])
    if deepest["wheel_speedup"] < min_ratio:
        return [
            f"eventq hold model at depth {deepest['depth']}: wheel "
            f"{deepest['wheel']['events_per_sec'] / 1e3:.0f} kev/s is only "
            f"{deepest['wheel_speedup']:.2f}x the heap's "
            f"{deepest['heap']['events_per_sec'] / 1e3:.0f} kev/s "
            f"(required {min_ratio:.2f}x)"
        ]
    return []


def format_queue_microbench(result: Dict) -> str:
    headers = [
        "depth", "heap ns/op", "wheel ns/op", "heap kev/s", "wheel kev/s",
        "wheel speedup",
    ]
    body = [
        [
            r["depth"],
            r["heap"]["ns_per_op"],
            r["wheel"]["ns_per_op"],
            r["heap"]["events_per_sec"] / 1e3,
            r["wheel"]["events_per_sec"] / 1e3,
            f"{r['wheel_speedup']:.2f}x",
        ]
        for r in result["rows"]
    ]
    return format_table(
        headers,
        body,
        title="eventq microbenchmark: hold model, pop+reschedule "
        f"(+Exp mean {result['mean_gap_ns']} ns)",
        float_fmt="{:.1f}",
    )


def _host_cpus() -> int:
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        import os

        return os.cpu_count() or 1


def median_of_samples(runs: Sequence[Dict]) -> Dict:
    """Merge ``N`` independent :func:`simperf` results into the
    committed-baseline form: per scenario, the median ``norm_cost`` and
    median ``wall_s`` across the runs (rates re-derived from the median
    wall), each row stamped with ``"samples": N``.

    This is the protocol the baseline note used to describe as a manual
    step ("several runs; take medians") — ``--samples N`` automates it.
    Deterministic per-run facts (event counts, makespan, peak queue
    depth) are asserted identical across samples rather than averaged."""
    from statistics import median

    by_scenario: Dict[str, List[Dict]] = {}
    for run in runs:
        for row in run["rows"]:
            by_scenario.setdefault(row["scenario"], []).append(row)
    rows = []
    for sid, samples in by_scenario.items():
        first = samples[0]
        for row in samples[1:]:
            for key in ("events", "makespan_ns", "peak_queue_depth"):
                assert row[key] == first[key], (sid, key)
        wall = median(r["wall_s"] for r in samples)
        merged = dict(first)
        merged.update(
            wall_s=wall,
            events_per_sec=first["events"] / wall if wall > 0 else 0.0,
            sim_ns_per_wall_s=(
                first["makespan_ns"] / wall if wall > 0 else 0.0
            ),
            norm_cost=median(r["norm_cost"] for r in samples),
            samples=len(samples),
        )
        rows.append(merged)
    return {
        "calibration_wall_s": median(
            run["calibration_wall_s"] for run in runs
        ),
        "host_cpus": runs[0]["host_cpus"],
        "rows": rows,
    }


def simperf(
    ranks: Sequence[int] = SIMPERF_RANKS,
    modes: Sequence[str] = SIMPERF_MODES,
    iters: int = ITERS,
    include_warp_pair: bool = True,
    warp_iters: int = WARP_ITERS,
    repeats: int = 3,
    include_shard_pair: bool = True,
    shard_ranks: int = SHARD_RANKS,
    shard_nshards: int = SHARD_NSHARDS,
    samples: int = 1,
) -> Dict:
    """Run the matrix; returns {"calibration_wall_s", "rows": [...]}.

    Each cell is run ``repeats`` times and the fastest wall kept (the
    standard way to suppress scheduler noise in wall-clock benches).
    The calibration loop runs immediately before every repetition and
    the cell's ``norm_cost`` is the *minimum per-repetition ratio* —
    pairing scenario and calibration under the same instantaneous
    machine state makes the gated metric robust to host-speed drift
    within and across runs.

    ``samples > 1`` repeats the whole matrix that many times and merges
    with :func:`median_of_samples` — the baseline-recording protocol as
    one invocation."""
    if samples > 1:
        return median_of_samples([
            simperf(
                ranks=ranks, modes=modes, iters=iters,
                include_warp_pair=include_warp_pair,
                warp_iters=warp_iters, repeats=repeats,
                include_shard_pair=include_shard_pair,
                shard_ranks=shard_ranks, shard_nshards=shard_nshards,
            )
            for _ in range(samples)
        ])
    calib = min(calibrate() for _ in range(3))
    rows: List[SimPerfRow] = []

    def best(fn) -> SimPerfRow:
        out = None
        norm = None
        for _ in range(repeats):
            c = calibrate()
            row = fn()
            r = row.wall_s / c
            if norm is None or r < norm:
                norm = r
            if out is None or row.wall_s < out.wall_s:
                out = row
        out.norm_cost = norm
        return out

    for n in ranks:
        for mode in modes:
            row = best(lambda n=n, m=mode: run_scenario(n, m, iters))
            row.peak_queue_depth = scenario_metrics(
                n, mode, iters
            )["peak_queue_depth"]
            rows.append(row)
    if include_warp_pair:
        rows.append(best(lambda: run_scenario(
            WARP_RANKS, "warp", warp=False, warp_iters=warp_iters)))
        rows[-1] = SimPerfRow(**{**asdict(rows[-1]), "scenario":
                                 f"{WARP_RANKS}:warp-exact",
                                 "mode": "warp-exact"})
        rows.append(best(lambda: run_scenario(
            WARP_RANKS, "warp", warp=True, warp_iters=warp_iters)))
    if include_shard_pair:
        for mode in (
            "shard-exact",
            f"shard{shard_nshards}",
            f"shard{shard_nshards}-async",
        ):
            rows.append(best(
                lambda m=mode: run_scenario(shard_ranks, m, iters)
            ))
    return {
        "calibration_wall_s": calib,
        "host_cpus": _host_cpus(),
        "rows": [asdict(r) for r in rows],
    }


def simperf_quick(scenarios: Sequence[str] = QUICK_SCENARIOS) -> Dict:
    """The CI perf-smoke subset (same scenario ids as the full matrix,
    same per-repetition calibration pairing as the full run)."""
    calib = min(calibrate() for _ in range(3))
    rows: List[SimPerfRow] = []
    for sid in scenarios:
        n_s, mode = sid.split(":")
        n = int(n_s)
        out = None
        norm = None
        for _ in range(3):
            c = calibrate()
            if mode == "warp":
                row = run_scenario(n, "warp", warp=True)
            else:
                row = run_scenario(n, mode)
            r = row.wall_s / c
            if norm is None or r < norm:
                norm = r
            if out is None or row.wall_s < out.wall_s:
                out = row
        out.norm_cost = norm
        if mode in SIMPERF_MODES:
            out.peak_queue_depth = scenario_metrics(
                n, mode
            )["peak_queue_depth"]
        rows.append(out)
    return {
        "calibration_wall_s": calib,
        "host_cpus": _host_cpus(),
        "rows": [asdict(r) for r in rows],
    }


def shard_pair(
    nranks: int = SHARD_RANKS,
    nshards: int = SHARD_NSHARDS,
    iters: int = ITERS,
    repeats: int = 1,
    flush_mode: str = "sync",
) -> Dict:
    """Run the sharded speedup pair: the ``nranks`` scenario
    single-process vs ``shards=nshards``, one calibration-paired
    measurement each (the pair is the CI shard smoke — it must fit the
    perf-smoke budget, so no triple repetition at this scale).

    ``flush_mode="async"`` runs the async-flush variant of both sides:
    the sharded run then exercises the mirrored-flow protocol (every
    background PFS flush visible to all shards), so its speedup gates
    that the coordination cost does not eat the parallelism."""
    suffix = "-async" if flush_mode == "async" else ""
    calib = min(calibrate() for _ in range(2))
    rows: List[SimPerfRow] = []
    for mode in (f"shard-exact{suffix}", f"shard{nshards}{suffix}"):
        out = None
        norm = None
        for _ in range(repeats):
            c = calibrate()
            row = run_scenario(nranks, mode, iters)
            r = row.wall_s / c
            if norm is None or r < norm:
                norm = r
            if out is None or row.wall_s < out.wall_s:
                out = row
        out.norm_cost = norm
        rows.append(out)
    exact, sharded = rows
    return {
        "calibration_wall_s": calib,
        "host_cpus": _host_cpus(),
        "nshards": nshards,
        "speedup": (
            exact.norm_cost / sharded.norm_cost
            if sharded.norm_cost > 0 else 0.0
        ),
        "rows": [asdict(r) for r in rows],
    }


def check_shard_speedup(
    pair: Dict, target: float = SHARD_SPEEDUP_TARGET
) -> List[str]:
    """Gate the shard pair's wall-clock speedup, scaled to the host.

    ``target`` (3x) applies when the host has at least as many cores as
    shards; smaller multi-core hosts are held to 2x; a single-core host
    cannot run worker processes in parallel at all, so the pair is
    informational there (empty problem list — the exactness tests, not
    wall-clock, carry the correctness guarantee)."""
    cpus = pair["host_cpus"]
    nshards = pair["nshards"]
    if cpus < 2:
        return []
    required = target if cpus >= nshards else min(target, 2.0)
    if pair["speedup"] < required:
        return [
            f"{pair['rows'][1]['scenario']}: sharded speedup "
            f"{pair['speedup']:.2f}x < required {required:.2f}x "
            f"(host has {cpus} cpus for {nshards} shards)"
        ]
    return []


def format_shard_pair(pair: Dict) -> str:
    body = format_simperf(pair)
    return (
        body
        + f"\nsharded speedup: {pair['speedup']:.2f}x "
        f"({pair['nshards']} shards on {pair['host_cpus']} cpus)"
    )


def check_regression(
    current: Dict, baseline: Dict, threshold: float = REGRESSION_THRESHOLD
) -> List[str]:
    """Compare normalized costs against the committed baseline.

    Returns a list of human-readable violations (empty = pass).  A
    scenario regresses when its machine-normalized cost exceeds the
    baseline's by more than ``threshold``."""
    base_by = {r["scenario"]: r for r in baseline["rows"]}
    problems: List[str] = []
    for row in current["rows"]:
        base = base_by.get(row["scenario"])
        if base is None or base.get("norm_cost", 0) <= 0:
            continue
        ratio = row["norm_cost"] / base["norm_cost"]
        if ratio > 1.0 + threshold:
            problems.append(
                f"{row['scenario']}: normalized cost {row['norm_cost']:.2f} "
                f"is {ratio:.2f}x the committed baseline "
                f"{base['norm_cost']:.2f} (threshold {1 + threshold:.2f}x)"
            )
    return problems


def format_simperf(result: Dict, baseline: Optional[Dict] = None) -> str:
    base_by = (
        {r["scenario"]: r for r in baseline["rows"]} if baseline else {}
    )
    headers = [
        "scenario", "iters", "wall (s)", "events", "kev/s",
        "sim s/wall s", "norm cost", "peak q", "warped",
    ]
    if base_by:
        headers.append("vs baseline")
    out = []
    for r in result["rows"]:
        line = [
            r["scenario"], r["iters"], r["wall_s"], r["events"],
            r["events_per_sec"] / 1e3, r["sim_ns_per_wall_s"] / 1e9,
            r["norm_cost"],
            r.get("peak_queue_depth", 0) or "-",
            r["warped_iterations"] or "-",
        ]
        if base_by:
            b = base_by.get(r["scenario"])
            line.append(
                f"{r['norm_cost'] / b['norm_cost']:.2f}x" if b else "-"
            )
        out.append(line)
    return format_table(
        headers,
        out,
        title="simperf: simulator wall-clock performance "
        f"(calibration {result['calibration_wall_s'] * 1e3:.1f} ms)",
        float_fmt="{:.3f}",
    )


def load_baseline(path: str) -> Optional[Dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
