"""simperf — the gates on the simulator's own speed.

Every other experiment in this repository measures *simulated*
quantities; ``simperf`` measures the *simulator*.  It holds one kind of
gate, the only kind that has stayed green on an untouched tree across
hosts: a **paired in-process ratio**.  Two sides are measured adjacent
in one process, which side runs first alternating from pair to pair, so
host speed and load cancel inside the ratio; the ratio is held against a
fixed limit.  :data:`GATES` (and :func:`shard_gates` under ``--shards
N``) is the whole table, :func:`run_gates` the one loop over it::

    PYTHONPATH=src python -m repro simperf [--shards N]

Wall-clock *tracking* — how long a workload takes, PR over PR — is not a
gate and does not live here: that is ``BENCHMARK.json`` +
``benchmarks/e2e/`` (``benchmarks/trajectory.jsonl`` keeps the record);
``tools/profile_hotpath.py`` is the per-workload microscope.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.apps.synthetic import ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.experiments import PAPER_NET, app_factory
from repro.harness.runner import run_spbc
from repro.sim.eventq import CalendarEventQueue, HeapEventQueue


class Pair(NamedTuple):
    """One gate measurement: the two sides in the gate's unit and their
    ratio ``a / b`` (the median per-pair ratio when several pairs were
    taken).  ``invalid`` says why the sides are not comparable."""

    a: float
    b: float
    ratio: float
    invalid: str = ""


def alternating(pairs: int, side_a: Callable, side_b: Callable) -> List[Tuple]:
    """``pairs`` adjacent ``(side_a(), side_b())`` measurements, the side
    that runs first alternating so drift favours neither."""
    out = []
    for i in range(pairs):
        if i % 2 == 0:
            a = side_a()
            b = side_b()
        else:
            b = side_b()
            a = side_a()
        out.append((a, b))
    return out


def _median_pair(samples: List[Tuple[float, float]]) -> Pair:
    """Median of the per-pair ratios: load cancels inside each adjacent
    pair and the median rejects the pairs a burst split."""
    return Pair(
        median(a for a, _ in samples),
        median(b for _, b in samples),
        median(a / b for a, b in samples),
    )


def _best_pair(samples: List[Tuple[float, float]], best=min) -> Pair:
    a = best(a for a, _ in samples)
    b = best(b for _, b in samples)
    return Pair(a, b, a / b)


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------

def timed_ring(nranks: int, iters: int = 40, checkpoint_every: Optional[int] = None,
               **run_kw):
    """``(wall seconds, result)`` of one untraced ring-kernel run under
    SPBC with paper-like parameters (4 KB messages, 200 µs compute,
    8 ranks per cluster); ``checkpoint_every`` turns on coordinated
    checkpoints of 1 MiB of state, ``run_kw`` goes to ``run_spbc``."""
    cm = ClusterMap.block(nranks, max(2, nranks // 8))
    if checkpoint_every is not None:
        # Fresh config per run: storage resolution binds to the config.
        run_kw["config"] = SPBCConfig(
            clusters=cm, checkpoint_every=checkpoint_every, state_nbytes=1 << 20
        )
    app = ring_app(iters=iters, msg_bytes=4096, compute_ns=200_000)
    gc.collect()  # the previous run's world is not this run's work
    t0 = time.perf_counter()
    res = run_spbc(app, nranks, cm, trace=False, **run_kw)
    return time.perf_counter() - t0, res


#: The checkpointing ring the telemetry and shard gates time: five
#: coordinated rounds in 40 iterations against a ram+pfs plan.
SYNC_RING = dict(checkpoint_every=8, storage="tiered:ram@1,pfs@4")


def telemetry_pair(pairs: int) -> Pair:
    """Wall seconds of the 16-rank checkpointing ring with telemetry
    wired but disabled (``telemetry=None`` resolved to the null object)
    over the same run entered without the argument.  Both sides hit the
    same guarded call sites, so the ratio is the empirical "wired-but-off
    costs nothing" check behind the structural zero-invocation guarantee
    (tests/obs/test_telemetry_off.py)."""
    timed_ring(16, **SYNC_RING)  # warm-up: the first run pays imports
    return _median_pair(alternating(
        pairs,
        lambda: timed_ring(16, telemetry=None, **SYNC_RING)[0],
        lambda: timed_ring(16, **SYNC_RING)[0],
    ))


def hold_once(queue, depth: int, nops: int = 200_000, seed: int = 42) -> float:
    """One hold-model run — the classic calendar-queue benchmark: fill
    ``queue`` to ``depth``, then ``nops`` pops, each rescheduling itself
    ``+Exp(1 µs)`` ahead.  The rng is reseeded per run so both queues
    replay the identical event stream.  Returns events per second over
    the timed pops."""
    expo = random.Random(seed).expovariate
    rate = 1.0 / 1_000
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
    return nops / (time.perf_counter() - t0)


def hold_pair(depth: int) -> Pair:
    """Hold-model events/s of the calendar queue over the binary heap at
    ``depth`` pending events, best of two rounds each: the heap pays
    O(log n) sifts that grow with depth, the wheel's buckets stay flat."""
    return _best_pair(alternating(
        2,
        lambda: hold_once(CalendarEventQueue(), depth),
        lambda: hold_once(HeapEventQueue(), depth),
    ), best=max)


def warp_pair() -> Pair:
    """Wall seconds of the failure-free 1024-rank x 600-iteration ring in
    exact mode over the same run under ``warp`` (steady-state
    fast-forward, :mod:`repro.sim.warp`) — which must reach the same
    simulated end time and must actually have jumped."""
    exact_s, res = timed_ring(1024, 600)
    exact_ns = res.makespan_ns
    del res  # a live 1024-rank world would tax the next run's collector
    warp_s, res = timed_ring(1024, 600, warp=600)
    invalid = ""
    if res.makespan_ns != exact_ns:
        invalid = f"makespans differ: exact {exact_ns} ns, warp {res.makespan_ns} ns"
    elif not res.world.warp.warped_iterations:
        invalid = "no iteration was warped"
    return Pair(exact_s, warp_s, exact_s / warp_s, invalid)


def storm_pair() -> Pair:
    """Host microseconds per engine event of the ``ckpt_storm_512`` shape
    of ``benchmarks/e2e`` — a checkpoint every iteration, the PFS copy of
    every other round drained as a background flow, thousands of flushes
    in flight — at 2048 ranks over the same at 512, best of two each.
    Four times the ranks is four times the live flows on the PFS lane: a
    lane or a durable-round query that rescans them per mutation doubles
    the cost per event (docs/performance.md, "Why checkpoint cost grew
    with in-flight flows")."""
    def us_per_event(nranks: int) -> float:
        wall, res = timed_ring(
            nranks, 20, checkpoint_every=1,
            storage="partner:ram@1,partner@1,pfs@2:async",
            ckpt_data="incr:4:zlib-like", profile=TEST_PROFILE,
        )
        return wall / res.events_executed * 1e6

    return _best_pair(alternating(
        2, partial(us_per_event, 2048), partial(us_per_event, 512)
    ))


def trace_pair() -> Pair:
    """Host CPU seconds of the paper pipeline's 128-rank AMG logging run
    (singleton clusters on ``PAPER_NET``) traced over the same untraced,
    three pairs.  Tracing observes a run, it does not re-shape it
    (docs/performance.md, "Why tracing cost a third of a paper run")."""
    def cpu_s(trace: bool) -> float:
        gc.collect()
        t0 = time.process_time()
        run_spbc(
            app_factory("amg"), 128, ClusterMap.singletons(128),
            net_params=PAPER_NET, trace=trace,
        )
        return time.process_time() - t0

    return _median_pair(alternating(3, partial(cpu_s, True), partial(cpu_s, False)))


def shard_pair(nshards: int, flush: str) -> Pair:
    """Wall seconds of the 4096-rank checkpointing ring in one process
    over the same run split across ``nshards`` conservative PDES worker
    processes (:mod:`repro.sim.shard`), one pair — it has to fit the CI
    budget.  ``flush="async"`` drains the PFS copies in the background,
    so the sharded side mirrors every such flow across the shards.  The
    ratio of the two raw walls already cancels the host."""
    kw = dict(SYNC_RING)
    if flush == "async":
        kw["storage"] += ":async"
    seq_s, _ = timed_ring(4096, **kw)
    sharded_s, _ = timed_ring(4096, shards=nshards, **kw)
    return Pair(seq_s, sharded_s, seq_s / sharded_s)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """``a / b`` held ``op`` ``limit``.  ``attempts`` are measured in
    order until one passes; ``limit=None`` reports without gating."""

    name: str
    a: str  # what the numerator side is, with its unit
    b: str
    op: str  # "<=" or ">="
    limit: Optional[float]
    attempts: Tuple[Callable[[], Pair], ...]
    trip: str  # what a trip means


GATES: Tuple[Gate, ...] = (
    Gate(
        "telemetry-off", "wired-but-off wall s", "default wall s", "<=", 1.02,
        # One wider retry absorbs a noisy first batch: the sides run
        # identical code, so a persistent gap is a real regression.
        (partial(telemetry_pair, 25), partial(telemetry_pair, 75)),
        "the disabled-telemetry fast path costs wall clock",
    ),
    Gate(
        "eventq-hold", "deep-queue wheel ev/s", "heap ev/s", ">=", 1.5,
        (partial(hold_pair, 260_000),),
        "the calendar queue's bucket hot path or its calibration triggers "
        "regressed",
    ),
    Gate(
        "warp", "exact wall s", "warp wall s", ">=", 10,
        (warp_pair,),
        "the steady-state detector stopped engaging, or a jump costs what "
        "it skips",
    ),
    Gate(
        "storm-scaling", "2048-rank us/event", "512-rank us/event", "<=", 1.6,
        (storm_pair,),
        "checkpoint-path host cost grows with the flushes in flight",
    ),
    Gate(
        "trace-cost", "traced cpu s", "untraced cpu s", "<=", 1.35,
        (trace_pair,),
        "tracing re-shapes the run instead of observing it",
    ),
)


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def shard_limit(cpus: int, nshards: int) -> Optional[float]:
    """Required sequential ÷ sharded wall: 3x with a core per shard, 2x
    on a smaller multi-core host, nothing on one core — process
    parallelism cannot beat a single core, and the exactness tests, not
    wall clock, carry the correctness guarantee."""
    if cpus < 2:
        return None
    return 3.0 if cpus >= nshards else 2.0


def shard_gates(nshards: int) -> Tuple[Gate, ...]:
    """The table's ``--shards N`` rows: the sync-flush and the
    async-flush pair."""
    limit = shard_limit(host_cpus(), nshards)
    return tuple(
        Gate(
            f"shard{nshards}-{flush}", "sequential wall s",
            f"{nshards}-shard wall s", ">=", limit,
            (partial(shard_pair, nshards, flush),),
            "window coordination or IPC eats the parallelism",
        )
        for flush in ("sync", "async")
    )


def verdict(gate: Gate, pair: Pair) -> Tuple[bool, str]:
    """Whether ``pair`` passes ``gate``, and the line that says so:
    gate, both sides, ratio, limit."""
    line = (f"{gate.name}: {gate.a} {pair.a:.4g} / {gate.b} {pair.b:.4g} "
            f"= {pair.ratio:.3f}")
    if pair.invalid:
        return False, f"{line} — {pair.invalid}"
    if gate.limit is None:
        return True, f"{line} (not gated: one core)"
    ok = pair.ratio <= gate.limit if gate.op == "<=" else pair.ratio >= gate.limit
    line += f" (limit {gate.op} {gate.limit:g})"
    return ok, f"{line} ok" if ok else f"{line} — {gate.trip}"


def run_gates(gates: Iterable[Gate]) -> int:
    """Measure each gate and print its verdict; 1 if any tripped."""
    rc = 0
    for gate in gates:
        for n, measure in enumerate(gate.attempts, 1):
            ok, line = verdict(gate, measure())
            if ok or n == len(gate.attempts):
                break
            print(f"{line}; measuring again", flush=True)
        if ok:
            print(line, flush=True)
        else:
            print(f"PERF REGRESSION: {line}", file=sys.stderr, flush=True)
            rc = 1
    return rc


def main(shards: Optional[int] = None) -> int:
    return run_gates(GATES + (shard_gates(shards) if shards else ()))
