#!/usr/bin/env python
"""Profile the simulator's hot path on the Tier-1-shaped workloads.

The profiling run behind the PR-5 hot-path overhaul, committed so the
measurement is reproducible::

    PYTHONPATH=src python tools/profile_hotpath.py                 # all
    PYTHONPATH=src python tools/profile_hotpath.py logging --ranks 128
    PYTHONPATH=src python tools/profile_hotpath.py sync --sort cumulative
    PYTHONPATH=src python tools/profile_hotpath.py logging --ranks 4096 --gc
    PYTHONPATH=src python tools/profile_hotpath.py storm --ranks 2048
    PYTHONPATH=src python tools/profile_hotpath.py paper --trace --gc
    PYTHONPATH=src python tools/profile_hotpath.py paper --no-trace --gc
    PYTHONPATH=src python tools/profile_hotpath.py sync --ranks 1024 --mem

Workloads (the shapes docs/performance.md talks about):

* ``logging`` — the Table 1 shape: ring under SPBC with singleton
  clusters (every message logged), no checkpointing;
* ``sync``    — coordinated checkpoints every 4 iterations against a
  ram+pfs plan (collective-heavy);
* ``halo``    — the 2-D halo exchange (waitall-heavy);
* ``storm``   — the ``ckpt_storm_512`` shape of ``benchmarks/e2e``: a
  checkpoint every iteration against ``partner:ram@1,partner@1,
  pfs@2:async`` with ``incr:4:zlib-like`` payloads, so thousands of
  PFS flushes are in flight at once (the measurement behind "Why
  checkpoint cost grew with in-flight flows" in docs/performance.md);
* ``paper``   — the ``make_logging_run("amg")`` shape, 57 % of a
  ``paper_tables_128`` repetition of ``benchmarks/e2e``: the AMG
  skeleton (``ANY_SOURCE`` + pattern identifiers) under SPBC with
  singleton clusters on ``PAPER_NET``.  The paper pipeline runs it
  untraced (Table 1's matrix comes from the sender logs); only Figure
  6 records the trace, for HydEE's causal levels.  ``--trace``/
  ``--no-trace`` toggles it on any workload (the measurement behind
  "Why tracing cost a third of a paper run" in docs/performance.md);
* ``eventq``  — not a simulation: the hold-model event-queue
  microbenchmark head-to-head on both queue backends
  (``repro.harness.simperf.hold_pair``), then a cProfile of the
  calendar queue at the deepest depth — where the bucket hot path's
  time actually goes.

Output: a header line with the process's peak RSS so far; raw
wall-clock (profiler off) and events/sec; when the workload
moved bytes as flows, what the bandwidth lanes did (flows admitted, the
most in flight on one lane, how often a lane walked its whole pool and
over how many flows); then the cProfile top-N by the requested sort
key.  With ``--gc`` the cProfile table is
replaced by what the cyclic collector did during one more unprofiled
run: collections per generation and the total pause, timed through
``gc.callbacks``, plus the process's peak RSS after that run (the
measurement behind "Why per-event cost grew with rank count" in
docs/performance.md).  With ``--mem`` nothing runs: the workload's
world is built and launched under ``tracemalloc``, and the report is
its traced bytes per rank plus the top-10 allocation sites by size
(the measurement behind "The residual gap: bytes per rank" in
docs/performance.md; ``sync`` at 1024 ranks is, to within a few bytes
per rank, the block-clusters-of-8 ring world
``tests/sim/test_footprint.py`` bounds).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import resource
import time
import tracemalloc

from repro.apps.synthetic import halo2d_app, ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.experiments import PAPER_NET, app_factory
from repro.harness.runner import RunSpec, _resolve_specs, build_world, execute
from repro.sim.resources import BandwidthResource

WORKLOADS = ("logging", "sync", "halo", "storm", "paper", "eventq")


def spec_maker(workload: str, nranks: int, trace: bool = False):
    """A function returning a fresh :class:`RunSpec` of ``workload``
    (fresh, because a storage backend binds to the config it resolves
    into)."""
    if workload == "logging":
        factory = ring_app(iters=20, msg_bytes=4096, compute_ns=200_000)
        cm = ClusterMap.singletons(nranks)
        return lambda: RunSpec(factory, nranks, cm, trace=trace)
    if workload == "paper":
        factory = app_factory("amg")
        cm = ClusterMap.singletons(nranks)
        return lambda: RunSpec(
            factory, nranks, cm, net_params=PAPER_NET, trace=trace
        )
    if workload in ("sync", "storm"):
        factory = ring_app(iters=20, msg_bytes=4096, compute_ns=200_000)
        cm = ClusterMap.block(nranks, max(2, nranks // 8))
        every, storage, data_plane = (
            (4, "tiered:ram@1,pfs@4", {})
            if workload == "sync"
            else (
                1,
                "partner:ram@1,partner@1,pfs@2:async",
                {"ckpt_data": "incr:4:zlib-like", "profile": TEST_PROFILE},
            )
        )
        cfg = lambda: SPBCConfig(  # noqa: E731 - fresh config per run
            clusters=cm, checkpoint_every=every, state_nbytes=1 << 20
        )
        return lambda: RunSpec(
            factory, nranks, cm, config=cfg(), storage=storage, trace=trace,
            **data_plane,
        )
    if workload == "halo":
        factory = halo2d_app(iters=10, msg_bytes=8192, compute_ns=400_000)
        cm = ClusterMap.block(nranks, max(2, nranks // 8))
        return lambda: RunSpec(factory, nranks, cm, trace=trace)
    raise SystemExit(f"unknown workload {workload!r} (pick from {WORKLOADS})")


def build(workload: str, nranks: int, trace: bool = False):
    make_spec = spec_maker(workload, nranks, trace)
    return lambda: execute(make_spec())


def profile_mem(workload: str, nranks: int, trace: bool, top: int = 10) -> None:
    """Traced bytes per rank of the built (launched, not run) world and
    its ``top`` allocation sites by size."""
    if workload == "eventq":
        print("== eventq builds no world: nothing to measure ==")
        return
    spec = spec_maker(workload, nranks, trace)()
    _resolve_specs(spec)
    gc.collect()
    tracemalloc.start()
    try:
        world, _manager = build_world(spec, None, None)
        traced, _peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    print(
        f"== {workload} @ {nranks} ranks, built not run, trace "
        f"{'on' if trace else 'off'}: {traced / 2**20:.2f} MiB traced, "
        f"{traced / nranks:.0f} B per rank =="
    )
    print(f"{'MiB':>7} {'B/rank':>7} {'blocks':>8}  site")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        where = frame.filename.rsplit("/src/", 1)[-1]
        print(
            f"{stat.size / 2**20:>7.2f} {stat.size / nranks:>7.0f} "
            f"{stat.count:>8}  {where}:{frame.lineno}"
        )


def profile_eventq(sort: str, top: int) -> None:
    from repro.harness.simperf import hold_once, hold_pair
    from repro.sim.eventq import CalendarEventQueue

    # Brackets the Tier-1 workloads (hundreds of pending events), the
    # 4096-rank scenarios (~5k), and the depth simperf gates, where the
    # heap's O(log n) sift separates from the wheel's O(1) buckets.
    depths = (1_000, 16_000, 260_000)
    pairs = [hold_pair(depth) for depth in depths]  # wheel over heap
    print(
        "== eventq: hold model, pop+reschedule (+Exp mean 1000 ns), "
        f"peak rss {_peak_rss_mib():.0f} MiB =="
    )
    print(f"{'depth':>8} {'heap kev/s':>11} {'wheel kev/s':>12} {'wheel/heap':>11}")
    for depth, pair in zip(depths, pairs):
        print(f"{depth:>8} {pair.b / 1e3:>11.0f} {pair.a / 1e3:>12.0f} "
              f"{pair.ratio:>10.2f}x")
    pr = cProfile.Profile()
    pr.enable()
    hold_once(CalendarEventQueue(), depths[-1])
    pr.disable()
    print(f"-- cProfile of the calendar queue at depth {depths[-1]} --")
    buf = io.StringIO()
    pstats.Stats(pr, stream=buf).sort_stats(sort).print_stats(top)
    print(buf.getvalue())


class GcWatch:
    """Collections per generation and summed collector pause, observed
    through ``gc.callbacks`` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class LaneWatch:
    """What the bandwidth lanes did while the ``with`` block ran: flows
    admitted, the most flows in flight on one lane, and the whole-pool
    passes (the per-instant drain — the only walk over every live flow
    a lane makes) with the flows they visited."""

    def __init__(self) -> None:
        self.admitted = 0
        self.high_water = 0
        self.passes = 0
        self.visited = 0

    def __enter__(self) -> "LaneWatch":
        self._admit = admit = BandwidthResource._admit
        self._advance = advance = BandwidthResource._advance

        def watched_admit(lane, flow):
            admit(lane, flow)
            self.admitted += 1
            self.high_water = max(self.high_water, lane.active_flows)

        def watched_advance(lane):
            if lane.active_flows and lane.engine.now > lane._last_ns:
                self.passes += 1
                self.visited += lane.active_flows
            advance(lane)

        BandwidthResource._admit = watched_admit
        BandwidthResource._advance = watched_advance
        return self

    def __exit__(self, *exc) -> None:
        BandwidthResource._admit = self._admit
        BandwidthResource._advance = self._advance


def profile_one(
    workload: str, nranks: int, sort: str, top: int, gc_report: bool = False,
    trace: bool = False,
) -> None:
    if workload == "eventq":
        profile_eventq(sort, top)
        return
    run = build(workload, nranks, trace)
    # Raw wall first (profiler overhead excluded), best of 3.
    wall = min(_timed(run) for _ in range(3))
    with LaneWatch() as lanes:
        res = run()
    events = res.world.engine.events_executed
    print(
        f"== {workload} @ {nranks} ranks, trace {'on' if trace else 'off'}, "
        f"peak rss {_peak_rss_mib():.0f} MiB =="
    )
    print(
        f"wall {wall:.3f}s   events {events}   "
        f"{events / wall / 1e3:.0f} kev/s   {wall / events * 1e6:.2f} us/event"
    )
    if lanes.admitted:
        print(
            f"lanes  flows {lanes.admitted}   live high-water "
            f"{lanes.high_water}   whole-pool passes {lanes.passes} "
            f"({lanes.visited} flow visits)"
        )
    if gc_report:
        # Free the earlier runs' worlds now, so the watched run's pause
        # is its own collector work and not their deallocation.
        del res
        gc.collect()
        with GcWatch() as watch:
            gc_wall = _timed(run)
        g0, g1, g2 = watch.collections
        print(
            f"gc   wall {gc_wall:.3f}s   collections gen0/gen1/gen2 "
            f"{g0}/{g1}/{g2}   pause {watch.pause_s:.3f}s "
            f"({100 * watch.pause_s / gc_wall:.1f}% of wall)   "
            f"{gc_wall / events * 1e6:.2f} us/event   peak rss "
            f"{_peak_rss_mib():.0f} MiB"
        )
        return
    pr = cProfile.Profile()
    pr.enable()
    run()
    pr.disable()
    buf = io.StringIO()
    pstats.Stats(pr, stream=buf).sort_stats(sort).print_stats(top)
    print(buf.getvalue())


def _peak_rss_mib() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(run) -> float:
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "workload", nargs="?", default=None,
        help=f"one of {WORKLOADS} (default: all)",
    )
    ap.add_argument("--ranks", type=int, default=128)
    ap.add_argument(
        "--sort", default="tottime",
        help="pstats sort key (tottime, cumulative, ncalls, ...)",
    )
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument(
        "--gc", action="store_true",
        help="report collections per generation and total collector pause "
        "(gc.callbacks) instead of the cProfile table",
    )
    ap.add_argument(
        "--mem", action="store_true",
        help="build the world without running it and report its traced "
        "bytes per rank and top-10 allocation sites (tracemalloc)",
    )
    ap.add_argument(
        "--trace", action=argparse.BooleanOptionalAction, default=False,
        help="record the communication trace during the run (Figure 6's "
        "logging runs record it; every other experiment runs with it off)",
    )
    args = ap.parse_args()
    for w in [args.workload] if args.workload else WORKLOADS:
        if args.mem:
            profile_mem(w, args.ranks, args.trace)
            continue
        profile_one(
            w, args.ranks, args.sort, args.top, gc_report=args.gc,
            trace=args.trace,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
