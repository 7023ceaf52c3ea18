"""simperf: wall-clock performance of the simulator itself.

Tier-1 holds no wall-clock assertion against a committed number or a
core count: the normalised-cost regression gate over the quick scenario
subset and the shard-pair speed-up gate (``check_shard_speedup``) run in
the CI ``perf-smoke`` job only (``python -m repro simperf --quick
--shards 4``, 4-vcpu runners) — the first because its calibration loop
does not co-vary with the simulator across hosts, the second because it
asks a 2-core host for the 2-core ceiling.  What stays here:

* the **telemetry-off guard** — a paired in-process ratio, stable on
  any host;
* the **checkpoint-storm scaling guard** (slow-marked; also a CI
  ``perf-smoke`` step) — host cost per engine event of the
  ``ckpt_storm`` shape at 2048 ranks over the same at 512 ranks, again
  a paired in-process ratio;
* the **tracing-cost guard** (slow-marked; also a CI ``perf-smoke``
  step) — host time of the paper pipeline's AMG logging run traced over
  the same untraced, the median of alternating in-process pairs;
* the **committed-baseline shape** — ``benchmarks/results/simperf.json``
  (written once by ``python -m repro simperf --json ...`` and updated
  deliberately) must document the PR-5 speedups (>=3x on the 128-rank
  sync scenario in exact mode against the seed reference, >=10x from
  ``--warp`` on the failure-free 1024-rank scenario), the shard pair
  and the event-queue swap.
"""

import gc
import json
import pathlib
import statistics
import time

import pytest

from repro.apps.synthetic import ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.experiments import PAPER_NET, app_factory
from repro.harness.runner import run_spbc
from repro.harness.simperf import (
    SHARD_NSHARDS,
    SHARD_RANKS,
    check_telemetry_overhead,
    format_telemetry_overhead,
    telemetry_overhead,
)

BASELINE = pathlib.Path(__file__).resolve().parent / "results" / "simperf.json"


def _baseline():
    if not BASELINE.exists():
        pytest.skip("no committed simperf baseline yet")
    return json.loads(BASELINE.read_text())


@pytest.mark.benchmark(group="simperf")
def test_telemetry_off_overhead(benchmark):
    """Telemetry-off fast path guard (docs/observability.md): a run with
    telemetry wired but disabled must cost the same wall-clock as the
    default entry path, within 2%.  One wider retry absorbs a noisy
    first pair — the pair runs identical code, so a persistent gap is a
    real fast-path regression, not noise."""
    pair = benchmark.pedantic(telemetry_overhead, rounds=1, iterations=1)
    problems = check_telemetry_overhead(pair)
    if problems:
        pair = telemetry_overhead(pairs=75)
        problems = check_telemetry_overhead(pair)
    print()
    print(format_telemetry_overhead(pair))
    assert not problems, "\n".join(problems)


def test_committed_baseline_documents_the_overhaul():
    """The committed JSON is the PR's before/after evidence: the seed
    reference rows (measured on the pre-overhaul tree with the same
    harness and calibration) must show the required speedups."""
    baseline = _baseline()
    seed = baseline.get("seed_reference")
    assert seed, "baseline must carry seed_reference rows (before numbers)"
    cur = {r["scenario"]: r for r in baseline["rows"]}
    old = {r["scenario"]: r for r in seed["rows"]}

    # >=3x on the 128-rank sync scenario, exact mode (normalized costs
    # cancel the host, so the ratio is the genuine speedup).
    s_new, s_old = cur["128:sync"], old["128:sync"]
    speedup = s_old["norm_cost"] / s_new["norm_cost"]
    assert speedup >= 3.0, f"128:sync exact-mode speedup {speedup:.2f}x < 3x"

    # >=10x from --warp on the failure-free 1024-rank scenario (vs the
    # same tree's exact mode, same scenario length).
    w, e = cur["1024:warp"], cur["1024:warp-exact"]
    warp_speedup = e["norm_cost"] / w["norm_cost"]
    assert warp_speedup >= 10.0, (
        f"1024-rank warp speedup {warp_speedup:.2f}x < 10x"
    )
    assert w["warped_iterations"] > 0
    # Warp is exact: same simulated end time as exact mode.
    assert w["makespan_ns"] == e["makespan_ns"]


def test_committed_baseline_documents_the_shard_pair():
    """The baseline must carry the 4096-rank shard pair (PR 6): the
    sharded row reproduces the exact row's simulated end time (the
    exactness evidence at scale), and either documents the >=3x
    wall-clock speedup or records that it was measured on a host
    without the cores to show one (the CI shard smoke then measures it
    live on multi-core runners)."""
    baseline = _baseline()
    cur = {r["scenario"]: r for r in baseline["rows"]}
    exact = cur[f"{SHARD_RANKS}:shard-exact"]
    sharded = cur[f"{SHARD_RANKS}:shard{SHARD_NSHARDS}"]
    # Sharded mode is exact: same simulated makespan.
    assert sharded["makespan_ns"] == exact["makespan_ns"]
    speedup = exact["norm_cost"] / sharded["norm_cost"]
    cpus = sharded.get("host_cpus", baseline.get("host_cpus", 0))
    if cpus >= SHARD_NSHARDS:
        assert speedup >= 3.0, (
            f"{SHARD_RANKS}-rank shard speedup {speedup:.2f}x < 3x "
            f"on a {cpus}-cpu measurement host"
        )
    else:
        # Measured without the cores for parallelism: the pair is the
        # overhead reference, and must at least show the window
        # protocol is not pathological even fully serialized.
        assert speedup >= 0.5, (
            f"sharded overhead {1 / speedup:.2f}x even time-shared on "
            f"{cpus} cpu(s) — window sync cost blew up"
        )


def test_committed_baseline_documents_the_eventq_swap():
    """The baseline must carry the PR-10 event-queue evidence: a
    ``heap_reference`` block (the 4096-rank exact scenario re-measured
    under ``REPRO_EVENTQ=heap``, order-alternated with paired wheel
    runs in the same session) and a ``queue_microbench`` block (the
    hold-model crossover table).

    The honest claims gated here: (a) at the hold model's deepest
    depth the wheel's events/s lead over the heap meets the crossover
    gate, and (b) the full-simulation exact-mode cost under the wheel
    is no worse than ~10% over the heap reference — queue ops are only
    ~8% of full-run wall at this scale (see docs/performance.md), so
    parity, not a big full-run win, is the truthful expectation."""
    from repro.harness.simperf import check_queue_microbench

    baseline = _baseline()
    micro = baseline.get("queue_microbench")
    assert micro, "baseline must carry the queue_microbench block"
    problems = check_queue_microbench(micro)
    assert not problems, "\n".join(problems)

    heap_ref = baseline.get("heap_reference")
    assert heap_ref, "baseline must carry the heap_reference block"
    scenario = f"{SHARD_RANKS}:shard-exact"
    heap_row = {r["scenario"]: r for r in heap_ref["rows"]}[scenario]
    wheel_row = {r["scenario"]: r for r in heap_ref["wheel_rows"]}[scenario]
    assert heap_row["events"] == wheel_row["events"]  # identical execution
    ratio = heap_row["norm_cost"] / wheel_row["norm_cost"]
    assert ratio >= 0.9, (
        f"{scenario}: wheel backend costs {1 / ratio:.2f}x the heap "
        "reference in full simulation — the queue swap regressed the "
        "whole run"
    )


def _storm_us_per_event(nranks: int) -> float:
    """Host microseconds per engine event, best of two runs, of the
    ``ckpt_storm_512`` shape of ``benchmarks/e2e`` at ``nranks``: a
    checkpoint every iteration, the PFS copy of every other round
    drained as a background flow — thousands of flushes in flight."""
    app = ring_app(iters=20, msg_bytes=4096, compute_ns=200_000)
    cm = ClusterMap.block(nranks, nranks // 8)
    best = float("inf")
    for _ in range(2):
        cfg = SPBCConfig(clusters=cm, checkpoint_every=1, state_nbytes=1 << 20)
        t0 = time.perf_counter()
        res = run_spbc(
            app, nranks, cm, config=cfg,
            storage="partner:ram@1,partner@1,pfs@2:async",
            ckpt_data="incr:4:zlib-like", profile=TEST_PROFILE, trace=False,
        )
        wall = time.perf_counter() - t0
        best = min(best, wall / res.world.engine.events_executed * 1e6)
    return best


@pytest.mark.slow
def test_storm_cost_per_event_flat_in_ranks():
    """Checkpoint-path host cost must not grow with the number of
    flushes in flight (docs/performance.md, "Why checkpoint cost grew
    with in-flight flows"): four times the ranks is four times the live
    flows on the PFS lane, and a lane or a durable-round query that
    rescans them per mutation doubles the cost per event (2.1x measured
    before the sorted pool and the guaranteed-round memo, 1.3-1.4x
    after; what is left is the event queue's, ROADMAP item 3)."""
    small = _storm_us_per_event(512)
    large = _storm_us_per_event(2048)
    print(f"\nstorm us/event: 512 ranks {small:.2f}, 2048 ranks {large:.2f}, "
          f"ratio {large / small:.2f}")
    assert large / small <= 1.6


def _paper_run_cpu_s(trace: bool) -> float:
    """Host CPU seconds of the ``make_logging_run("amg")`` shape at 128
    ranks (57 % of a ``paper_tables_128`` repetition of
    ``benchmarks/e2e``): the AMG skeleton under SPBC with singleton
    clusters on ``PAPER_NET``."""
    gc.collect()  # the previous run's world is not this run's work
    t0 = time.process_time()
    run_spbc(
        app_factory("amg"), 128, ClusterMap.singletons(128),
        net_params=PAPER_NET, trace=trace,
    )
    return time.process_time() - t0


@pytest.mark.slow
def test_tracing_cost_on_the_paper_shape():
    """Tracing observes a run, it does not re-shape it
    (docs/performance.md, "Why tracing cost a third of a paper run"):
    an event object per message kept alive for the whole run, and a
    completion event per traced send, read 1.5-1.6x here; flat rows on
    the one completion path read 1.05-1.2x."""
    ratios = []
    for _ in range(3):
        untraced = _paper_run_cpu_s(False)
        ratios.append(_paper_run_cpu_s(True) / untraced)
    print("\npaper shape, traced / untraced cpu:",
          " ".join(f"{r:.2f}" for r in ratios))
    assert statistics.median(ratios) <= 1.35
