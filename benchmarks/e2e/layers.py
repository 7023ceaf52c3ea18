"""Layer drives: each times calls into ONE layer's public functions,
with no ``World`` around it (the last four drive whole small runs as
in-process pairs, because the layer they isolate only exists inside a
run).  All values are host time; together they take a few seconds.

``scale`` shrinks every drive for ``--smoke`` (schema checks only).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from metrics import DRIVE_NAMES
from repro.apps.synthetic import ring_app
from repro.ckptdata.plane import parse_ckpt_data
from repro.ckptdata.regions import TEST_PROFILE
from repro.clustering.partition import cluster_by_communication
from repro.core.checkpoint import Checkpoint
from repro.core.clusters import ClusterMap
from repro.core.logstore import LogRecord, LogStore
from repro.harness.runner import run_spbc
from repro.journal import Journal, JournalWriter
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import Envelope
from repro.mpi.request import RecvRequest
from repro.obs import Telemetry
from repro.sim.engine import Engine
from repro.sim.eventq import make_event_queue
from repro.sim.network import Network, Topology
from repro.sim.process import SimProcess
from repro.sim.resources import BandwidthResource
from repro.storage.backend import make_backend


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _n(full: int, scale: float) -> int:
    return max(16, int(full * scale))


def eventq_hold(scale: float) -> float:
    """Classic hold model at depth 16 000 on the engine's default queue."""
    depth, nops = _n(16_000, scale), _n(100_000, scale)
    rng = random.Random(42)
    gaps = [int(rng.expovariate(1e-3)) + 1 for _ in range(depth + nops)]
    queue = make_event_queue()
    push, pop = queue.push, queue.pop
    for seq in range(depth):
        push((gaps[seq], seq, None, None, ()))

    def hold():
        for seq in range(depth, depth + nops):
            item = pop()
            push((item[0] + gaps[seq], seq, None, None, ()))

    return _timed(hold) / nops * 1e9


def engine_dispatch(scale: float) -> float:
    """A self-rescheduling no-op chain through schedule_fast + run."""
    n = _n(200_000, scale)
    engine = Engine()
    left = [n]

    def tick():
        left[0] -= 1
        if left[0]:
            engine.schedule_fast(1, tick)

    engine.schedule_fast(0, tick)
    return _timed(engine.run) / n * 1e9


def process_resume(scale: float) -> float:
    """1 024 generators sleeping on pooled timeouts."""
    nprocs, sleeps = 1024, _n(40, scale)
    engine = Engine()

    def body():
        for _ in range(sleeps):
            yield engine.timeout_pooled(100)

    for i in range(nprocs):
        SimProcess(engine, f"p{i}", body()).start()
    return _timed(engine.run) / (nprocs * sleeps) * 1e9


def network_send(scale: float) -> float:
    """Network.send to attached no-op sinks, then delivery."""
    nranks, n = 64, _n(60_000, scale)
    engine = Engine()
    net = Network(engine, Topology(nranks, 8))
    for r in range(nranks):
        net.attach(r, lambda pkt: None)

    def send_all():
        for i in range(n):
            src = i % nranks
            net.send(src, (src + 1 + i % 9) % nranks, None, 4096)
        engine.run()

    return _timed(send_all) / n * 1e9


def resource_flows(scale: float) -> float:
    """start_flow/cancel churn with 64 flows sharing one lane."""
    n = _n(20_000, scale)
    engine = Engine()
    lane = BandwidthResource(engine, "lane", 1e9)
    live = [lane.start_flow(1 << 30) for _ in range(64)]

    def churn():
        for i in range(n):
            slot = i % 64
            lane.cancel(live[slot])
            live[slot] = lane.start_flow(1 << 30)

    return _timed(churn) / n * 1e9


def matching(scale: float) -> float:
    """post/arrive in expected order, then in unexpected order, 64
    outstanding at a time."""
    rounds, batch = _n(1500, scale), 64
    engine = MatchingEngine(lambda req, env: True)
    reqs = [RecvRequest(i % batch, 7, 0, i) for i in range(2 * rounds * batch)]
    envs = [Envelope(i % batch, 0, 7, 0, i, 4096) for i in range(2 * rounds * batch)]

    def drive():
        at = 0
        for _ in range(rounds):  # expected: receives posted first
            for i in range(at, at + batch):
                engine.post(reqs[i])
            for i in range(at, at + batch):
                engine.arrive(envs[i])
            at += batch
        for _ in range(rounds):  # unexpected: messages arrive first
            for i in range(at, at + batch):
                engine.arrive(envs[i])
            for i in range(at, at + batch):
                engine.post(reqs[i])
            at += batch

    wall = _timed(drive)
    assert engine.matches == 2 * rounds * batch
    return wall / engine.matches * 1e9


def logstore(scale: float) -> Dict[str, float]:
    nchan, per = 8, _n(12_000, scale)
    store = LogStore(0)
    records = [
        LogRecord(0, dst, seq, 7, 4096, (0, 0), None, seq)
        for seq in range(1, per + 1)
        for dst in range(1, nchan + 1)
    ]

    def append():
        for rec in records:
            store.append(rec)

    append_s = _timed(append)
    lookups = [(dst, seq) for seq in range(0, per, 16) for dst in range(1, nchan + 1)]

    def replay():
        for dst, seq in lookups:
            store.replay_after(0, dst, max(seq, per - 64))

    replay_s = _timed(replay)

    def collect():
        for upto in range(64, per + 1, 64):
            for dst in range(1, nchan + 1):
                store.collect(0, dst, upto)

    collect_s = _timed(collect)
    return {
        "core.logstore.append_ns": append_s / len(records) * 1e9,
        "core.logstore.replay_ns": replay_s / len(lookups) * 1e9,
        "core.logstore.collect_ns": collect_s / store.collected_records * 1e9,
    }


def _checkpoint(rank: int, round_no: int, payload=None) -> Checkpoint:
    return Checkpoint(
        rank=rank, round_no=round_no, taken_at_ns=round_no, app_state={},
        chan_seq={}, lr={}, arrived={}, ls={}, pattern_state={}, unexpected=[],
        log_snapshot={}, nbytes=1 << 20, payload=payload,
    )


def storage_backend(scale: float) -> Dict[str, float]:
    nranks, rounds = 64, _n(160, scale)
    backend = make_backend("tiered:ram@1,pfs@4")
    ckpts = [
        _checkpoint(r, rnd) for rnd in range(1, rounds + 1) for r in range(nranks)
    ]

    def save():
        for ckpt in ckpts:
            backend.save(ckpt, concurrent_writers=nranks)

    save_s = _timed(save)

    def retrieve():
        for ckpt in ckpts:
            backend.retrieve(ckpt.rank, ckpt.round_no)

    retrieve_s = _timed(retrieve)
    return {
        "storage.backend.save_ns": save_s / len(ckpts) * 1e9,
        "storage.backend.retrieve_ns": retrieve_s / len(ckpts) * 1e9,
    }


def ckptdata_payload(scale: float) -> float:
    nranks, rounds = 64, _n(300, scale)
    plane = parse_ckpt_data("incr:4:zlib-like", profile=TEST_PROFILE)

    def build():
        for rnd in range(1, rounds + 1):
            for r in range(nranks):
                plane.build_payload(r, rnd, 1, log_bytes=4096)

    return _timed(build) / (nranks * rounds) * 1e9


def clustering_partition(scale: float) -> float:
    """cluster_by_communication on a 512-rank ring-plus-noise matrix."""
    n = 512 if scale >= 1 else 64
    rng = np.random.default_rng(7)
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.02)
    idx = np.arange(n)
    w[idx, (idx + 1) % n] += 8.0
    sym = w + w.T
    return _timed(
        lambda: cluster_by_communication(sym, 8, topology=Topology(n, 8))
    )


def journal_io(scale: float, workdir: Path) -> Dict[str, float]:
    n = _n(20_000, scale)
    path = workdir / "drive.journal"
    writer = JournalWriter(str(path))

    def write():
        writer.write_header({"nranks": 64, "drive": "benchmarks/e2e"})
        for i in range(n):
            writer.emit("commit", i, rank=i % 64, round=i // 64)
        writer.finish({"makespan_ns": n})

    write_s = _timed(write)
    try:
        load_s = _timed(lambda: Journal.load(path))
    finally:
        path.unlink()
    return {
        "journal.write_ns_per_record": write_s / n * 1e9,
        "journal.load_ns_per_record": load_s / n * 1e9,
    }


def _ring_run(nranks: int, iters: int, **kw):
    app = ring_app(iters=iters, msg_bytes=4096, compute_ns=200_000)
    return run_spbc(app, nranks, ClusterMap.block(nranks, nranks // 8), **kw)


def _paired_ratio(base: Callable[[], object], other: Callable[[], object],
                  pairs: int) -> float:
    """Median of per-pair other/base wall ratios, order alternating so
    drift favours neither side."""
    base()  # warm both paths once, untimed
    other()
    ratios = []
    for i in range(pairs):
        if i % 2 == 0:
            b, o = _timed(base), _timed(other)
        else:
            o, b = _timed(other), _timed(base)
        ratios.append(o / b)
    return statistics.median(ratios)


def ring_ns_per_event(nranks: int, iters: int = 40) -> float:
    best = None
    for _ in range(2):
        gc.collect()
        t0 = time.perf_counter()
        res = _ring_run(nranks, iters, trace=False)
        wall = time.perf_counter() - t0
        per_event = wall / res.world.engine.events_executed * 1e9
        best = per_event if best is None else min(best, per_event)
        del res
    return best


def run_drives(scale: float, workdir: Path) -> Dict[str, float]:
    """Every drive metric named in ``metrics.DRIVES``."""
    small = scale < 1
    ranks, iters, pairs = (64, 10, 1) if small else (128, 40, 3)
    warp_ranks, warp_iters = (64, 60) if small else (256, 600)
    out = {
        "sim.eventq.hold_ns_per_op": eventq_hold(scale),
        "sim.engine.dispatch_ns_per_event": engine_dispatch(scale),
        "sim.process.resume_ns": process_resume(scale),
        "sim.network.send_ns": network_send(scale),
        "sim.resources.flow_ns": resource_flows(scale),
        "mpi.matching.match_ns": matching(scale),
        "ckptdata.build_payload_ns": ckptdata_payload(scale),
        "clustering.partition_s": clustering_partition(scale),
        "obs.telemetry_on_ratio": _paired_ratio(
            lambda: _ring_run(ranks, iters, trace=False),
            lambda: _ring_run(ranks, iters, trace=False, telemetry=Telemetry()),
            pairs,
        ),
        "sim.tracing.trace_on_ratio": _paired_ratio(
            lambda: _ring_run(ranks, iters, trace=False),
            lambda: _ring_run(ranks, iters, trace=True),
            pairs,
        ),
        "sim.warp.speedup": (
            _timed(lambda: _ring_run(warp_ranks, warp_iters, trace=False))
            / _timed(
                lambda: _ring_run(warp_ranks, warp_iters, trace=False, warp=warp_iters)
            )
        ),
        "sim.engine.host_ns_per_event_256": ring_ns_per_event(64 if small else 256),
        "sim.engine.host_ns_per_event_1024": ring_ns_per_event(64 if small else 1024),
    }
    out.update(logstore(scale))
    out.update(storage_backend(scale))
    out.update(journal_io(scale, workdir))
    assert set(out) == set(DRIVE_NAMES)
    return out
