"""Differential fuzz: the two event queues must be observably
indistinguishable.

The calendar queue replaces the binary heap on the engine's hottest
path in deep worlds, so its exactness contract is stronger than "tests
pass": the SAME journaled failure schedule recorded on the heap and on
the calendar must produce **byte-identical canonical journal streams**
— every failure, restart, commit, GC, and finish event at the same
simulated instant with the same payload — plus identical final
observables, on sequential and sharded engines alike.

These worlds are small, so left alone they would all run the heap.
Each side therefore moves ``CALENDAR_MIN_RANKS`` (huge: the heap; 0:
the calendar); forked shard workers inherit the patch.

The schedules reuse the failure-fuzz generator (seeded, reproducible
from the test id) across sync and async storage backends, so the
comparison covers recoveries, background flush flows, and the shard
coordinator's window protocol — everything that leans on event order.
"""

import random

import pytest

from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule
from repro.journal import Journal
from repro.journal.format import canonical_json
from repro.journal.recorder import journaled_app
from repro.sim import eventq
from repro.sim.eventq import CalendarEventQueue, HeapEventQueue

NRANKS = 8
RPN = 2
ITERS = 8

#: Rank-count threshold that puts these worlds on each queue.
QUEUES = {"heap": (1 << 62, HeapEventQueue), "wheel": (0, CalendarEventQueue)}

BACKENDS = [
    "memory",
    "tiered:ram@1,pfs@2",
    "partner:ram@1,partner@1,pfs@4",
]
ASYNC_BACKENDS = [
    "tiered:ram@1,pfs@2:async",
    "partner:ram@1,partner@1,pfs@4:async",
]


def random_schedule(seed, makespan_ns, max_failures=3):
    rng = random.Random(seed)
    n = rng.randint(1, max_failures)
    times = sorted(
        rng.randint(1, int(makespan_ns * 0.95)) for _ in range(n)
    )
    return [
        (t, rng.randrange(NRANKS), rng.choice(("process", "node")))
        for t in times
    ]


def canonical_stream(path):
    """The journal's canonical event stream as one byte string: events
    in canonical order, LSNs stripped (emission order is the one thing
    allowed to differ between recording modes), plus the final
    observables."""
    journal = Journal.load(path)
    assert journal.complete
    lines = [
        canonical_json({k: v for k, v in ev.items() if k != "lsn"})
        for ev in journal.canonical_events()
    ]
    lines.append(canonical_json(journal.result))
    return "\n".join(lines).encode()


def run_pair(seed, spec, tmp_path, monkeypatch, shards=None):
    """Run the same journaled schedule on each queue and compare."""
    factory = journaled_app(
        "ring", iters=ITERS, msg_bytes=2048, compute_ns=200_000
    )
    clusters = ClusterMap.block(NRANKS, 4)

    # A reference run (the heap, at this size) just to size the schedule.
    from repro.harness.runner import run_native

    ref = run_native(
        ring_app(iters=ITERS, msg_bytes=2048, compute_ns=200_000),
        NRANKS,
        ranks_per_node=RPN,
    )
    schedule = random_schedule(seed, ref.makespan_ns)

    outs, streams = {}, {}
    for queue, (min_ranks, cls) in QUEUES.items():
        monkeypatch.setattr(eventq, "CALENDAR_MIN_RANKS", min_ranks)
        path = tmp_path / f"{queue}-{seed}.journal"
        out = outs[queue] = run_failure_schedule(
            factory,
            NRANKS,
            clusters,
            schedule,
            config=SPBCConfig(clusters=clusters, checkpoint_every=2),
            ranks_per_node=RPN,
            storage=spec,
            journal=str(path),
            shards=shards,
        )
        if shards is None:
            assert isinstance(out.world.engine._eq, cls), queue
        streams[queue] = canonical_stream(path)

    heap_out, wheel_out = outs["heap"], outs["wheel"]
    assert wheel_out.results == heap_out.results, (seed, spec)
    assert wheel_out.makespan_ns == heap_out.makespan_ns, (seed, spec)
    assert streams["wheel"] == streams["heap"], (
        f"seed {seed} spec {spec}: canonical journal streams diverged "
        f"between the event queues under {schedule}"
    )


@pytest.mark.parametrize("spec", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_eventq_differential_failure_schedules(seed, spec, tmp_path,
                                               monkeypatch):
    """PR-gate slice: two seeds per storage backend."""
    run_pair(seed, spec, tmp_path, monkeypatch)


@pytest.mark.parametrize("spec", ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_eventq_differential_async_flush(seed, spec, tmp_path, monkeypatch):
    """PR-gate slice: the async flush path's background flows drain in
    the same order on both queues."""
    run_pair(seed, spec, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2])
def test_eventq_differential_sharded(seed, tmp_path, monkeypatch):
    """PR-gate slice: the shard coordinator's windowed runs (the
    deadline hot loop) on both queues."""
    run_pair(seed, "tiered:ram@1,pfs@2", tmp_path, monkeypatch, shards=2)


@pytest.mark.slow
@pytest.mark.parametrize("spec", BACKENDS + ASYNC_BACKENDS)
@pytest.mark.parametrize("seed", range(10, 22))
def test_eventq_differential_deep(seed, spec, tmp_path, monkeypatch):
    """Nightly slice: twelve more seeds per storage backend."""
    run_pair(seed, spec, tmp_path, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10, 16))
def test_eventq_differential_sharded_deep(seed, tmp_path, monkeypatch):
    """Nightly slice: more sharded-coordinator seeds, async storage."""
    run_pair(
        seed, "tiered:ram@1,pfs@2:async", tmp_path, monkeypatch, shards=4
    )
