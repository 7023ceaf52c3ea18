"""Property tests for the event queues (repro.sim.eventq).

The contract under test: both queues drain live events in strict
``(time_ns, seq)`` order, expose the same peek / next-live / shift
semantics, and the calendar queue's internal machinery (bucket rewind,
day rolls off the overflow spine, occupancy-driven resizes, the
shifting rebuild, the empty-lap reset) never perturbs that order.  A randomized differential
fuzz drives both queues through identical operation sequences and
demands identical outputs — the queue-level mirror of the journal-level
differential in tests/integration/test_eventq_differential.py.  The
rule that picks a world's queue from its rank count is tested last.
"""

import random

import pytest

from repro.mpi.runtime import World
from repro.sim.engine import Engine, EventHandle
from repro.sim.eventq import (
    CALENDAR_MIN_RANKS,
    MIN_BUCKETS,
    CalendarEventQueue,
    HeapEventQueue,
    make_event_queue,
)
from repro.sim.shard import _ShardWorld

QUEUES = [HeapEventQueue, CalendarEventQueue]


def drain(q):
    out = []
    while True:
        item = q.pop()
        if item is None:
            return out
        out.append(item)


def mk(t, seq, handle=None):
    return (t, seq, handle, None, ())


# ----------------------------------------------------------------------
# Shared-order properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", QUEUES)
def test_fifo_within_a_timestamp(cls):
    q = cls()
    for seq in range(1, 50):
        q.push(mk(7_000, seq))
    assert [it[1] for it in drain(q)] == list(range(1, 50))


@pytest.mark.parametrize("cls", QUEUES)
def test_pop_orders_by_time_then_seq(cls):
    q = cls()
    rng = random.Random(42)
    items = [mk(rng.randrange(0, 100_000), seq) for seq in range(1, 400)]
    rng.shuffle(items)
    for it in items:
        q.push(it)
    assert drain(q) == sorted(items)


@pytest.mark.parametrize("cls", QUEUES)
def test_len_and_interleaved_push_pop(cls):
    q = cls()
    q.push(mk(10, 1))
    q.push(mk(5, 2))
    assert len(q) == 2
    assert q.pop()[0] == 5
    q.push(mk(7, 3))
    q.push(mk(10, 4))
    assert len(q) == 3
    assert [it[0] for it in drain(q)] == [7, 10, 10]
    assert len(q) == 0
    assert q.pop() is None
    assert q.peek_time() is None
    assert q.next_live_time() is None


@pytest.mark.parametrize("cls", QUEUES)
def test_peek_time_reports_raw_head_even_if_cancelled(cls):
    q = cls()
    h = EventHandle()
    h.cancel()
    q.push(mk(3, 1, h))
    q.push(mk(9, 2))
    # peek_time mirrors the old heap[0][0] deadline check: the cancelled
    # head still bounds the deadline scan (run() skips it after popping).
    assert q.peek_time() == 3
    assert q.next_live_time() == 9  # ...but the live peek discards it
    assert len(q) == 1


@pytest.mark.parametrize("cls", QUEUES)
def test_next_live_time_discards_cancelled_prefix(cls):
    q = cls()
    handles = [EventHandle() for _ in range(4)]
    for seq, h in enumerate(handles, start=1):
        q.push(mk(seq, seq, h))
    q.push(mk(50, 99))
    for h in handles:
        h.cancel()
    assert q.next_live_time() == 50
    assert len(q) == 1
    assert q.pop()[1] == 99


@pytest.mark.parametrize("cls", QUEUES)
def test_shift_all_rebases_every_pending_time(cls):
    q = cls()
    for seq, t in enumerate([100, 250, 250, 900], start=1):
        q.push(mk(t, seq))
    q.shift_all(1_000_000)
    assert q.peek_time() == 1_000_100
    assert [it[0] for it in drain(q)] == [1_000_100, 1_000_250, 1_000_250, 1_000_900]


@pytest.mark.parametrize("cls", QUEUES)
def test_push_after_shift_interleaves_in_absolute_time(cls):
    q = cls()
    q.push(mk(10, 1))
    q.push(mk(500, 2))
    q.shift_all(90)  # pending become 100, 590
    q.push(mk(300, 3))  # absolute, lands between them
    assert [(it[0], it[1]) for it in drain(q)] == [(100, 1), (300, 3), (590, 2)]


@pytest.mark.parametrize("cls", QUEUES)
def test_iter_yields_all_pending_with_absolute_times(cls):
    q = cls()
    items = [mk(t, seq) for seq, t in enumerate([40, 10, 10, 7_000_000], start=1)]
    for it in items:
        q.push(it)
    q.shift_all(5)
    q.pop()  # drops (10, 2)
    expect = sorted((t + 5, seq) for t, seq, *_ in items if seq != 2)
    assert sorted((t, seq) for t, seq, *_ in q) == expect


# ----------------------------------------------------------------------
# Calendar-specific machinery
# ----------------------------------------------------------------------
def test_wheel_grows_when_pushes_flood_the_spine():
    # Items far past the initial 32-bucket day overflow to the spine;
    # crossing the spine cap must trigger a grow-rebuild that recalibrates
    # the day to cover them — and the drain order must be untouched.
    q = CalendarEventQueue()
    items = [mk(seq * 100_000, seq) for seq in range(1, 3_001)]
    rng = random.Random(7)
    rng.shuffle(items)
    for it in items:
        q.push(it)
    assert q.resizes > 0
    assert q._nbuckets > 32
    assert drain(q) == sorted(items)


def test_wheel_shrinks_when_the_day_goes_sparse():
    # Grow on a dense population, then drain down to a handful of
    # far-apart stragglers: the cursor's empty-bucket crawl must trigger
    # a shrink-rebuild instead of scanning thousands of buckets per pop.
    q = CalendarEventQueue()
    for seq in range(1, 3_001):
        q.push(mk(seq * 100_000, seq))
    grown = q._nbuckets
    assert grown > MIN_BUCKETS
    stragglers = [mk(10_000_000_000_000 + i * 3_600_000_000_000, 50_000 + i)
                  for i in range(5)]
    for it in stragglers:
        q.push(it)
    dense = [q.pop() for _ in range(3_000)]
    assert dense == sorted(dense)
    assert [q.pop() for _ in range(5)] == stragglers
    assert q._nbuckets < grown  # rebuilt around the sparse tail
    # The empty lap past the last straggler resets the default geometry.
    assert q.pop() is None
    assert q._nbuckets == MIN_BUCKETS
    # The reset queue still works.
    q.push(mk(5, 99_999))
    assert q.pop()[1] == 99_999


def test_wheel_day_roll_pulls_far_future_spine():
    q = CalendarEventQueue()
    # Near-term cluster plus MTBF-scale outliers far beyond the day: the
    # drained day rolls onto the spine cohort.
    near = [mk(t, seq) for seq, t in enumerate(range(0, 5_000, 50), start=1)]
    far = [mk(3_600_000_000_000 + t, 1_000 + t) for t in range(64)]
    for it in near + far:
        q.push(it)
    assert drain(q) == sorted(near + far)
    assert q.day_rolls > 0


def test_wheel_calibration_survives_outlier_gaps():
    # One huge gap (a failure arrival hours out) must not stretch the
    # bucket width: the bulk still spreads across many buckets instead
    # of degenerating into one insort list.
    q = CalendarEventQueue()
    for seq in range(1, 1_001):
        q.push(mk(seq * 1_000, seq))
    q.push(mk(3_600_000_000_000, 9_999))
    for seq in range(10_000, 11_000):  # force calibrating rebuilds
        q.push(mk((seq - 9_000) * 1_000, seq))
    assert q.resizes > 0
    assert q._width < 1_000_000_000  # the outlier did not set the width
    out = drain(q)
    assert out == sorted(out)


def test_wheel_rewind_accepts_push_behind_an_advanced_cursor():
    q = CalendarEventQueue()
    q.push(mk(1_000_000, 1))  # far enough that peeking advances buckets
    assert q.peek_time() == 1_000_000
    # An engine idling at a window horizon schedules something sooner.
    q.push(mk(5, 2))
    assert q.peek_time() == 5
    assert [(it[0], it[1]) for it in drain(q)] == [(5, 2), (1_000_000, 1)]


def test_wheel_mid_scan_spine_drain_lands_behind_the_cursor():
    """Regression: events between one and two days out sit on the spine
    until the scan's sliding horizon crosses them, and their modular
    slot can land *behind* the already-advanced cursor.  The lap count
    must restart on a drain or the scan concludes "empty day" with live
    events stranded in a passed bucket (a pop observably returned None
    here with two events pending)."""
    q = CalendarEventQueue()
    day = q._nbuckets * q._width
    t = day + (day * 2) // 5  # in the second day: spine, wraps behind
    q.push(mk(t, 1))
    q.push(mk(t + 1, 2))
    assert len(q) == 2
    assert [(it[0], it[1]) for it in drain(q)] == [(t, 1), (t + 1, 2)]


def test_wheel_deep_insert_churn_spreads_a_dense_distributed_bucket():
    """The hold-pattern guard: a dense population spread over a span
    far narrower than the calibrated width must trigger a spread
    rebuild (bucket count sized for ~TARGET_OCC occupancy) instead of
    paying an O(bucket) memmove per insert forever."""
    import random

    from repro.sim.eventq import CHURN_CAP

    rng = random.Random(7)
    q = CalendarEventQueue()
    seq = 0
    for _ in range(20_000):
        seq += 1
        q.push(mk(int(rng.expovariate(0.001)) + 1, seq))
    out = []
    for _ in range(3 * CHURN_CAP):
        it = q.pop()
        out.append((it[0], it[1]))
        seq += 1
        q.push(mk(it[0] + int(rng.expovariate(0.001)) + 1, seq))
    assert out == sorted(out)
    assert q.resizes > 0
    # Spread sizing: far more buckets than sqrt sizing would pick.
    assert q._nbuckets * q._nbuckets > 4 * len(q)


def test_wheel_futile_spread_rebuilds_back_off():
    """Deep inserts in front of a cluster at one instant, inside a bucket
    whose width a long pending tail keeps coarse: no spread rebuild can
    stop them.  After one futile spread the next waits for as many deep
    inserts as the population's size, instead of re-bucketing the whole
    population every ``CHURN_CAP`` inserts."""
    from repro.sim.eventq import CHURN_CAP

    rng = random.Random(3)
    q = CalendarEventQueue()
    items = [mk(rng.randrange(0, 1_000_000_000), seq) for seq in range(1, 10_001)]
    items += [mk(2_000, seq) for seq in range(10_001, 13_001)]
    for it in items:
        q.push(it)
    before = q.resizes
    for seq in range(20_000, 20_000 + 5 * CHURN_CAP):
        item = mk(1_500, seq)
        q.push(item)
        items.append(item)
    assert q.resizes - before <= 1  # not one per CHURN_CAP deep inserts
    assert drain(q) == sorted(items)


def test_wheel_push_below_epoch_after_day_roll():
    q = CalendarEventQueue()
    q.push(mk(10, 1))
    q.push(mk(50_000_000_000, 2))  # spine
    assert q.pop()[1] == 1
    assert q.peek_time() == 50_000_000_000  # rolls the day forward
    # A shard import lands below the rolled epoch (but after `now`).
    q.push(mk(100, 3))
    assert [(it[0], it[1]) for it in drain(q)] == [(100, 3), (50_000_000_000, 2)]


def test_wheel_rebuild_keeps_cancelled_events_for_len_parity():
    """Cancelled-handle events survive a rebuild: the heap keeps
    them too (lazy cancellation), so ``len`` and ``peek_time`` must stay
    bit-identical between the queues even across resizes."""
    q = CalendarEventQueue()
    ref = HeapEventQueue()
    handles = [EventHandle() for _ in range(600)]
    for seq, h in enumerate(handles, start=1):
        item = mk(seq * 100, seq, h)
        q.push(item)
        ref.push(item)
    for h in handles:
        h.cancel()
    item = mk(1, 9_999)
    q.push(item)
    ref.push(item)
    before = q.resizes
    seq = 20_000
    while q.resizes == before:  # flood the spine into a grow-rebuild
        item = mk(10_000_000_000 + seq, seq)
        q.push(item)
        ref.push(item)
        seq += 1
    assert len(q) == len(ref)
    assert q.peek_time() == ref.peek_time()
    assert q.next_live_time() == ref.next_live_time() == 1


def test_wheel_reset_and_regrow_round_trip():
    """Drain a grown calendar empty -> default geometry around time 0;
    refill far past that default day -> the spine floods and the day
    grows again.  The round trip must be invisible in the drain order."""
    q = CalendarEventQueue()
    ref = HeapEventQueue()
    seq = 0
    for _ in range(4_096):
        seq += 1
        it = mk(seq * 100, seq)
        q.push(it)
        ref.push(it)
    assert q._nbuckets > MIN_BUCKETS
    assert drain(q) == drain(ref)
    assert q._nbuckets == MIN_BUCKETS  # the empty lap reset the geometry
    before = q.resizes
    for _ in range(4_096):  # every time is past the default day
        seq += 1
        it = mk(seq * 100, seq)
        q.push(it)
        ref.push(it)
    assert q.resizes > before
    assert q._nbuckets > MIN_BUCKETS
    assert drain(q) == drain(ref)


def test_wheel_shift_all_rebuilds_a_grown_calendar_mid_bucket():
    """``shift_all`` is a rebuild over the shifted population: with the
    cursor bucket half consumed, a parked spine and cancelled events,
    the calendar must keep heap parity in ``len``, peeks and order."""
    q = CalendarEventQueue()
    ref = HeapEventQueue()
    rng = random.Random(5)
    handles = []
    for seq in range(1, 3_001):
        handle = EventHandle() if seq % 7 == 0 else None
        if handle is not None:
            handles.append(handle)
        t = rng.randrange(0, 50) if seq <= 200 else rng.randrange(0, 3_000_000)
        if seq % 100 == 0:
            t = 3_600_000_000_000 + seq  # MTBF-scale: the spine
        item = mk(t, seq, handle)
        q.push(item)
        ref.push(item)
    assert q._nbuckets > MIN_BUCKETS and q._spine
    for h in handles[::2]:
        h.cancel()
    for _ in range(50):  # part-way into the first bucket
        assert q.pop() == ref.pop()
    assert q._curpos > 0
    q.shift_all(123_456_789)
    ref.shift_all(123_456_789)
    assert len(q) == len(ref)
    assert q.peek_time() == ref.peek_time()
    assert q.next_live_time() == ref.next_live_time()
    assert drain(q) == drain(ref)


# ----------------------------------------------------------------------
# Differential fuzz: heap vs wheel under identical operation sequences
# ----------------------------------------------------------------------
#: (push share, pop share) of the fuzz's operations; the remaining 15 %
#: peek, cancel and shift.  "filling" grows a pending population of a few
#: hundred; "draining" pops more than it pushes, so the calendar runs
#: empty over and over and restarts from its default geometry.
REGIMES = {"filling": (0.55, 0.30), "draining": (0.40, 0.45)}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("seed", range(8))
def test_differential_random_ops(seed, regime):
    push_share, pop_share = REGIMES[regime]
    rng = random.Random(seed)
    heap, wheel = HeapEventQueue(), CalendarEventQueue()
    seq = 0
    handles = []
    empties = 0
    t_floor = 0  # popped times are monotone; pushes stay >= the floor
    for _ in range(3_000):
        op = rng.random()
        if op < push_share:
            seq += 1
            # Mix of dense near-term, ties, and far-future outliers.
            r = rng.random()
            if r < 0.6:
                t = t_floor + rng.randrange(0, 5_000)
            elif r < 0.9:
                t = t_floor + rng.randrange(0, 200) * 1_000
            else:
                t = t_floor + rng.randrange(1, 10) * 10_000_000_000
            handle = None
            if rng.random() < 0.15:
                handle = EventHandle()
                handles.append(handle)
            a, b = mk(t, seq, handle), mk(t, seq, handle)
            heap.push(a)
            wheel.push(b)
        elif op < push_share + pop_share:
            a, b = heap.pop(), wheel.pop()
            assert a == b
            if a is None:
                empties += 1
            else:
                t_floor = max(t_floor, a[0])
        elif op < 0.92:
            assert heap.peek_time() == wheel.peek_time()
        elif op < 0.96:
            if handles and rng.random() < 0.8:
                handles.pop(rng.randrange(len(handles))).cancel()
            assert heap.next_live_time() == wheel.next_live_time()
            assert len(heap) == len(wheel)
        else:
            delta = rng.randrange(0, 1_000_000)
            heap.shift_all(delta)
            wheel.shift_all(delta)
            t_floor += delta
    assert drain(heap) == drain(wheel)
    if regime == "draining":
        assert empties > 0  # the reset path really ran


# ----------------------------------------------------------------------
# Engine integration: one queue per world, picked from its rank count
# ----------------------------------------------------------------------
def test_queue_is_picked_from_the_ranks_a_world_executes():
    below, at = CALENDAR_MIN_RANKS - 1, CALENDAR_MIN_RANKS
    assert isinstance(make_event_queue(below), HeapEventQueue)
    assert isinstance(make_event_queue(at), CalendarEventQueue)
    # The two no-argument forms: a bare queue is the calendar, a bare
    # engine (no ranks) the heap.
    assert isinstance(make_event_queue(), CalendarEventQueue)
    assert isinstance(Engine()._eq, HeapEventQueue)
    assert isinstance(World(below, trace=False).engine._eq, HeapEventQueue)
    assert isinstance(World(at, trace=False).engine._eq, CalendarEventQueue)
    # A shard counts the ranks it owns, not the world's.
    shard = _ShardWorld(frozenset(range(below)), 2 * at, trace=False)
    assert isinstance(shard.engine._eq, HeapEventQueue)
    shard = _ShardWorld(frozenset(range(at)), 2 * at, trace=False)
    assert isinstance(shard.engine._eq, CalendarEventQueue)


@pytest.mark.parametrize("nranks", [0, CALENDAR_MIN_RANKS])
def test_engine_deadline_bounded_run(nranks):
    eng = Engine(nranks)
    fired = []
    for t in (10, 20, 30, 40):
        eng.schedule_fast(t, fired.append, t)
    assert eng.run(until_ns=25, detect_deadlock=False) == 2
    assert fired == [10, 20]
    assert eng.now == 25  # clock parked at the horizon, not the next event
    assert eng.pending_events == 2
    assert eng.next_event_time() == 30
    # Resuming past the horizon drains the rest in order.
    assert eng.run(until_ns=1_000, detect_deadlock=False) == 2
    assert fired == [10, 20, 30, 40]


@pytest.mark.parametrize("nranks", [0, CALENDAR_MIN_RANKS])
def test_engine_warp_rebase_mid_run(nranks):
    eng = Engine(nranks)
    order = []

    def shift_now():
        eng.shift_pending(1_000_000)
        order.append(("shift", eng.now))

    eng.schedule_fast(5, shift_now)
    eng.schedule_fast(7, lambda: order.append(("a", eng.now)))
    eng.schedule_fast(7, lambda: order.append(("b", eng.now)))
    eng.run(detect_deadlock=False)
    assert order == [("shift", 1_000_005), ("a", 1_000_007), ("b", 1_000_007)]
