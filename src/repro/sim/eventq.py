"""The engine's event queues: binary heap and calendar queue, one per
world, picked from the number of ranks the world executes.

The engine's pending-event set was a ``heapq`` of
``(time_ns, seq, handle, fn, args)`` tuples.  That is O(log n) per
insert/pop, and once a world carries thousands of in-flight sleeps,
flows, and mirrored storage records (4096-16384 rank runs), the heap's
sift comparisons dominate the hot loop.  This module has two queues
behind one protocol:

* :class:`HeapEventQueue` — the binary heap.  It serves every world
  below :data:`CALENDAR_MIN_RANKS` ranks, where the C ``heapq`` beats
  pure-Python bucket management, and is the executable reference the
  differential tests hold the calendar against;
* :class:`CalendarEventQueue` — a calendar queue / timing wheel for
  deep worlds: near-future events land in fixed-width buckets
  (amortized O(1) insert/pop), far-future events (MTBF-scale failure
  arrivals, horizon caps) overflow into a small sorted spine, and the
  bucket width is re-calibrated from the observed pending-time
  distribution whenever the calendar is rebuilt.

:func:`make_event_queue` picks one from a world's rank count, once, at
engine construction: pending populations track rank count (a 128-rank
run peaks near a thousand pending events, a 4096-rank run keeps almost
every push above 2 048), so the rank count is the depth the choice
needs, known before the first event.

Exactness contract (shared by both queues, property-tested in
``tests/sim/test_eventq.py`` and differentially fuzzed against each
other in ``tests/integration/test_eventq_differential.py``):

* events drain in strict ``(time_ns, seq)`` order — ``seq`` is unique,
  so two events never tie and whole executions are byte-for-byte
  identical regardless of the queue;
* ``peek_time`` returns the raw head's time (cancelled or not),
  matching the old ``heap[0][0]`` deadline check in ``run()``;
* ``next_live_time`` additionally discards cancelled heads, matching
  ``Engine.next_event_time`` (the conservative shard coordinator's
  safe-horizon peek);
* ``shift_all`` adds a constant to every pending time, in O(n) on both
  queues: the heap rewrites its tuples, the calendar rebuilds around
  the shifted population.

Calendar internals
------------------
Buckets are modular — an event at time ``t`` lives in bucket
``(t // width) % nbuckets`` — and the placement horizon ``limit``
slides forward with the cursor, always one full day
(``nbuckets * width``) ahead of it.  The sliding window is the load-
bearing choice: with a *fixed* day, the steady-state reschedule traffic
(every drained compute sleep scheduling its successor one period ahead)
marches off the end of the day into the overflow spine, floods it, and
forces a full rebuild every few thousand events — measured ~200
rebuilds per 4096-rank run, a ~2x slowdown.  With the window sliding,
an event one reschedule horizon ahead is *always* in-day, the spine
only ever holds genuinely far-future items, and steady state rebuilds
drop to near zero.

The bucket under the cursor is kept sorted: it drains with an advancing
position index (popped slots are nulled so each tuple is freed exactly
when ``heappop`` would free it), and same-bucket inserts take a
one-comparison tail append (burst traffic arrives in near-monotone
``(time, seq)`` order) or a cursor-bounded ``bisect.insort``.  Later
buckets are unsorted append lists, sorted once when the cursor reaches
them.  Anything at or past ``limit`` goes to the spine (a heap), which
drains back into buckets as the horizon slides over it.  When a full
lap finds every bucket empty, the window jumps straight to the spine's
minimum — a far-future idle stretch costs one jump, not a crawl — or,
with the spine empty too, the calendar resets to its default geometry.

Deliberately *not* a resize trigger: raw bucket occupancy.
Collective-heavy workloads park thousands of events on one timestamp
(every rank waking at a barrier), and that kind of fat bucket is both
unspreadable (no width subdivides a single instant) and cheap (ties
order by the globally-monotone seq, so same-time inserts are a
one-comparison tail append, and drain is an index increment).  A naive
occupancy trigger measured on exactly that workload ping-ponged with
the sparsity trigger for ~200 futile rebuilds per run.  What *does*
trigger is deep-insert churn: an insert landing far from the bucket
tail is an O(bucket) memmove, and a steady diet of those means the
population is dense and *distributed* — the one fat-bucket shape a
narrower width genuinely fixes.  That distinction is what keeps the
classic hold benchmark (steady depth, exponential reschedule
increments) O(1) instead of O(depth) without touching the barrier-burst
fast path.

Rebuilds happen when the spine floods (the day is undersized: grow),
when an empty-lap jump finds the population far below the bucket count
(the day is oversized: shrink), or when deep-insert churn passes
``CHURN_CAP`` (the width is too coarse: spread; a spread that does not
stop the churn raises the cap to the population, so futile spreads
cost O(1) amortised per deep insert).  A rebuild sizes the
bucket count to ~2x the square root of the live population (laps and
bucket occupancy both stay modest; power of two in
``[MIN_BUCKETS, MAX_BUCKETS]``, with a 4x dead band before shrinking) —
or, on a spread rebuild, to ~``count / TARGET_OCC`` so average
occupancy lands near ``TARGET_OCC`` — and sets the width so the day
spans ~2x the 99th percentile of pending times: the pending span
proxies the reschedule horizon, and the percentile keeps one MTBF-scale
failure arrival hours out from stretching the buckets that serve the
microsecond-scale bulk.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import Iterator, List, Optional, Tuple, Union

#: (time_ns, seq, handle, fn, args) — virtual time, globally unique
#: monotone seq, optional EventHandle, callback, args.
Item = Tuple[int, int, object, object, tuple]

#: Worlds executing at least this many ranks get the calendar queue,
#: smaller ones the heap.  In full runs on a 2-core host the heap led by
#: 1-9 % at 128-512 ranks and the calendar by 9 % at 4096, where 98.7 %
#: of pushes find more than 2 048 events pending (docs/performance.md,
#: "The event queue").
CALENDAR_MIN_RANKS = 1 << 11

MIN_BUCKETS = 32
MAX_BUCKETS = 1 << 16
#: Starting bucket width before the first calibration (ns).  Any value
#: works correctly — the spine and the rebuild calibration absorb a bad
#: guess — this one just fits the Tier-1 workloads' microsecond gaps.
DEFAULT_WIDTH_NS = 1 << 13
#: Spine size that triggers a grow-rebuild (the day is undersized).
SPINE_CAP = 1 << 10
#: A same-bucket insert landing more than this many slots from the tail
#: is a "deep" insert (an O(bucket) memmove, not a cheap append).
DEEP_INSERT = 64
#: Deep inserts since the last rebuild that trigger a spread-rebuild
#: (the bucket width is too wide for a *distributed* population); after
#: a spread-rebuild the next one waits for the population's size.
#: Swept on the committed 4096-rank op trace: larger caps amortize the
#: O(n) rebuilds better (79 rebuilds vs 575 at cap=64) without letting
#: the deep-insert memmoves run long enough to matter.
CHURN_CAP = 1 << 10
#: Per-bucket occupancy a spread-rebuild aims for.
TARGET_OCC = 32


class HeapEventQueue:
    """The binary-heap pending set behind the queue protocol."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Item] = []

    def push(self, item: Item) -> None:
        heappush(self._heap, item)

    def pop(self) -> Optional[Item]:
        heap = self._heap
        if heap:
            return heappop(heap)
        return None

    def pop_until(self, until_ns: int) -> Optional[Item]:
        heap = self._heap
        if heap and heap[0][0] <= until_ns:
            return heappop(heap)
        return None

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        return heap[0][0] if heap else None

    def next_live_time(self) -> Optional[int]:
        heap = self._heap
        while heap:
            head = heap[0]
            handle = head[2]
            if handle is not None and handle.cancelled:
                heappop(heap)
                continue
            return head[0]
        return None

    def shift_all(self, delta_ns: int) -> None:
        heap = self._heap
        for i, (t, seq, handle, fn, args) in enumerate(heap):
            heap[i] = (t + delta_ns, seq, handle, fn, args)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._heap)


class CalendarEventQueue:
    """Calendar queue / timing wheel (see module docstring)."""

    __slots__ = (
        "_width",
        "_shift",
        "_mask",
        "_nbuckets",
        "_curtime",
        "_limit",
        "_buckets",
        "_cur",
        "_curbuf",
        "_curpos",
        "_spine",
        "_spine_cap",
        "_churn",
        "_churn_cap",
        "resizes",
        "day_rolls",
    )

    def __init__(self) -> None:
        self._spine: List[Item] = []
        self._churn = 0
        # Introspection for tests/benchmarks.
        self.resizes = 0
        self.day_rolls = 0
        self._reset()

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def push(self, item: Item) -> None:
        t = item[0]
        if t >= self._limit:
            # Beyond the sliding window: far-future spine.
            spine = self._spine
            heappush(spine, item)
            if len(spine) > self._spine_cap:
                self._rebuild()  # the day is undersized: grow it
            return
        if t >= self._curtime:
            idx = (t >> self._shift) & self._mask
            if idx != self._cur:
                self._buckets[idx].append(item)
                return
            # Same-bucket insert.  Burst traffic (hundreds of ranks
            # waking at one barrier timestamp, then scheduling sends a
            # hop ahead) arrives in near-monotone (time, seq) order, so
            # first try a one-comparison tail append; otherwise bisect,
            # bounded below by the cursor (every consumed entry orders
            # before a fresh item: its time is <= now <= t, and seq is
            # globally monotone).
            buf = self._curbuf
            pos = self._curpos
            if pos < len(buf):
                if item >= buf[-1]:
                    buf.append(item)
                else:
                    j = bisect_right(buf, item, pos)
                    buf.insert(j, item)
                    if len(buf) - j > DEEP_INSERT:
                        # An O(bucket) memmove.  Occasional deep inserts
                        # are cheaper than recalibrating; a steady diet
                        # of them (a dense *distributed* population
                        # collapsed into one wide bucket) is the one
                        # case where a narrower width genuinely helps.
                        self._churn += 1
                        if self._churn > self._churn_cap:
                            self._rebuild(spread=True)
            else:
                # Fully drained: drop the consumed prefix (pops null
                # their slots, so the tail compare above would see None).
                buf.clear()
                buf.append(item)
                self._curpos = 0
            return
        if t >= self._limit - (self._nbuckets << self._shift):
            # Behind the cursor but still inside the window (a peek
            # advanced the cursor while the engine idled at a window
            # horizon, then something scheduled sooner): rewind.  The
            # modular position is still unique, so just park the cursor
            # back on it; the old cursor bucket keeps its unconsumed
            # tail and is re-sorted when the cursor returns.
            del self._curbuf[: self._curpos]
            shift = self._shift
            idx = (t >> shift) & self._mask
            bucket = self._buckets[idx]
            bucket.append(item)
            bucket.sort()
            self._cur = idx
            self._curtime = (t >> shift) << shift
            self._curbuf = bucket
            self._curpos = 0
            return
        # More than a full day below the horizon (a shard import landed
        # far behind a long-idle window).  Rare: park it on the spine
        # and rebuild around the new minimum.
        heappush(self._spine, item)
        self._rebuild()

    def pop(self) -> Optional[Item]:
        # Drained slots are nulled so each event tuple is freed at pop,
        # exactly like heappop: retaining the consumed prefix until the
        # bucket empties keeps thousands of dead tuples (and their args)
        # alive mid-day, bloating the allocator's working set.
        buf = self._curbuf
        pos = self._curpos
        if pos >= len(buf):
            if not self._advance():
                return None
            buf = self._curbuf
            pos = 0
        self._curpos = pos + 1
        item = buf[pos]
        buf[pos] = None
        return item

    def pop_until(self, until_ns: int) -> Optional[Item]:
        """Fused deadline peek+pop: the head event if its time is
        ``<= until_ns`` (popping it), else None (leaving it).  This is
        the windowed (PDES shard) hot path — one bounds check and one
        list index per event instead of two method calls."""
        buf = self._curbuf
        pos = self._curpos
        if pos >= len(buf):
            if not self._advance():
                return None
            buf = self._curbuf
            pos = 0
        item = buf[pos]
        if item[0] > until_ns:
            return None
        self._curpos = pos + 1
        buf[pos] = None
        return item

    def peek_time(self) -> Optional[int]:
        pos = self._curpos
        if pos >= len(self._curbuf):
            if not self._advance():
                return None
            pos = 0
        return self._curbuf[pos][0]

    def next_live_time(self) -> Optional[int]:
        while True:
            pos = self._curpos
            buf = self._curbuf
            if pos >= len(buf):
                if not self._advance():
                    return None
                buf = self._curbuf
                pos = 0
            head = buf[pos]
            handle = head[2]
            if handle is not None and handle.cancelled:
                self._curpos = pos + 1
                buf[pos] = None
                continue
            return head[0]

    def shift_all(self, delta_ns: int) -> None:
        """Add ``delta_ns`` to every pending time: one rebuild over the
        shifted population, O(n) like the heap's tuple rewrite."""
        self._rebuild(shift_ns=delta_ns)

    def __len__(self) -> int:
        # No hot-path occupancy counter; the few callers (deadlock check
        # at run() exit, telemetry queue-depth samples, the oversized-day
        # check on an empty-lap jump) can afford the O(nbuckets) sum.
        n = len(self._spine) - self._curpos
        for bucket in self._buckets:
            n += len(bucket)
        return n

    def __iter__(self) -> Iterator[Item]:
        return iter(self._pending())

    # ------------------------------------------------------------------
    # Cold paths: cursor advance, window jump, resize
    # ------------------------------------------------------------------
    def _pending(self) -> List[Item]:
        """Every pending item, in unspecified order (a fresh list)."""
        items = self._curbuf[self._curpos:]
        cur = self._cur
        for i, bucket in enumerate(self._buckets):
            if i != cur and bucket:
                items.extend(bucket)
        items.extend(self._spine)
        return items

    def _advance(self) -> bool:
        """Move the cursor to the next non-empty bucket, sliding the
        placement horizon with it and draining the spine as the horizon
        crosses parked items.  Returns False when the queue is empty.
        Leaves a sorted current bucket with the cursor at its start."""
        buf = self._curbuf
        if buf:
            buf.clear()  # fully consumed: release the slot list
            self._curpos = 0
        buckets = self._buckets
        n = self._nbuckets
        width = self._width
        day = n * width
        spine = self._spine
        cur = self._cur
        curtime = self._curtime
        scanned = 0
        while True:
            if scanned >= n:
                # A full lap found nothing: the day is empty.  Jump the
                # window straight to the spine's head — a far-future
                # idle stretch costs one jump, not a bucket crawl — or,
                # with nothing left anywhere, reset the geometry and
                # report the queue empty.
                if not spine:
                    self._reset()
                    return False
                if 4 * len(spine) < n and n > MIN_BUCKETS:
                    # The day is grossly oversized for what is left in
                    # it (every future pop would pay a full empty lap):
                    # shrink around the spine minimum instead.
                    self._cur = cur
                    self._curtime = curtime
                    self._limit = curtime + day
                    self._rebuild()
                    if self._curbuf:
                        return True
                    buckets = self._buckets
                    n = self._nbuckets
                    width = self._width
                    day = n * width
                    spine = self._spine
                    cur = self._cur
                    curtime = self._curtime
                    scanned = 0
                    continue
                t0 = spine[0][0]
                curtime = t0 - t0 % width
                limit = curtime + day
                cur = (t0 // width) % n
                while spine and spine[0][0] < limit:
                    it = heappop(spine)
                    buckets[(it[0] // width) % n].append(it)
                self.day_rolls += 1
                bucket = buckets[cur]  # the head landed here
                bucket.sort()
                self._cur = cur
                self._curtime = curtime
                self._limit = limit
                self._curbuf = bucket
                self._curpos = 0
                return True
            cur += 1
            if cur == n:
                cur = 0
            curtime += width
            limit = curtime + day
            if spine and spine[0][0] < limit:
                while spine and spine[0][0] < limit:
                    it = heappop(spine)
                    buckets[(it[0] // width) % n].append(it)
                # A drained item lands in-day but its *modular* slot may
                # sit behind the cursor (near the end of the sliding
                # day wraps around), i.e. in a bucket this lap already
                # scanned.  Restart the lap count so the scan revisits
                # every slot before concluding the day is empty.
                scanned = 0
            bucket = buckets[cur]
            if bucket:
                bucket.sort()
                self._cur = cur
                self._curtime = curtime
                self._limit = limit
                self._curbuf = bucket
                self._curpos = 0
                return True
            scanned += 1

    def _reset(self) -> None:
        """Default geometry around an empty day at time 0 (the queue
        holds nothing)."""
        self._width = DEFAULT_WIDTH_NS
        self._shift = DEFAULT_WIDTH_NS.bit_length() - 1
        self._mask = MIN_BUCKETS - 1
        self._nbuckets = MIN_BUCKETS
        self._buckets: List[List[Item]] = [[] for _ in range(MIN_BUCKETS)]
        self._cur = 0
        self._curtime = 0  # lap start of the cursor bucket
        self._limit = MIN_BUCKETS * DEFAULT_WIDTH_NS  # placement horizon
        self._curbuf = self._buckets[0]
        self._curpos = 0
        self._spine_cap = SPINE_CAP
        self._churn_cap = CHURN_CAP

    def _rebuild(self, spread: bool = False, shift_ns: int = 0) -> None:
        """Resize the day to the live population and recalibrate the
        bucket width from the pending time distribution, adding
        ``shift_ns`` to every pending time on the way.  ``spread`` (the
        deep-insert churn trigger) additionally forces the bucket count
        high enough that the *average* occupancy lands near
        ``TARGET_OCC``, so a dense uniformly-distributed population
        stops collapsing into one wide bucket with O(bucket) inserts."""
        items = self._pending()
        if shift_ns:
            items = [(it[0] + shift_ns,) + it[1:] for it in items]
        # Cancelled-handle events are kept: the heap keeps them too
        # (lazy cancellation), and shedding here would let ``len`` and
        # ``peek_time`` diverge between the queues — observable via the
        # deadlock check and the deadline clamp in ``run()``.
        self.resizes += 1
        self._churn = 0
        count = len(items)
        if count == 0:
            self._reset()
            return
        old_nbuckets = self._nbuckets
        # Bucket count ~ 2*sqrt(population): laps and per-bucket
        # occupancy both stay modest, and a 4096-at-one-timestamp burst
        # costs nothing extra (it is one fat sorted bucket either way).
        nbuckets = MIN_BUCKETS
        while nbuckets * nbuckets < 4 * count and nbuckets < MAX_BUCKETS:
            nbuckets <<= 1
        # Hysteresis: shrink only past a 4x dead band, so a population
        # hovering near a threshold doesn't thrash grow/shrink rebuilds.
        if nbuckets < old_nbuckets and 4 * nbuckets > old_nbuckets:
            nbuckets = old_nbuckets
        if spread:
            # Deep-insert churn: the population is dense *and*
            # distributed, so sqrt sizing leaves hundreds of spread-out
            # items per bucket and every mid-bucket insert memmoves the
            # tail.  Size for ~TARGET_OCC items per bucket instead; the
            # width calibration below then subdivides the same span that
            # was collapsing into one bucket.
            want = 2 * count // TARGET_OCC
            while nbuckets < want and nbuckets < MAX_BUCKETS:
                nbuckets <<= 1
        times = sorted(it[0] for it in items)
        width = _calibrate_width(times, nbuckets, self._width)
        t0 = times[0]
        curtime = t0 - t0 % width
        limit = curtime + nbuckets * width
        buckets: List[List[Item]] = [[] for _ in range(nbuckets)]
        spine: List[Item] = []
        for it in items:
            if it[0] < limit:
                buckets[(it[0] // width) % nbuckets].append(it)
            else:
                spine.append(it)
        heapify(spine)
        self._width = width
        self._shift = width.bit_length() - 1
        self._mask = nbuckets - 1
        self._nbuckets = nbuckets
        self._curtime = curtime
        self._limit = limit
        self._buckets = buckets
        self._spine = spine
        self._spine_cap = max(SPINE_CAP, 2 * len(spine))
        # A spread rebuild that recurs means the churn is one the width
        # cannot fix (a population dense at a few instants, as in a
        # checkpoint storm): wait out as many deep inserts as the rebuild
        # just cost before paying for another.
        self._churn_cap = max(CHURN_CAP, count) if spread else CHURN_CAP
        # The minimum item lands in the cursor bucket by construction.
        cur = (t0 // width) % nbuckets
        bucket0 = buckets[cur]
        bucket0.sort()
        self._cur = cur
        self._curbuf = bucket0
        self._curpos = 0


def _calibrate_width(times: List[int], nbuckets: int, fallback: int) -> int:
    """Bucket width so the day spans ~2x the 99th percentile of pending
    times.  The pending span is a proxy for the *reschedule horizon*
    (each drained compute sleep immediately schedules its successor one
    period ahead), so the headroom keeps steady-state reschedules
    in-day even as the window slides.  The 99th percentile (not the
    max) still leaves genuinely far-future outliers (MTBF-scale failure
    arrivals, horizon caps) to the overflow spine rather than
    stretching every bucket."""
    span = times[(99 * (len(times) - 1)) // 100] - times[0]
    if span <= 0:
        # Degenerate pending set (all times effectively identical):
        # width cannot subdivide it, keep the current one.
        return fallback
    width = max(1, (2 * span) // nbuckets + 1)
    # Round up to a power of two: the hot paths then replace the
    # bucket-index divide/modulo with a shift and mask.
    return 1 << (width - 1).bit_length()


def make_event_queue(
    nranks: Optional[int] = None,
) -> Union[HeapEventQueue, CalendarEventQueue]:
    """The event queue for a world executing ``nranks`` ranks: the heap
    below :data:`CALENDAR_MIN_RANKS`, the calendar queue at or above it
    (and without a rank count)."""
    if nranks is not None and nranks < CALENDAR_MIN_RANKS:
        return HeapEventQueue()
    return CalendarEventQueue()
