"""Discrete-event engine with integer-nanosecond virtual time.

Design notes
------------
* The pending-event set holds ``(time_ns, seq, handle, fn, args)`` tuples
  where ``seq`` is a global monotone counter assigned at scheduling time.
  Two events at the same virtual time therefore fire in scheduling order,
  making whole executions reproducible byte-for-byte.  The container is
  one of the :mod:`repro.sim.eventq` queues, picked once from the number
  of ranks the engine executes — the binary heap for small worlds, a
  calendar queue for deep ones — both draining in identical
  ``(time_ns, seq)`` order.
* Blocking is expressed with :class:`Trigger` objects.  A process
  generator yields a trigger and is resumed with ``trigger.value`` once it
  fires.  Triggers are single-fire.  ``AnyOf``/``AllOf`` compose them.
* The engine deliberately knows nothing about MPI or protocols; it only
  schedules callables and wakes trigger waiters.

Fast paths (profiled on the Tier-1 workloads, see
``tools/profile_hotpath.py`` and ``docs/performance.md``):

* :meth:`Engine.schedule_fast` / :meth:`Engine.schedule_at_fast` skip the
  :class:`EventHandle` allocation for the ~90% of events that are never
  cancelled (process resumes, send completions, timer fires).
* :meth:`Engine.timeout_pooled` recycles timeout triggers through a free
  list, so the hottest pattern in every workload — a virtual sleep per
  compute phase — allocates nothing in steady state.  Pooled triggers are
  engine-internal: they must be waited on before they fire and must not
  be composed or stored (the public :meth:`Engine.timeout` keeps the
  allocate-per-call semantics for arbitrary composition).
* The :meth:`Engine.run` loop binds its hot locals and pops directly in
  the common no-deadline case.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.obs import NULL_TELEMETRY
from repro.sim.eventq import make_event_queue


class SimError(RuntimeError):
    """Base class for simulator errors."""


class DeadlockError(SimError):
    """Raised when ``run()`` exhausts events while processes still block.

    A drained event queue with live blocked processes means no future event
    can ever wake them: the simulated program has deadlocked.
    """


@contextmanager
def sim_gc(nranks: int) -> Iterator[None]:
    """Size ``gc``'s young generation to a simulation's in-flight objects.

    An in-flight message, request or queued event lives until thousands
    of *other ranks'* events have run, so at CPython's default
    generation-0 threshold (700 allocations) it survives both young
    generations and nearly every event promotes an object, forcing old-
    generation and full collections over the whole heap although a run
    creates almost no cyclic garbage (37 % of wall at 4096 ranks, 78 %
    at 16384).  The in-flight population is O(1) objects per rank; 16
    per rank is the largest measured multiplier that does not also
    delay the collection of dropped worlds (docs/performance.md, "Why
    per-event cost grew with rank count").

    Process-global state under stack discipline: the scope only ever
    raises generation 0, leaves a caller's larger threshold and a
    caller's ``gc.disable()`` alone, and restores exactly the thresholds
    it found — so nested scopes and two live worlds are safe.
    """
    found = gc.get_threshold()
    young = 16 * nranks
    if 0 < found[0] < young:  # 0 = collection switched off by the caller
        gc.set_threshold(young, *found[1:])
    try:
        yield
    finally:
        gc.set_threshold(*found)


class EventHandle:
    """Cancelable handle for a scheduled event."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True


class Engine:
    """The virtual clock and event queue."""

    __slots__ = (
        "now",
        "_eq",
        "_push",
        "_seq",
        "_running",
        "_stopped",
        "_timeout_pool",
        "events_executed",
        "compute_sleepers",
        "processes",
        "telemetry",
    )

    def __init__(self, nranks: int = 0) -> None:
        self.now: int = 0
        # Pending-event set (repro.sim.eventq), sized by the ranks this
        # engine executes; _push is the bound insert method, cached
        # because every scheduling path goes through it.
        self._eq = make_event_queue(nranks)
        self._push = self._eq.push
        self._seq: int = 0
        self._running = False
        self._stopped = False
        # Free list of recycled timeout triggers (see timeout_pooled).
        self._timeout_pool: List["_Timeout"] = []
        # Cumulative events executed across run() calls (simperf metric).
        self.events_executed: int = 0
        # Processes currently blocked in a *compute* sleep (maintained by
        # the process driver; lets the warp detector gate its O(n)
        # quiescence probe on an O(1) check).
        self.compute_sleepers: int = 0
        # Processes register here so run() can detect deadlock; the engine
        # treats them opaquely (anything with .is_blocked and .name).
        self.processes: List[Any] = []
        # Telemetry sink (repro.obs): the storage/resource layers reach
        # it through the engine they are already bound to.  The null
        # object keeps the disabled path to one attribute load + branch.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay_ns: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise ValueError(f"negative delay {delay_ns}")
        handle = EventHandle()
        self._seq += 1
        self._push((self.now + delay_ns, self._seq, handle, fn, args))
        return handle

    def schedule_fast(
        self, delay_ns: int, fn: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule` but without a cancellation handle.

        For the hot internal call sites that never cancel their events
        (process resumes, timer fires, send completions): one tuple push,
        no :class:`EventHandle` allocation."""
        if delay_ns < 0:
            raise ValueError(f"negative delay {delay_ns}")
        self._seq += 1
        self._push((self.now + delay_ns, self._seq, None, fn, args))

    def schedule_at(
        self, time_ns: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now})")
        return self.schedule(time_ns - self.now, fn, *args)

    def schedule_at_fast(
        self, time_ns: int, fn: Callable[..., None], *args: Any
    ) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now})")
        self._seq += 1
        self._push((time_ns, self._seq, None, fn, args))

    def timeout(self, delay_ns: int) -> "Trigger":
        """A trigger that fires ``delay_ns`` from now (virtual sleep).

        Allocates a fresh trigger every call; safe to compose (AnyOf /
        AllOf) or inspect after the run.  Hot internal sleeps use
        :meth:`timeout_pooled` instead."""
        trig = Trigger()
        self.schedule_fast(delay_ns, trig.fire, None)
        return trig

    def timeout_pooled(self, delay_ns: int) -> "Trigger":
        """A free-listed virtual sleep for the hottest path.

        The returned trigger is recycled into the engine's pool the
        moment it fires, so steady-state sleeping allocates nothing.
        Contract (engine-internal): the caller must register its waiter
        before the deadline (in practice: yield it in the same event that
        created it) and must not compose it into AnyOf/AllOf or read it
        after it fired."""
        if delay_ns < 0:
            # Validate before touching the pool so a raise cannot strand a
            # reset trigger outside the free list.
            raise ValueError(f"negative delay {delay_ns}")
        pool = self._timeout_pool
        if pool:
            trig = pool.pop()
            trig.fired = False
            trig.value = None
        else:
            trig = _Timeout(pool)
        self._seq += 1
        self._push((self.now + delay_ns, self._seq, None, trig.fire, ()))
        return trig

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        until_ns: Optional[int] = None,
        detect_deadlock: bool = True,
    ) -> int:
        """Run events until the queue drains (or ``until_ns`` / ``stop()``).

        Returns the number of events executed.  When the queue drains while
        registered processes are still blocked and ``detect_deadlock`` is
        set, raises :class:`DeadlockError` naming the stuck processes.
        """
        if self._running:
            raise SimError("engine.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        eq = self._eq
        pop = eq.pop
        try:
            if until_ns is None:
                # Hot loop: no deadline — the common case for full-run
                # simulations.
                while True:
                    if self._stopped:
                        break
                    item = pop()
                    if item is None:
                        break
                    time_ns, _seq, handle, fn, args = item
                    if handle is not None and handle.cancelled:
                        continue
                    self.now = time_ns
                    fn(*args)
                    executed += 1
            else:
                # Deadline loop (the windowed PDES shard hot path): a
                # fused peek+pop keeps it at one queue call per event.
                pop_until = eq.pop_until
                while True:
                    if self._stopped:
                        break
                    item = pop_until(until_ns)
                    if item is None:
                        if eq.peek_time() is not None:
                            self.now = until_ns
                        break
                    time_ns, _seq, handle, fn, args = item
                    if handle is not None and handle.cancelled:
                        continue
                    self.now = time_ns
                    fn(*args)
                    executed += 1
        finally:
            self._running = False
            self.events_executed += executed
        if detect_deadlock and not self._stopped and not len(self._eq):
            stuck = [p for p in self.processes if getattr(p, "is_blocked", False)]
            if stuck:
                names = ", ".join(str(getattr(p, "name", p)) for p in stuck[:8])
                raise DeadlockError(
                    f"event queue drained with {len(stuck)} blocked process(es): {names}"
                )
        return executed

    def stop(self) -> None:
        """Stop ``run()`` after the current event returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return len(self._eq)

    def next_event_time(self) -> Optional[int]:
        """Virtual time of the earliest live pending event, or ``None``.

        Discards cancelled handles at the queue head so the answer is
        exact — the lower bound the conservative shard coordinator
        (:mod:`repro.harness.parallel`) builds its safe horizon from."""
        return self._eq.next_live_time()

    def iter_pending(self) -> Iterator[tuple]:
        """Iterate the pending ``(time_ns, seq, handle, fn, args)`` tuples
        in unspecified order (cancelled events may still appear).  The
        warp detector's quiescence probe reads the queue through this."""
        return iter(self._eq)

    # ------------------------------------------------------------------
    # Warp support (see repro.sim.warp): shift every pending event and
    # the clock by a constant.  Adding the same delta to every key
    # preserves all same-time sequencing exactly; either queue does it
    # in O(pending).
    # ------------------------------------------------------------------
    def shift_pending(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError(f"negative warp shift {delta_ns}")
        self._eq.shift_all(delta_ns)
        self.now += delta_ns


class Trigger:
    """A single-fire wakeup condition.

    A waiter is anything with a ``_trigger_fired(trigger)`` method (the
    process driver and composite triggers implement it).  ``fire`` may be
    called before any waiter registers; late waiters observe ``fired`` and
    do not block.

    Waiters are kept in an insertion-ordered dict keyed by identity, so
    wake order stays deterministic while ``discard_waiter`` is O(1)
    (the old list-based removal was an O(n) scan on every wait
    cancellation — hot under waitany-style composites).
    """

    __slots__ = ("fired", "value", "_waiters", "name")

    #: True only for virtual-sleep wakeups (pooled timeouts / sleep
    #: markers); is_compute further marks application compute phases —
    #: the warp detector keys on both.
    is_sleep = False
    is_compute = False

    def __init__(self, name: str = "") -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: Dict[int, Any] = {}
        self.name = name

    def fire(self, value: Any = None) -> None:
        """Fire the trigger, waking all registered waiters exactly once."""
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = {}
            for w in waiters.values():
                w._trigger_fired(self)

    def add_waiter(self, waiter: Any) -> None:
        if self.fired:
            waiter._trigger_fired(self)
        else:
            self._waiters[id(waiter)] = waiter

    def discard_waiter(self, waiter: Any) -> None:
        self._waiters.pop(id(waiter), None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<Trigger {self.name or id(self):x} {state}>"


class _Timeout(Trigger):
    """A pooled virtual-sleep trigger (see Engine.timeout_pooled).

    Returns itself to the engine's free list as soon as it fires; by the
    pooled-timeout contract every waiter registered before the deadline
    and read ``value`` synchronously inside ``fire``, so nothing can
    observe the recycled object afterwards.
    """

    __slots__ = ("_pool",)

    is_sleep = True

    def __init__(self, pool: List["_Timeout"]) -> None:
        super().__init__()
        self._pool = pool

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = {}
            for w in waiters.values():
                w._trigger_fired(self)
        self._pool.append(self)


class AnyOf(Trigger):
    """Fires when any child trigger fires; value = (index, child_value)."""

    __slots__ = ("children", "_index")

    def __init__(self, children: Iterable[Trigger]) -> None:
        super().__init__(name="any")
        self.children = list(children)
        if not self.children:
            raise ValueError("AnyOf requires at least one child")
        # Precomputed identity -> position map: _trigger_fired used to
        # call children.index(child), an O(n) scan per completion that
        # dominated waitany-heavy workloads.
        self._index = {id(c): i for i, c in enumerate(self.children)}
        for child in self.children:
            child.add_waiter(self)

    def _trigger_fired(self, child: Trigger) -> None:
        if self.fired:
            return
        idx = self._index[id(child)]
        for other in self.children:
            if other is not child:
                other.discard_waiter(self)
        self.fire((idx, child.value))


class AllOf(Trigger):
    """Fires when every child trigger has fired; value = list of values."""

    __slots__ = ("children", "_remaining")

    def __init__(self, children: Iterable[Trigger]) -> None:
        super().__init__(name="all")
        self.children = list(children)
        self._remaining = 0
        if not self.children:
            raise ValueError("AllOf requires at least one child")
        # Count first, then register: a child firing synchronously during
        # registration must not complete the composite early.
        self._remaining = sum(1 for c in self.children if not c.fired)
        if self._remaining == 0:
            self.fire([c.value for c in self.children])
            return
        for child in self.children:
            if not child.fired:
                child.add_waiter(self)

    def _trigger_fired(self, child: Trigger) -> None:
        if self.fired:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.fire([c.value for c in self.children])
