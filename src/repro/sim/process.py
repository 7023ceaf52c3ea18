"""Cooperatively-scheduled simulated processes.

A simulated process wraps a Python generator.  The generator yields
:class:`~repro.sim.engine.Trigger` objects when it blocks (e.g. inside
``MPI_Wait``) and is resumed with the trigger's value.  Blocking library
calls are written as sub-generators and invoked with ``yield from``.

Processes can be killed (for failure injection) and replaced by a fresh
incarnation (for rollback-recovery); the driver tracks an incarnation
number so stale wakeups from a previous life are ignored.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Engine, SimError, Trigger


class SleepMarker:
    """A zero-allocation virtual sleep.

    The hottest blocking pattern — ``compute``/CPU-debt sleeps — used to
    cost a pooled trigger plus two engine events (the trigger fire and
    the scheduled resume).  Yielding a marker instead lets the driver
    schedule the wake-up directly: one event, no trigger, and the marker
    itself is a per-runtime singleton mutated in place (safe because a
    rank has at most one sleep outstanding — it is blocked on it; each
    runtime keeps two, one per ``is_compute`` kind, so no per-call flag
    writes are needed).

    ``is_sleep``/``discard_waiter`` make it duck-compatible with the
    trigger interface where the driver and the warp detector probe it.
    ``is_compute`` distinguishes an application compute phase from a
    CPU-debt flush inside a blocking call: the warp detector only treats
    ranks parked in *compute* sleeps as being at an iteration's
    fast-forwardable point.
    """

    __slots__ = ("delay_ns", "is_compute")

    is_sleep = True
    fired = False

    def __init__(self, is_compute: bool = False) -> None:
        self.delay_ns = 0
        self.is_compute = is_compute

    def discard_waiter(self, waiter: Any) -> None:  # trigger-compatible
        pass


class DebtWait:
    """Fused 'flush CPU debt, then wait on a trigger' blocking primitive.

    The dominant blocking pattern after a send is a tiny CPU-debt sleep
    (the protocol's per-send overhead) followed by a wait on the receive
    trigger — two wake-ups per exchange.  Yielding a DebtWait instead
    registers the gate on the trigger immediately and resumes the
    process at ``max(deadline, fire time)``:

    * fire at/after the deadline (the common case — the debt is tens of
      nanoseconds, the message flight much longer): resume inline at the
      fire, zero extra events;
    * fire before the deadline: one event delays the resume to the
      deadline, exactly when the old debt sleep would have woken.

    One gate per runtime is reused (a rank has at most one outstanding);
    the driver fills ``proc`` when the gate is yielded.
    """

    __slots__ = ("proc", "deadline_ns", "trigger")

    is_sleep = False
    is_compute = False
    fired = False

    def __init__(self) -> None:
        self.proc: Optional["SimProcess"] = None
        self.deadline_ns = 0
        self.trigger: Optional[Trigger] = None

    def _trigger_fired(self, trigger: Trigger) -> None:
        proc = self.proc
        if proc is None or proc._waiting_on is not self:
            return
        engine = proc.engine
        now = engine.now
        if now >= self.deadline_ns:
            self._resume(proc)
        else:
            engine.schedule_fast(self.deadline_ns - now, self._resume, proc)

    def _resume(self, proc: "SimProcess") -> None:
        # Staleness guard by process *identity*, not incarnation number:
        # a crash clears self.proc, and a restarted rank re-blocking on
        # the reused gate is a brand-new SimProcess object (incarnation
        # counters restart at 0 across incarnations, so comparing them
        # across objects would let a pre-crash deadline event wake the
        # new wait early).
        if proc is not self.proc or proc._waiting_on is not self:
            return
        self.proc = None
        proc._waiting_on = None
        proc.status = _RUNNING
        proc._advance(None)

    def discard_waiter(self, waiter: Any) -> None:
        """Kill path: unhook from the underlying trigger."""
        if self.trigger is not None:
            self.trigger.discard_waiter(self)
        self.proc = None


class ProcessKilled(Exception):
    """Injected into a generator when its process is killed."""


class ProcessStatus(enum.Enum):
    CREATED = "created"
    RUNNING = "running"  # scheduled or executing
    BLOCKED = "blocked"  # waiting on a trigger
    DONE = "done"
    FAILED = "failed"  # generator raised
    KILLED = "killed"  # failure injection


#: Module-level aliases: enum member lookups on the class are a dict
#: access per comparison, and these run several times per engine event.
_CREATED = ProcessStatus.CREATED
_RUNNING = ProcessStatus.RUNNING
_BLOCKED = ProcessStatus.BLOCKED
_EXITED = (ProcessStatus.DONE, ProcessStatus.FAILED)


class SimProcess:
    """Drives one rank's generator on the engine."""

    __slots__ = (
        "engine",
        "name",
        "_gen",
        "_gen_send",
        "status",
        "result",
        "exception",
        "_exit_trigger",
        "on_exit",
        "start_time",
        "finish_time",
        "incarnation",
        "_waiting_on",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        gen: Generator[Trigger, Any, Any],
        on_exit: Optional[Callable[["SimProcess"], None]] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self._gen = gen
        self._gen_send = gen.send  # pre-bound: one resume per engine event
        self.status = ProcessStatus.CREATED
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._exit_trigger: Optional[Trigger] = None  # see exit_trigger
        self.on_exit = on_exit
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.incarnation = 0
        self._waiting_on: Optional[Trigger] = None
        engine.processes.append(self)

    # ------------------------------------------------------------------
    @property
    def exit_trigger(self) -> Trigger:
        """Fires with the result when the process ends ``DONE`` or
        ``FAILED`` (a killed process did not exit).  Created on first
        access — almost no process is ever waited on — and fired at
        once when that access comes after the exit."""
        trigger = self._exit_trigger
        if trigger is None:
            trigger = self._exit_trigger = Trigger(name=f"{self.name}.exit")
            if self.status in _EXITED:
                trigger.fire(self.result)
        return trigger

    @property
    def is_blocked(self) -> bool:
        return self.status is _BLOCKED

    @property
    def is_live(self) -> bool:
        return self.status in (
            ProcessStatus.CREATED,
            ProcessStatus.RUNNING,
            ProcessStatus.BLOCKED,
        )

    def start(self, delay_ns: int = 0) -> None:
        if self.status is not ProcessStatus.CREATED:
            raise SimError(f"{self.name}: start() on {self.status}")
        self.status = ProcessStatus.RUNNING
        inc = self.incarnation
        self.engine.schedule_fast(delay_ns, self._first_step, inc)

    def _first_step(self, inc: int) -> None:
        if inc != self.incarnation or not self.is_live:
            return
        self.start_time = self.engine.now
        self._advance(None)

    # ------------------------------------------------------------------
    def _trigger_fired(self, trigger: Trigger) -> None:
        """Trigger waiter interface: resume the generator in place.

        The resume used to be bounced through a zero-delay engine event;
        running it synchronously inside the trigger's fire saves roughly
        a quarter of all engine events on message-heavy workloads.  Same
        virtual time either way — only the intra-timestamp interleaving
        can move, which the golden pins and the committed benchmark
        JSONs bound (see docs/performance.md for the one sub-ppm shift
        this produced, in fig6's HydEE baseline column)."""
        if self.status is not _BLOCKED or trigger is not self._waiting_on:
            return
        self._waiting_on = None
        self.status = _RUNNING
        self._advance(trigger.value)

    def _resume(self, inc: int, value: Any) -> None:
        if inc != self.incarnation or self.status is not _RUNNING:
            return
        self._advance(value)

    def _wake_sleep(self, inc: int) -> None:
        """Resume from a SleepMarker sleep (the single wake-up event)."""
        if inc != self.incarnation or self.status is not _BLOCKED:
            return
        if self._waiting_on.is_compute:
            self.engine.compute_sleepers -= 1
        self._waiting_on = None
        self.status = _RUNNING
        self._advance(None)

    def _advance(self, send_value: Any) -> None:
        try:
            yielded = self._gen_send(send_value)
        except StopIteration as stop:
            self._finish(ProcessStatus.DONE, result=stop.value)
            return
        except ProcessKilled:
            self._finish(ProcessStatus.KILLED)
            return
        except BaseException as exc:  # noqa: BLE001 - report app failures
            self.exception = exc
            self._finish(ProcessStatus.FAILED)
            return
        cls = yielded.__class__
        if cls is SleepMarker:
            # Virtual sleep fast path: one scheduled wake-up, no trigger.
            self.status = _BLOCKED
            self._waiting_on = yielded
            engine = self.engine
            if yielded.is_compute:
                engine.compute_sleepers += 1
            engine.schedule_fast(
                yielded.delay_ns, self._wake_sleep, self.incarnation
            )
            return
        if cls is DebtWait:
            self.status = _BLOCKED
            self._waiting_on = yielded
            yielded.proc = self
            yielded.trigger.add_waiter(yielded)
            return
        if not isinstance(yielded, Trigger):
            self.exception = SimError(
                f"{self.name} yielded {type(yielded).__name__}, expected Trigger"
            )
            self._finish(ProcessStatus.FAILED)
            return
        self.status = _BLOCKED
        self._waiting_on = yielded
        yielded.add_waiter(self)

    def _finish(self, status: ProcessStatus, result: Any = None) -> None:
        self.status = status
        self.result = result
        self.finish_time = self.engine.now
        self._waiting_on = None
        if self._exit_trigger is not None and status in _EXITED:
            self._exit_trigger.fire(result)
        if self.on_exit is not None:
            self.on_exit(self)

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Kill the process (failure injection).

        The generator receives :class:`ProcessKilled` so its ``finally``
        blocks run; any pending wakeups for this incarnation are ignored.
        """
        if not self.is_live:
            return
        self.incarnation += 1  # invalidate in-flight resumes
        if self._waiting_on is not None:
            if self._waiting_on.is_compute:
                # The stale wake event no-ops on the bumped incarnation,
                # so release the sleeper slot here.
                self.engine.compute_sleepers -= 1
            self._waiting_on.discard_waiter(self)
            self._waiting_on = None
        try:
            self._gen.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        except BaseException as exc:  # noqa: BLE001
            self.exception = exc
        self.status = ProcessStatus.KILLED
        self.finish_time = self.engine.now
        # Intentionally do NOT fire exit_trigger: a killed process did not
        # exit; recovery machinery replaces it with a new incarnation.
        if self.on_exit is not None:
            self.on_exit(self)
