"""Unit tests for the discrete-event engine and triggers."""

import gc

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    DeadlockError,
    Engine,
    SimError,
    Trigger,
    sim_gc,
)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(30, order.append, "c")
    eng.schedule(10, order.append, "a")
    eng.schedule(20, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 30


def test_same_time_events_fire_in_scheduling_order():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(5, order.append, i)
    eng.run()
    assert order == list(range(10))


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at(5, lambda: None)


def test_cancel_prevents_execution():
    eng = Engine()
    fired = []
    h = eng.schedule(10, fired.append, 1)
    eng.schedule(5, h.cancel)
    eng.run()
    assert fired == []


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, 1)
    eng.schedule(100, fired.append, 2)
    eng.run(until_ns=50)
    assert fired == [1]
    assert eng.now == 50
    eng.run()
    assert fired == [1, 2]


def test_stop_halts_run():
    eng = Engine()
    fired = []
    eng.schedule(1, fired.append, 1)
    eng.schedule(2, eng.stop)
    eng.schedule(3, fired.append, 2)
    eng.run()
    assert fired == [1]


def test_nested_run_rejected():
    eng = Engine()

    def inner():
        eng.run()

    eng.schedule(1, inner)
    with pytest.raises(SimError):
        eng.run()


def test_events_scheduled_during_run_execute():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(5, order.append, "nested")

    eng.schedule(10, first)
    eng.run()
    assert order == ["first", "nested"]
    assert eng.now == 15


class _Waiter:
    def __init__(self):
        self.woken = []

    def _trigger_fired(self, trig):
        self.woken.append(trig.value)


def test_trigger_single_fire():
    t = Trigger()
    w = _Waiter()
    t.add_waiter(w)
    t.fire(42)
    t.fire(43)  # ignored
    assert w.woken == [42]
    assert t.value == 42


def test_trigger_late_waiter_wakes_immediately():
    t = Trigger()
    t.fire("v")
    w = _Waiter()
    t.add_waiter(w)
    assert w.woken == ["v"]


def test_anyof_fires_on_first_child():
    a, b = Trigger(), Trigger()
    comp = AnyOf([a, b])
    w = _Waiter()
    comp.add_waiter(w)
    b.fire("bee")
    assert w.woken == [(1, "bee")]
    a.fire("late")  # must not re-fire the composite
    assert w.woken == [(1, "bee")]


def test_anyof_with_prefired_child():
    a = Trigger()
    a.fire(7)
    comp = AnyOf([a, Trigger()])
    assert comp.fired and comp.value == (0, 7)


def test_allof_waits_for_every_child():
    a, b, c = Trigger(), Trigger(), Trigger()
    comp = AllOf([a, b, c])
    w = _Waiter()
    comp.add_waiter(w)
    a.fire(1)
    b.fire(2)
    assert w.woken == []
    c.fire(3)
    assert w.woken == [[1, 2, 3]]


def test_allof_all_prefired():
    a, b = Trigger(), Trigger()
    a.fire(1)
    b.fire(2)
    comp = AllOf([a, b])
    assert comp.fired and comp.value == [1, 2]


def test_empty_composites_rejected():
    with pytest.raises(ValueError):
        AnyOf([])
    with pytest.raises(ValueError):
        AllOf([])


def test_timeout_trigger_fires_at_deadline():
    eng = Engine()
    t = eng.timeout(25)
    eng.run()
    assert t.fired
    assert eng.now == 25


def test_deadlock_detection_reports_blocked_process():
    from repro.sim.process import SimProcess

    eng = Engine()

    def app():
        yield Trigger(name="never")

    SimProcess(eng, "stuck", app()).start()
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run()


# ----------------------------------------------------------------------
# sim_gc: the scoped young-generation policy (process-global state, so
# every test restores what it changed)
# ----------------------------------------------------------------------
@pytest.fixture
def gc_state():
    """Pin a known collector state for the test and put the real one back."""
    found, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.enable()
    gc.set_threshold(700, 10, 10)
    yield
    gc.set_threshold(*found)
    (gc.enable if was_enabled else gc.disable)()


def _world_seeing_threshold(nranks, seen, stuck=False):
    """A world whose first event records the thresholds in force."""
    from repro.mpi.runtime import World

    world = World(nranks, ranks_per_node=4, trace=False)
    world.engine.schedule(1, lambda: seen.append(gc.get_threshold()))
    if stuck:
        from repro.sim.process import SimProcess

        def app():
            yield Trigger(name="never")

        SimProcess(world.engine, "stuck", app()).start()
    return world


def test_sim_gc_raises_generation0_inside_and_restores(gc_state):
    with sim_gc(100):
        assert gc.get_threshold() == (1600, 10, 10)
        with sim_gc(1000):  # nested: inner restores the outer's value
            assert gc.get_threshold() == (16000, 10, 10)
        assert gc.get_threshold() == (1600, 10, 10)
        with sim_gc(10):  # never lowers
            assert gc.get_threshold() == (1600, 10, 10)
    assert gc.get_threshold() == (700, 10, 10)


def test_world_run_scopes_the_policy(gc_state):
    seen = []
    world = _world_seeing_threshold(64, seen)
    assert gc.get_threshold() == (700, 10, 10)  # construction restored it
    world.run()
    assert seen == [(1024, 10, 10)]
    assert gc.get_threshold() == (700, 10, 10)


def test_world_run_restores_after_deadlock(gc_state):
    seen = []
    world = _world_seeing_threshold(64, seen, stuck=True)
    with pytest.raises(DeadlockError, match="stuck"):
        world.run()
    assert seen == [(1024, 10, 10)]
    assert gc.get_threshold() == (700, 10, 10)


def test_sim_gc_leaves_a_callers_policy_as_found(gc_state):
    seen = []
    gc.set_threshold(50_000, 20, 30)  # larger than 16 * nranks
    _world_seeing_threshold(64, seen).run()
    assert seen == [(50_000, 20, 30)]
    assert gc.get_threshold() == (50_000, 20, 30)

    gc.disable()
    gc.set_threshold(0)  # the other spelling of "off"
    _world_seeing_threshold(64, seen).run()
    assert seen[-1][0] == 0
    assert not gc.isenabled() and gc.get_threshold()[0] == 0


def test_simulated_timeline_independent_of_collection_timing(gc_state):
    """Nothing simulated may hang off ``__del__``/weakref callbacks: the
    same run with the collector enabled and with it disabled by the
    caller is observable-equal."""
    from repro.apps.synthetic import ring_app
    from repro.core.clusters import ClusterMap
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_spbc
    from repro.journal.recorder import commit_history_of

    def observe():
        cm = ClusterMap.block(64, 8)
        res = run_spbc(
            ring_app(iters=6, msg_bytes=2048, compute_ns=50_000), 64, cm,
            config=SPBCConfig(clusters=cm, checkpoint_every=2, state_nbytes=4096),
            storage="tiered:ram@1,pfs@2", trace=False,
        )
        net = res.world.network
        return (
            res.makespan_ns, res.finish_ns, res.results,
            res.hooks.total_bytes_logged(), commit_history_of(res.hooks),
            res.world.engine.events_executed, net.packets_sent, net.bytes_sent,
            list(net.chan_state_items()),
        )

    with_gc = observe()
    gc.disable()
    assert observe() == with_gc
