"""Processor-sharing bandwidth resources: the I/O scheduler's core.

The properties the storage layer leans on:

* N equal flows on a shared resource finish together at ~N x one flow's
  solo time (fair sharing);
* a flow completing mid-way speeds up the survivors immediately;
* cancellation refunds no virtual time (no time travel) — survivors
  only accelerate from the cancellation instant;
* the resource is work-conserving: flows admitted together drain their
  total bytes at exactly the aggregate bandwidth.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import resources
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource

BW = 1_000_000_000.0  # 1 GB/s -> 1 byte/ns: sizes read directly as ns


def run_flows(sizes, shared=True, bandwidth=BW, latency_ns=0):
    engine = Engine()
    res = BandwidthResource(engine, "test", bandwidth, shared=shared)
    flows = [res.start_flow(n, latency_ns=latency_ns) for n in sizes]
    engine.run()
    return engine, res, flows


def test_single_flow_runs_at_full_bandwidth():
    _e, _r, (f,) = run_flows([1_000_000])
    assert f.end_ns == 1_000_000  # 1 MB at 1 byte/ns


def test_n_equal_flows_finish_together_at_n_times_solo():
    _e, _r, (solo,) = run_flows([1_000_000])
    n = 4
    _e, _r, flows = run_flows([1_000_000] * n)
    ends = {f.end_ns for f in flows}
    assert len(ends) == 1  # fair sharing: identical completion
    end = ends.pop()
    assert abs(end - n * solo.end_ns) <= n  # integer-ns rounding only


def test_unshared_resource_ignores_concurrency():
    _e, _r, flows = run_flows([1_000_000] * 4, shared=False)
    assert all(f.end_ns == 1_000_000 for f in flows)


def test_flow_completion_speeds_up_survivors():
    # S and 2S sharing: the small one finishes at 2S (half rate), the
    # big one then runs alone -> 2S + S = 3S, not the 4S it would take
    # if the medium stayed split.
    s = 1_000_000
    _e, _r, (small, big) = run_flows([s, 2 * s])
    assert abs(small.end_ns - 2 * s) <= 2
    assert abs(big.end_ns - 3 * s) <= 3
    assert big.end_ns < 4 * s  # the survivor really sped up


def test_cancellation_refunds_no_time():
    s = 1_000_000
    engine = Engine()
    res = BandwidthResource(engine, "test", BW, shared=True)
    victim = res.start_flow(s)
    survivor = res.start_flow(s)
    cancel_at = s // 2
    engine.schedule(cancel_at, res.cancel, victim)
    engine.run()
    # Until the cancel the survivor ran at half rate (drained s/4), then
    # alone: total = s/2 + 3s/4.  Strictly more than solo time — the
    # half-rate phase is not refunded.
    expected = cancel_at + (s - cancel_at // 2)
    assert abs(survivor.end_ns - expected) <= 2
    assert survivor.end_ns > s
    assert victim.cancelled and not victim.finished
    assert res.flows_cancelled == 1
    assert res.flows_completed == 1


def test_latency_delays_admission_not_drain():
    _e, _r, (f,) = run_flows([1_000_000], latency_ns=5_000)
    assert f.start_ns == 5_000
    assert f.end_ns == 1_005_000
    assert f.duration_ns == 1_000_000
    assert f.elapsed_ns == 1_005_000


def test_start_flow_rejects_negative_size_and_latency():
    res = BandwidthResource(Engine(), "test", BW, shared=True)
    with pytest.raises(ValueError, match="negative size"):
        res.start_flow(-1)
    with pytest.raises(ValueError, match="negative latency"):
        res.start_flow(1, latency_ns=-1)


def test_zero_byte_flow_costs_latency_only():
    _e, _r, (f,) = run_flows([0], latency_ns=7_000)
    assert f.end_ns == 7_000


def test_staggered_admission_overlap_is_partial():
    # Second flow admitted half-way through the first: the first slows
    # down only for the overlap.
    s = 1_000_000
    engine = Engine()
    res = BandwidthResource(engine, "test", BW, shared=True)
    first = res.start_flow(s)
    second = res.start_flow(s, latency_ns=s // 2)
    engine.run()
    # first: s/2 alone + s/2 remaining at half rate -> 1.5s total.
    assert abs(first.end_ns - (s + s // 2)) <= 2
    # second: half rate until first ends (drains s/2), then alone.
    assert abs(second.end_ns - 2 * s) <= 3


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=50_000_000), min_size=1, max_size=8
    )
)
def test_shared_resource_is_work_conserving(sizes):
    """Flows admitted together drain sum(bytes) at aggregate bandwidth:
    the last completion lands at total_bytes / bw (up to per-event
    integer rounding), and completions are size-ordered."""
    _e, _r, flows = run_flows(sizes)
    last = max(f.end_ns for f in flows)
    total = sum(sizes)
    assert abs(last - total) <= 2 * len(sizes)  # ceil per completion event
    by_size = sorted(flows, key=lambda f: f.nbytes)
    ends = [f.end_ns for f in by_size]
    assert ends == sorted(ends)


# ----------------------------------------------------------------------
# Differential: the sorted pool against the lane it replaced
# ----------------------------------------------------------------------

_EPS = resources._EPS_BYTES


class ReferenceLane(BandwidthResource):
    """The lane as it was before the sorted pool: ``_active`` in
    admission order, and every admit, completion and cancel rescans it.
    Kept here as the definition the production lane must equal."""

    def cancel(self, flow):
        if flow.cancelled or flow.finished:
            return False
        if self._active:
            self._advance()
            self._reap()
            if flow.finished:
                self._replan()
                return False
        flow.cancelled = True
        if not flow.mirror:
            self.flows_cancelled += 1
            if self.export_sink is not None and flow.gid is not None:
                self.export_sink(("cancel", self.name, flow.gid, self.engine.now))
        if flow in self._active:
            self._active.remove(flow)
            if not flow.mirror:
                self._emit_level()
        self._replan()
        return True

    def _admit(self, flow):
        if flow.cancelled:
            return
        self._advance()
        self._reap()
        flow.start_ns = self.engine.now
        if flow.remaining <= _EPS:
            self._replan()
            self._complete(flow)
            return
        self._active.append(flow)
        self._replan()
        if not flow.mirror:
            self._emit_level()

    def _emit_level(self):
        tele = self.engine.telemetry
        if tele.enabled:
            level = sum(1 for f in self._active if not f.mirror)
            tele.storage_level(self.name, self.engine.now, level)

    def _advance(self):
        now = self.engine.now
        if self._active and now > self._last_ns:
            rate = self._rate_bytes_per_ns()
            dt = now - self._last_ns
            for f in self._active:
                f.remaining -= dt * rate
        self._last_ns = now

    def _reap(self):
        due = [f for f in self._active if f.remaining <= _EPS]
        if not due:
            return
        self._active = [f for f in self._active if f.remaining > _EPS]
        if any(not f.mirror for f in due):
            self._emit_level()
        for f in due:
            self._complete(f)

    def _replan(self):
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
            self.tick_at_ns = None
        if not self._active:
            return
        rate = self._rate_bytes_per_ns()
        shortest = min(f.remaining for f in self._active)
        dt = max(1, math.ceil(max(0.0, shortest) / rate))
        self._tick = self.engine.schedule(dt, self._on_tick)
        self.tick_at_ns = self.engine.now + dt


class _Levels:
    """Telemetry stand-in recording the lane's occupancy samples."""

    enabled = True

    def __init__(self):
        self.samples = []

    def storage_level(self, lane, t_ns, level):
        self.samples.append((lane, t_ns, level))


def random_program(rng):
    """Steps ``(t_ns, kind, ...)`` over a few hundred microseconds:
    same-instant bursts of equal and near-equal flows, staggered admits,
    zero-byte flows, mirror flows, cancels of anything at any time, and
    completion callbacks that re-enter the lane."""
    steps = []
    nflows = 0
    t = 0
    for _ in range(rng.randint(3, 10)):
        t += rng.choice((0, 0, 1, 7, 1_000, 33_333, 250_001))
        base = rng.choice((0, 1, 4096, 1 << 20, 999_983, 3_000_000_001))
        for _ in range(rng.choice((1, 1, 2, 5, 12))):
            nbytes = max(0, base + rng.choice((0, 0, 0, 1, -1, 17)))
            lead = rng.choice((0, 0, 0, 5, 40_000))
            if rng.random() < 0.2:
                steps.append((t, "mirror", nflows, nbytes, t + lead))
            else:
                then = rng.choice((None, None, None, "chain", "cancel"))
                steps.append((t, "start", nflows, nbytes, lead, then))
            nflows += 1
    for _ in range(rng.randint(0, nflows)):
        steps.append((rng.randint(0, t + 400_000), "cancel", rng.randrange(nflows)))
    return steps


def play(lane_cls, steps, shared, bandwidth, export):
    """Run a program on a fresh engine and lane; return the state seen
    after every step instant and after the drain, plus the flows."""
    engine = Engine()
    engine.telemetry = levels = _Levels()
    lane = lane_cls(engine, "lane", bandwidth, shared=shared)
    exported = []
    if export:
        lane.export_sink = exported.append
    flows, fired, cancels = {}, [], []

    def on_done(flow, key, then):
        fired.append((key, engine.now))
        if then == "chain":  # what ChainRead does: next link, same lane
            flows[key, "next"] = lane.start_flow(
                flow.nbytes // 2, on_done=lambda f: on_done(f, (key, "next"), None)
            )
        elif then == "cancel" and flows:
            victim = sorted(flows, key=repr)[len(fired) % len(flows)]
            cancels.append((key, victim, lane.cancel(flows[victim])))

    def step(kind, *args):
        if kind == "start":
            key, nbytes, lead, then = args
            flows[key] = lane.start_flow(
                nbytes, latency_ns=lead, on_done=lambda f: on_done(f, key, then),
            )
        elif kind == "mirror":
            key, nbytes, admit_at = args
            flows[key] = lane.mirror_flow((9, key), nbytes)
            flows[key].on_done = lambda f: fired.append((key, engine.now))
            engine.schedule_at(admit_at, lane._admit, flows[key])
        elif args[0] in flows:
            cancels.append((engine.now, args[0], lane.cancel(flows[args[0]])))

    def state():
        return (
            engine.now, engine.events_executed, lane.tick_at_ns,
            lane.active_flows, lane.flows_started, lane.flows_completed,
            lane.flows_cancelled, lane.bytes_completed,
            [
                (k, f.start_ns, f.end_ns, f.cancelled, f.remaining, f.gid)
                for k, f in sorted(flows.items(), key=repr)
            ],
            list(fired), list(cancels), list(levels.samples), list(exported),
        )

    for t, kind, *args in steps:
        engine.schedule_at(t, step, kind, *args)
    seen = []
    for t in sorted({s[0] for s in steps}):
        engine.run(until_ns=t)
        seen.append(state())
        if lane_cls is BandwidthResource:
            pool = [f.remaining for f in lane._active]
            assert pool == sorted(pool)
    engine.run()
    seen.append(state())
    return seen, flows


@pytest.mark.parametrize("seed", range(150))
def test_sorted_pool_equals_the_rescanning_lane(seed):
    rng = random.Random(seed)
    steps = random_program(rng)
    shared = rng.random() < 0.8
    bandwidth = rng.choice((BW, 1.37e9, 2.5e8))
    export = shared and rng.random() < 0.5
    # Cancels at the very instant a flow completes: learn the instants
    # from the reference, then replay the extended program on both.
    _seen, flows = play(ReferenceLane, steps, shared, bandwidth, export)
    for key, flow in sorted(flows.items(), key=repr):
        if flow.end_ns is not None and isinstance(key, int) and rng.random() < 0.3:
            steps.append((flow.end_ns, "cancel", rng.choice((key, rng.randrange(key + 1)))))
    want, _ = play(ReferenceLane, steps, shared, bandwidth, export)
    got, _ = play(BandwidthResource, steps, shared, bandwidth, export)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
