"""Per-rank footprint of the simulator.

The world size the simulator reaches is bounded by what it allocates per
rank, so the per-rank classes are slotted and the containers only rare
paths fill start out shared (``EMPTY_DICT`` / an empty frozenset) until
their first writer.  These tests pin the bytes per rank of a built
world, that a failure-free run never creates a lazy container, that the
rare paths still create what they need and reproduce their reference
results, and that no per-rank class regains an instance ``__dict__``.
Beyond the per-rank state: the run path loads no numpy, and a completed
storage flow leaves nothing behind but its callback's effects.
"""

from __future__ import annotations

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.apps.synthetic import fig2_app, ring_app
from repro.core.clusters import ClusterMap
from repro.core.logstore import LogRecord, LogStore
from repro.core.protocol import SPBCConfig, _InboundChannel, _RankState
from repro.harness.runner import (
    RunSpec,
    build_world,
    run_native,
    run_online_failure,
    run_spbc,
)
from repro.mpi.constants import DEFAULT_EAGER_THRESHOLD
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import Envelope
from repro.mpi.request import Request
from repro.mpi.runtime import MPIRuntime
from repro.sim.engine import Trigger
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.resources import Flow
from repro.util.empty import EMPTY_DICT

#: Traced bytes per rank of the built 1024-rank world below.  It read
#: 5523 with instance dicts and eager containers, 2972 with them gone
#: (CPython 3.11); the bound sits between the two.
BUILT_BYTES_PER_RANK_MAX = 4096

RUNTIME_LAZY = (
    "_rvz_pending_cts",
    "_rvz_awaiting_data",
    "_rvz_unexpected",
    "_deferred_sends",
    "pattern_iters",
)
STATE_LAZY = ("ls", "gated", "rollback_sent")
LOG_LAZY = ("_stable", "_collected")


def _unallocated(obj, name: str) -> bool:
    value = getattr(obj, name)
    return value is EMPTY_DICT or type(value) is frozenset


def built_bytes_per_rank(nranks: int) -> float:
    """tracemalloc-traced bytes per rank of an SPBC ring world (block
    clusters of 8) that is built and launched but not run."""
    app = ring_app(iters=40, msg_bytes=4096, compute_ns=200_000)
    spec = RunSpec(app, nranks, ClusterMap.block(nranks, nranks // 8), trace=False)
    gc.collect()
    tracemalloc.start()
    try:
        world, _manager = build_world(spec, None, None)
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(world.runtimes) == nranks
    return traced / nranks


def test_built_world_bytes_per_rank_bound():
    per_rank = built_bytes_per_rank(1024)
    assert per_rank <= BUILT_BYTES_PER_RANK_MAX, (
        f"{per_rank:.0f} B per rank exceeds {BUILT_BYTES_PER_RANK_MAX}"
    )


def test_failure_free_eager_run_allocates_no_lazy_container():
    nranks = 16
    clusters = ClusterMap.block(nranks, 4)
    res = run_spbc(
        ring_app(iters=6, msg_bytes=4096, compute_ns=100_000), nranks, clusters,
        ranks_per_node=4,
    )
    world = res.world
    assert world.hooks.total_bytes_logged() > 0
    for rank in range(nranks):
        rt = world.runtimes[rank]
        st = world.hooks.state[rank]
        for obj, names in ((rt, RUNTIME_LAZY), (st, STATE_LAZY), (st.log, LOG_LAZY)):
            for name in names:
                assert _unallocated(obj, name), f"rank {rank}: {name} allocated"
        assert world.processes[rank]._exit_trigger is None


def test_rendezvous_exchange_creates_its_containers():
    nranks = 8
    clusters = ClusterMap.block(nranks, 2)
    app = ring_app(
        iters=3, msg_bytes=2 * DEFAULT_EAGER_THRESHOLD, compute_ns=100_000
    )
    ref = run_native(app, nranks, ranks_per_node=2)
    out = run_spbc(app, nranks, clusters, ranks_per_node=2)
    assert out.results == ref.results
    for rt in out.world.runtimes:
        assert rt._rvz_pending_cts is not EMPTY_DICT
        assert rt._rvz_awaiting_data is not EMPTY_DICT
        assert not rt._rvz_pending_cts and not rt._rvz_awaiting_data
    # Each RTS was noted at arrival or matched straight away; either way
    # nothing is left over.
    assert all(not rt._rvz_unexpected for rt in out.world.runtimes)


def test_pattern_api_creates_its_counters():
    res = run_spbc(
        fig2_app(use_pattern_api=True), 3, ClusterMap([0, 0, 1]),
        ranks_per_node=2,
    )
    assert res.results[1] == ["m0", "m2"]
    assert res.world.runtimes[1].pattern_iters == {1: 2}


def test_one_failure_schedule_creates_recovery_containers():
    nranks = 8
    clusters = ClusterMap.block(nranks, 4)
    app = ring_app(iters=8, msg_bytes=4096, compute_ns=300_000)
    ref = run_native(app, nranks, ranks_per_node=2)
    out = run_online_failure(
        app, nranks, clusters, fail_at_ns=int(ref.makespan_ns * 0.8),
        fail_rank=0, config=SPBCConfig(clusters=clusters, checkpoint_every=1),
        ranks_per_node=2,
    )
    assert out.results == ref.results
    assert out.restarted_ranks == {0, 1}
    spbc = out.world.hooks
    for rank in out.restarted_ranks:
        st = spbc.state[rank]
        assert st.ls is not EMPTY_DICT and st.ls
        assert isinstance(st.rollback_sent, set) and st.rollback_sent
    # Durable commits freed records through receiver GC and truncation.
    assert any(s.log._collected is not EMPTY_DICT for s in spbc.state.values())
    assert any(s.log._stable is not EMPTY_DICT for s in spbc.state.values())


def test_lazy_logstore_areas_behave_as_empty():
    log = LogStore(0)
    assert log.last_seq(1, 2) == 0 and log.channel_keys() == set()
    assert log.replay_after(1, 2, 0, include_stable=True) == []
    log.truncate()  # nothing resident: the stable area stays shared
    assert log._stable is EMPTY_DICT
    log.append(LogRecord(1, 2, 1, 0, 8, (0, 0), None, 0))
    log.truncate()
    assert log._stable is not EMPTY_DICT
    assert log.collect(1, 2, 1) == 1 and log._collected == {(1, 2): 1}


def test_exit_trigger_created_after_exit_is_already_fired():
    res = run_spbc(
        ring_app(iters=2, msg_bytes=64, compute_ns=1_000), 4,
        ClusterMap.block(4, 2),
    )
    proc = res.world.processes[0]
    assert proc._exit_trigger is None
    trigger = proc.exit_trigger
    assert trigger.fired and trigger.value == proc.result
    assert proc.exit_trigger is trigger


def test_empty_dict_refuses_inserts():
    with pytest.raises(TypeError):
        EMPTY_DICT["k"] = 1
    with pytest.raises(TypeError):
        EMPTY_DICT.setdefault("k", [])
    assert EMPTY_DICT.pop("k", None) is None and not EMPTY_DICT


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def test_per_rank_classes_have_no_instance_dict():
    # Import every module so every subclass is registered.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    bases = (
        MPIRuntime, _RankState, LogStore, SimProcess, MatchingEngine,
        Request, Envelope, Network, Trigger, _InboundChannel, LogRecord,
    )
    for base in bases:
        for cls in _subclasses(base):
            assert cls.__dictoffset__ == 0, f"{cls.__qualname__} has a __dict__"
    res = run_spbc(
        ring_app(iters=2, msg_bytes=64, compute_ns=1_000), 4,
        ClusterMap.block(4, 2),
    )
    world = res.world
    st = world.hooks.state[0]
    for obj in (
        world.runtimes[0], st, st.log, world.processes[0],
        world.runtimes[0].matching, world.network,
    ):
        assert not hasattr(obj, "__dict__"), type(obj).__qualname__


_NO_NUMPY_RUN = """
import sys
import repro, repro.harness.experiments, repro.harness.parallel
from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.harness.experiments import fig5_recovery, table1_log_growth
from repro.harness.runner import run_spbc

app = ring_app(iters=4, msg_bytes=4096, compute_ns=100_000)
cm = ClusterMap.block(8, 4)
seq = run_spbc(app, 8, cm, trace=False)
sharded = run_spbc(app, 8, cm, trace=False, shards=2)
assert sharded.results == seq.results
# The paper pipeline: sender-log pair sums, partitioner, replay.
paper = dict(apps=("milc",), nranks=8, ranks_per_node=2)
assert table1_log_growth(**paper)
assert fig5_recovery(ks=(2,), **paper)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")[:3])
"""


def test_run_path_loads_no_numpy():
    """numpy costs ~14 MiB of resident memory; only the traced analysis
    paths may load it, and the paper pipeline (Table 1, Figure 5) is
    not one of them.  Checked in a fresh interpreter: the pytest process
    has numpy loaded already."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN], env=env, capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_flow_has_no_completion_trigger():
    """Nothing waits on a flow: completion is its ``on_done`` callback,
    and a per-flow trigger fired with the flow as its value only left a
    reference cycle behind every flush."""
    assert "done" not in Flow.__slots__
