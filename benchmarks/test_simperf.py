"""simperf, live: every gate of ``repro.harness.simperf.GATES`` measured
and held to its limit — the loop ``python -m repro simperf`` runs, one
gate per test.  Each is a paired in-process ratio, so tier-1 asks no
host for a wall clock or a core count; the shard gates exist only under
``--shards N`` (CI ``perf-smoke``, 4-vcpu runners).  The verdicts on
synthetic measurements are ``tests/harness/test_simperf_gates.py``."""

import pytest

from repro.harness.simperf import GATES, run_gates

#: Tens of seconds each: the nightly job and CI ``perf-smoke`` run them.
HEAVY = {"warp", "storm-scaling", "trace-cost"}


@pytest.mark.parametrize("gate", [
    pytest.param(g, id=g.name, marks=pytest.mark.slow if g.name in HEAVY else ())
    for g in GATES
])
def test_gate(gate):
    assert run_gates([gate]) == 0  # the verdict line is in the captured output
